package exec

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/bitset"
	"repro/internal/fault"
	"repro/internal/hypergraph"
	"repro/internal/jointree"
	"repro/internal/obs"
)

// StepStats records one semijoin statement of a reduction run.
type StepStats struct {
	Step    jointree.SemijoinStep
	RowsIn  int           // target rows before the semijoin
	RowsOut int           // target rows after
	Elapsed time.Duration // kernel time of the step
	// Wait is always 0: steps run serially, so none queues. It is kept
	// for callers that still read it.
	Wait time.Duration
}

// ReduceResult is the outcome of running a full reducer: the reduced
// database (untouched tables are shared with the input, shrunk ones are
// fresh), per-step statistics, and totals.
type ReduceResult struct {
	DB      *Database
	Steps   []StepStats
	RowsIn  int // total rows across objects before reduction
	RowsOut int // total rows across objects after
	Elapsed time.Duration
}

// EvalResult is the outcome of a full Yannakakis evaluation.
type EvalResult struct {
	// Out is π_attrs(⋈ all objects).
	Out *Table
	// Reduce is the embedded reduction phase with its per-step stats.
	Reduce *ReduceResult
	// JoinRows counts the row pairs matched while joining the canonical
	// connection of the query attributes: the sum over the join phase's
	// joins of the rows an unprojected join would have built. None is
	// built: each join writes only the distinct projected rows. It is the
	// output-sensitivity metric: after full reduction the objects outside
	// the canonical connection are never joined.
	JoinRows int
	Elapsed  time.Duration
}

// checkTree verifies that tree is a join tree of d's schema (same content;
// fingerprints are compared), so its connections are the schema's own.
func checkTree(d *Database, tree *jointree.JoinTree) error {
	if len(tree.Parent) != len(d.Tables) ||
		(tree.H != d.Schema && tree.H.Fingerprint128() != d.Schema.Fingerprint128()) {
		return fmt.Errorf("exec: join tree belongs to a different schema")
	}
	return nil
}

// denseFits reports whether d's dictionary is no larger than its total cell
// count, which keeps the dense kernels' O(dict) scratch within the input
// size. A dictionary built for one request always fits.
func denseFits(d *Database) bool {
	cells := 0
	for _, t := range d.Tables {
		cells += t.rows * len(t.cols)
	}
	return d.Dict() != nil && d.Dict().Len() <= cells
}

// Reduce runs tree's two-pass full reducer over d as a streaming
// reduction: objects are replaced by their semijoin with a tree neighbour,
// without ever materializing a join. For acyclic schemas this leaves every
// object globally consistent (Bernstein–Goodman), which is the precondition
// Eval's output-sensitivity rests on. d is not mutated, and tree must be a
// join tree of d's schema.
//
// The steps run serially in tree.FullReducer() order, and each step's
// stats land in its slot of that order.
//
// The semijoin kernel is chosen per step (see chooseKernels): when d's
// dictionary fits (see denseFits), a step sharing exactly one column marks
// the source's values in value-id heads, and every other step takes the
// hash kernel. Cancellation is observed inside the kernels every ~4096
// rows; on cancellation the partial work is discarded and ctx.Err()
// returned.
func Reduce(ctx context.Context, d *Database, tree *jointree.JoinTree) (*ReduceResult, error) {
	sc := takeScratch(d)
	res, err := reduce(ctx, d, tree, sc)
	d.Dict().give(sc) // not deferred: a panic drops the scratch
	return res, err
}

// takeScratch takes the scratch of one evaluation over d from its Dict,
// or returns nil, which allows only the hash kernels and allocates every
// output, when the dictionary does not fit (see denseFits). The caller
// hands it back with give.
func takeScratch(d *Database) *evalScratch {
	if !denseFits(d) {
		return nil
	}
	return d.Dict().take()
}

// reduce is Reduce on scratch sc, which Eval shares with its join phase;
// nil allows only the hash kernel.
func reduce(ctx context.Context, d *Database, tree *jointree.JoinTree, sc *evalScratch) (*ReduceResult, error) {
	if err := checkTree(d, tree); err != nil {
		return nil, err
	}
	ctx, rsp := obs.StartSpan(ctx, "exec.reduce")
	defer rsp.End()
	start := time.Now()
	work := slices.Clone(d.Tables)
	prog := tree.FullReducer()
	steps := make([]StepStats, len(prog))
	// step runs prog[i], replacing work[Target] by work[Target] ⋉
	// work[Source]. Exactly one fault.ExecReduceStep hit fires per step,
	// whichever kernel runs.
	step := func(i int) error {
		sctx, ssp := obs.StartSpan(ctx, "exec.step")
		defer ssp.End()
		target, source := prog[i].Target, prog[i].Source
		r, s := work[target], work[source]
		stepStart := time.Now()
		err := fault.HitCtx(sctx, fault.ExecReduceStep)
		var next *Table
		var kernel string
		if err == nil {
			next, kernel, err = semijoin(sctx, r, s, sc)
		}
		if err != nil {
			ssp.SetAttr("error", err.Error())
			return err
		}
		work[target] = next
		steps[i] = StepStats{
			Step:    prog[i],
			RowsIn:  r.rows,
			RowsOut: next.rows,
			Elapsed: time.Since(stepStart),
		}
		ssp.SetAttr("kernel", kernel)
		ssp.SetInt("target", int64(target))
		ssp.SetInt("source", int64(source))
		ssp.SetInt("rowsIn", int64(r.rows))
		ssp.SetInt("rowsOut", int64(next.rows))
		return nil
	}
	for i := range prog {
		if err := step(i); err != nil {
			return nil, err
		}
	}
	res := &ReduceResult{
		DB:      &Database{Schema: d.Schema, Tables: work},
		Steps:   steps,
		RowsIn:  d.NumRows(),
		Elapsed: time.Since(start),
	}
	res.RowsOut = res.DB.NumRows()
	rsp.SetInt("rowsIn", int64(res.RowsIn))
	rsp.SetInt("rowsOut", int64(res.RowsOut))
	rsp.SetInt("steps", int64(len(res.Steps)))
	return res, nil
}

// Eval answers π_attrs(⋈ all objects) with the Yannakakis strategy over a
// join tree of the schema, joining only the canonical connection of attrs:
// Reduce, then Graham-reduce the tree with attrs sacred (see
// planConnection) and join the surviving objects bottom-up along the
// reduced forest. Every object is projected, and each child join emits
// only distinct projected rows (joinProject), onto the query attributes
// plus those its kept parent and its children still to be joined share
// with it, so the join phase only matches row pairs of the canonical
// connection (JoinRows) and never builds an unprojected join. If any
// reduced object is empty the answer is empty; otherwise components that
// carry no query attribute are never joined, and the components that do
// are cross-joined. Each node applies its child joins in child order. The
// tree must belong to d's schema (same content; fingerprints are
// compared), and every requested attribute must appear in some edge.
//
// When d's dictionary fits (see denseFits), every semijoin, projection and
// join picks its kernels from the input through chooseKernels: one sharing
// exactly one column probes chain heads indexed by value id, and one whose
// kept columns span few enough value-id tuples dedups in a bitmap. One
// scratch, O(dictionary + largest kernel input), serves the reduction and
// the join phase. The kernels change no output, row order included, and
// the exec.join span counts the joins (not the projections) that took
// each.
func Eval(ctx context.Context, d *Database, tree *jointree.JoinTree, attrs []string) (*EvalResult, error) {
	sc := takeScratch(d)
	res, err := eval(ctx, d, tree, attrs, sc)
	d.Dict().give(sc) // not deferred: a panic drops the scratch
	return res, err
}

// eval is Eval on scratch sc, which its reduction and join phase share;
// nil allows only the hash kernels.
func eval(ctx context.Context, d *Database, tree *jointree.JoinTree, attrs []string, sc *evalScratch) (*EvalResult, error) {
	ctx, esp := obs.StartSpan(ctx, "exec.eval")
	defer esp.End()
	// Chaos site: head of the Yannakakis pipeline, one hit per evaluation.
	if err := fault.HitCtx(ctx, fault.ExecEvalJoin); err != nil {
		return nil, err
	}
	start := time.Now()
	if len(d.Tables) == 0 {
		return nil, fmt.Errorf("exec: empty schema")
	}
	if err := checkTree(d, tree); err != nil {
		return nil, err
	}
	// The plan works in tree.H's node ids; its edges are d's, as sets of
	// names, in the same order.
	h := tree.H
	want := bitset.New(h.Universe())
	for _, a := range attrs {
		id, ok := h.NodeID(a)
		if !ok {
			return nil, fmt.Errorf("exec: unknown query attribute %q", a)
		}
		covered := false
		for i := 0; i < h.NumEdges() && !covered; i++ {
			covered = holds(h, i, id)
		}
		if !covered {
			return nil, fmt.Errorf("exec: query attribute %q occurs in no object", a)
		}
		want.Add(id)
	}
	red, err := reduce(ctx, d, tree, sc)
	if err != nil {
		return nil, err
	}
	res := &EvalResult{Reduce: red}
	jctx, jsp := obs.StartSpan(ctx, "exec.join")
	defer jsp.End()
	reduced := red.DB.Tables
	plan := planConnection(tree, want)
	esp.SetInt("joinNodes", int64(len(plan.nodes)))
	esp.SetInt("prunedNodes", int64(len(reduced)-len(plan.nodes)))
	var denseJoins, hashJoins, bitmapDedups, setDedups int64
	finish := func(out *Table) (*EvalResult, error) {
		res.Out = out
		res.Elapsed = time.Since(start)
		for _, sp := range []*obs.Span{esp, jsp} {
			sp.SetInt("joinRows", int64(res.JoinRows))
			sp.SetInt("rowsOut", int64(out.rows))
		}
		jsp.SetInt("denseJoins", denseJoins)
		jsp.SetInt("hashJoins", hashJoins)
		jsp.SetInt("bitmapDedups", bitmapDedups)
		jsp.SetInt("setDedups", setDedups)
		return res, nil
	}
	// After full reduction an empty object empties the whole join, whether
	// or not its component carries a query attribute.
	if slices.ContainsFunc(reduced, func(t *Table) bool { return t.rows == 0 }) {
		uniq := unionAttrs(attrs)
		return finish(&Table{dict: d.Dict(), attrs: uniq, cols: make([][]int32, len(uniq))})
	}

	// join runs one fused join of the phase, counting the pairs the
	// unfused join would have built and the kernels it ran.
	join := func(acc, sub *Table, keep []string) (*Table, error) {
		out, matches, k, err := joinProject(jctx, acc, sub, keep, sc)
		res.JoinRows += matches
		if k.dense {
			denseJoins++
		} else {
			hashJoins++
		}
		switch k.dedup {
		case dedupBitmap:
			bitmapDedups++
		case dedupSet:
			setDedups++
		}
		return out, err
	}
	// buildAll computes the subtree tables of vs in order.
	var build func(v int) (*Table, error)
	buildAll := func(vs []int) ([]*Table, error) {
		subs := make([]*Table, len(vs))
		for i, v := range vs {
			var err error
			if subs[i], err = build(v); err != nil {
				return nil, err
			}
		}
		return subs, nil
	}
	// build projects v's object, then joins its kept subtrees into it one
	// child at a time, each join keeping only what v's later joins need.
	build = func(v int) (*Table, error) {
		kids := plan.children[v]
		subs, err := buildAll(kids)
		if err != nil {
			return nil, err
		}
		acc, _, err := project(jctx, reduced[v], plan.need(reduced[v].attrs, v, kids), sc)
		for i := 0; err == nil && i < len(subs); i++ {
			acc, err = join(acc, subs[i], plan.need(unionAttrs(acc.attrs, subs[i].attrs), v, kids[i+1:]))
		}
		return acc, err
	}
	subs, err := buildAll(plan.roots)
	if err != nil {
		return nil, err
	}
	// With no kept node (no query attribute) the answer is the one empty
	// tuple: every object is nonempty. Kept roots lie in distinct
	// components and each carries only query attributes, so their cross
	// product keeps every cell and covers exactly the query attributes.
	acc := unitTable(d.Dict())
	for i, sub := range subs {
		if i == 0 {
			acc = sub
			continue
		}
		if acc, err = join(acc, sub, unionAttrs(acc.attrs, sub.attrs)); err != nil {
			return nil, err
		}
	}
	return finish(acc)
}

// connection is the join plan of one query: the nodes of the join forest
// that survive Graham reduction with the query attributes x sacred, as a
// forest of their own. Their projections cover exactly the canonical
// connection CC(x), which on an acyclic schema is the unique connection
// among x. The plan is a function of the tree and x alone, so every run of
// one query joins in the same order.
type connection struct {
	h        *hypergraph.Hypergraph
	x        bitset.Set
	nodes    []int   // kept nodes
	roots    []int   // kept roots
	parent   []int   // kept parent; -1 for a kept root or a pruned node
	children [][]int // kept children
}

// planConnection Graham-reduces tree with x sacred, from the tree and x
// alone. A kept node's projection is its edge restricted to x and to the
// edges of its kept neighbours. A node whose projection lies inside one
// kept neighbour's edge is contracted into it, and that neighbour inherits
// its other neighbours: every neighbour's intersection with the node lies
// inside the projection, so running intersection keeps the kept nodes a
// join tree, and a leaf's removal is the one-neighbour case. An isolated
// node whose projection is empty is dropped. Each kept component is then
// rooted at its first node in the original reversed post-order.
func planConnection(tree *jointree.JoinTree, x bitset.Set) *connection {
	h := tree.H
	m := len(tree.Parent)
	// rep is a union-find over contractions: a contracted node points at the
	// node it went into. adj[v] holds tree neighbours of v's cluster,
	// resolved through rep on use; dropped marks removed isolated nodes.
	rep := make([]int, m)
	adj := make([][]int, m)
	for v, pv := range tree.Parent {
		rep[v] = v
		if pv >= 0 {
			adj[v] = append(adj[v], pv)
			adj[pv] = append(adj[pv], v)
		}
	}
	find := func(v int) int {
		for rep[v] != v {
			rep[v] = rep[rep[v]]
			v = rep[v]
		}
		return v
	}
	// neighbours resolves v's neighbour list to kept nodes in place. Since
	// clusters are subtrees, each kept neighbour appears once.
	neighbours := func(v int) []int {
		nb := adj[v][:0]
		for _, u := range adj[v] {
			if u = find(u); u != v {
				nb = append(nb, u)
			}
		}
		adj[v] = nb
		return nb
	}
	dropped := make([]bool, m)
	// Children go before parents, so leaves are tried first. Contracting a
	// node into w shrinks only w's projection (any other neighbour's
	// intersection with w lay inside the contracted node), so w alone is
	// queued again.
	post := tree.PostOrder()
	queue := slices.Clone(post)
	queued := make([]bool, m)
	for _, v := range queue {
		queued[v] = true
	}
	var proj []int
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		queued[v] = false
		nb := neighbours(v)
		proj = proj[:0]
		for _, id := range h.Members(v) {
			a := int(id)
			if x.Contains(a) || slices.ContainsFunc(nb, func(u int) bool { return holds(h, u, a) }) {
				proj = append(proj, a)
			}
		}
		if len(nb) == 0 {
			dropped[v] = len(proj) == 0
			continue
		}
		for _, w := range nb {
			if !slices.ContainsFunc(proj, func(a int) bool { return !holds(h, w, a) }) {
				rep[v] = w
				adj[w] = append(adj[w], adj[v]...)
				adj[v] = nil
				if !queued[w] {
					queued[w] = true
					queue = append(queue, w)
				}
				break
			}
		}
	}

	c := &connection{h: h, x: x, parent: make([]int, m), children: make([][]int, m)}
	for v := range c.parent {
		c.parent[v] = -1
	}
	seen := make([]bool, m)
	var stack []int
	for _, v := range slices.Backward(post) {
		if rep[v] != v || dropped[v] {
			continue
		}
		c.nodes = append(c.nodes, v)
		if seen[v] {
			continue
		}
		seen[v] = true
		c.roots = append(c.roots, v)
		for stack = append(stack[:0], v); len(stack) > 0; {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, k := range neighbours(u) {
				if !seen[k] {
					seen[k] = true
					c.parent[k] = u
					c.children[u] = append(c.children[u], k)
					stack = append(stack, k)
				}
			}
		}
	}
	return c
}

// need lists the attributes among attrs that kept node v's later joins
// still use: the query attributes and those shared with v's kept parent or
// with the kept children rest not yet joined.
func (c *connection) need(attrs []string, v int, rest []int) []string {
	keep := make([]string, 0, len(attrs))
	for _, a := range attrs {
		id, _ := c.h.NodeID(a)
		shares := func(u int) bool { return holds(c.h, u, id) }
		if c.x.Contains(id) || (c.parent[v] >= 0 && shares(c.parent[v])) || slices.ContainsFunc(rest, shares) {
			keep = append(keep, a)
		}
	}
	return keep
}

// holds reports whether edge e of h contains node id.
func holds(h *hypergraph.Hypergraph, e, id int) bool {
	_, ok := slices.BinarySearch(h.Members(e), int32(id))
	return ok
}
