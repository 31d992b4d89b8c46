package exec

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bitset"
	"repro/internal/fault"
	"repro/internal/hypergraph"
	"repro/internal/jointree"
	"repro/internal/obs"
	"repro/internal/pool"
)

// StepStats records one semijoin statement of a reduction run.
type StepStats struct {
	Step    jointree.SemijoinStep
	RowsIn  int // target rows before the semijoin
	RowsOut int // target rows after
	Elapsed time.Duration
	// Wait is the queueing delay before the step's kernel started: the
	// time between a level's dispatch and the moment a worker picked the
	// step's node up (charged to the node's first step). A nil or
	// single-worker pool never queues, so Wait is 0 there. Elapsed is pure
	// kernel time and never includes Wait.
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
	// JoinRows counts the rows materialized while joining the canonical
	// connection of the query attributes: the sum of every join's output
	// across the join phase. It is the output-sensitivity metric: after
	// full reduction the objects outside the canonical connection are never
	// joined, and the joined ones are projected after every child.
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
// count, which keeps the dense semijoin's O(dict) scratch within the input
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
// jointree.Levels partitions the forest into dependency levels: every node
// of an up-level folds its children into itself (in child order), the
// down-levels mirror it by depth, and the nodes of one level run
// concurrently on p. Each step sees the inputs it would see in program
// order, and its stats land in the slot of tree.FullReducer() order, so the
// result is independent of p; a nil or single-worker pool runs inline.
//
// The semijoin kernel is chosen per step: a step sharing exactly one column
// takes the dense stamp filter when d's dictionary fits (see denseFits),
// every other step the hash kernel. Cancellation is observed inside the
// kernels every ~4096 rows; on cancellation the partial work is discarded
// and ctx.Err() returned.
func Reduce(ctx context.Context, d *Database, tree *jointree.JoinTree, p *pool.Pool) (*ReduceResult, error) {
	if err := checkTree(d, tree); err != nil {
		return nil, err
	}
	ctx, rsp := obs.StartSpan(ctx, "exec.reduce")
	defer rsp.End()
	start := time.Now()
	m := len(d.Tables)
	work := slices.Clone(d.Tables)
	dense := denseFits(d)
	// Stamp scratch is per task: a task takes one from free (or makes one)
	// and hands it back when done, so concurrent steps of a level never
	// share one and an inline run reuses a single scratch throughout. At
	// most p.Parallelism() tasks run at once, so free never fills up.
	free := make(chan *stamps, p.Parallelism())

	// Pre-assign every step its slot in program order, so concurrent
	// completion can't scramble the Steps slice.
	post := tree.PostOrder()
	upIdx := make([]int, m)
	downIdx := make([]int, m)
	k := 0
	for _, v := range post {
		if tree.Parent[v] >= 0 {
			upIdx[v] = k
			k++
		}
	}
	for _, v := range slices.Backward(post) {
		if tree.Parent[v] >= 0 {
			downIdx[v] = k
			k++
		}
	}
	steps := make([]StepStats, k)

	// step replaces work[target] by work[target] ⋉ work[source], recording
	// its stats in slot; st is the task's stamp scratch, nil when only the
	// hash kernel may run. Exactly one fault.ExecReduceStep hit fires per
	// step, whichever kernel runs.
	step := func(target, source, slot int, wait time.Duration, st *stamps) error {
		sctx, ssp := obs.StartSpan(ctx, "exec.step")
		defer ssp.End()
		r, s := work[target], work[source]
		stepStart := time.Now()
		err := fault.HitCtx(sctx, fault.ExecReduceStep)
		var next *Table
		var kernel string
		if err == nil {
			next, kernel, err = semijoin(sctx, r, s, st, p)
		}
		if err != nil {
			ssp.SetAttr("error", err.Error())
			return err
		}
		work[target] = next
		steps[slot] = StepStats{
			Step:    jointree.SemijoinStep{Target: target, Source: source},
			RowsIn:  r.rows,
			RowsOut: next.rows,
			Elapsed: time.Since(stepStart),
			Wait:    wait,
		}
		ssp.SetAttr("kernel", kernel)
		ssp.SetInt("target", int64(target))
		ssp.SetInt("source", int64(source))
		ssp.SetInt("rowsIn", int64(r.rows))
		ssp.SetInt("rowsOut", int64(next.rows))
		ssp.SetInt("waitNs", wait.Nanoseconds())
		return nil
	}
	// runLevels dispatches each level at once, so the time between dispatch
	// and a task starting is pure pool queueing: it is charged to the
	// node's first step (Wait), keeping Elapsed kernel-only. A nil or
	// single-worker pool runs tasks back to back and reports no wait.
	var failed atomic.Pointer[error]
	runLevels := func(levels [][]int, task func(v int, wait time.Duration, st *stamps) error) {
		for _, level := range levels {
			if failed.Load() != nil {
				return
			}
			dispatch := time.Now()
			p.Do(len(level), func(i int) {
				var wait time.Duration
				if p.Parallelism() > 1 {
					wait = time.Since(dispatch)
				}
				if failed.Load() != nil {
					return
				}
				var st *stamps
				if dense {
					select {
					case st = <-free:
					default:
						st = new(stamps)
					}
					defer func() { free <- st }()
				}
				if err := task(level[i], wait, st); err != nil {
					failed.CompareAndSwap(nil, &err)
				}
			})
		}
	}
	ch := tree.Children()
	up, down := tree.Levels()
	// Up: fold the children into work[v] in child order. Each child's own
	// fold finished in a lower level, so work[c] is final, and no other
	// task touches work[v].
	runLevels(up, func(v int, wait time.Duration, st *stamps) error {
		for i, c := range ch[v] {
			if i > 0 {
				wait = 0
			}
			if err := step(v, c, upIdx[c], wait, st); err != nil {
				return err
			}
		}
		return nil
	})
	// Down: every non-root reduces against its final parent.
	runLevels(down, func(v int, wait time.Duration, st *stamps) error {
		if pv := tree.Parent[v]; pv >= 0 {
			return step(v, pv, downIdx[v], wait, st)
		}
		return nil
	})
	if err := failed.Load(); err != nil {
		return nil, *err
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
// reduced forest. Every object, and every accumulator after each child
// join, is projected onto the query attributes plus those its kept parent
// and its children still to be joined share with it, so JoinRows counts
// only rows materialized while joining the canonical connection. If any
// reduced object is empty the answer is empty; otherwise components that
// carry no query attribute are never joined, and the components that do
// are cross-joined. Sibling subtrees build concurrently when p has spare
// tokens (falling back inline when it is saturated), while each node
// applies its child joins in child order, so the output is independent of
// p. The tree must belong to d's schema (same content; fingerprints are
// compared), and every requested attribute must appear in some edge.
func Eval(ctx context.Context, d *Database, tree *jointree.JoinTree, attrs []string, p *pool.Pool) (*EvalResult, error) {
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
			covered = h.EdgeView(i).Contains(id)
		}
		if !covered {
			return nil, fmt.Errorf("exec: query attribute %q occurs in no object", a)
		}
		want.Add(id)
	}
	red, err := Reduce(ctx, d, tree, p)
	if err != nil {
		return nil, err
	}
	res := &EvalResult{Reduce: red}
	reduced := red.DB.Tables
	plan := planConnection(tree, want)
	esp.SetInt("joinNodes", int64(len(plan.nodes)))
	esp.SetInt("prunedNodes", int64(len(reduced)-len(plan.nodes)))
	finish := func(out *Table) (*EvalResult, error) {
		res.Out = out
		res.Elapsed = time.Since(start)
		esp.SetInt("joinRows", int64(res.JoinRows))
		esp.SetInt("rowsOut", int64(out.rows))
		return res, nil
	}
	// After full reduction an empty object empties the whole join, whether
	// or not its component carries a query attribute.
	if slices.ContainsFunc(reduced, func(t *Table) bool { return t.rows == 0 }) {
		uniq := slices.Compact(slices.Sorted(slices.Values(attrs)))
		return finish(&Table{dict: d.Dict(), attrs: uniq, cols: make([][]int32, len(uniq))})
	}

	var joinRows atomic.Int64
	// buildAll computes the subtree tables of vs concurrently when tokens
	// allow: vs[0] runs inline (the caller is a worker), the rest spawn
	// only if TryAcquire grants a token, so recursion cannot oversubscribe.
	var build func(v int) (*Table, error)
	buildAll := func(vs []int) ([]*Table, error) {
		subs := make([]*Table, len(vs))
		errs := make([]error, len(vs))
		var wg sync.WaitGroup
		for i := len(vs) - 1; i >= 1; i-- {
			if p.TryAcquire() {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					defer p.Release()
					subs[i], errs[i] = build(vs[i])
				}(i)
			} else {
				subs[i], errs[i] = build(vs[i])
			}
		}
		if len(vs) > 0 {
			subs[0], errs[0] = build(vs[0])
		}
		wg.Wait()
		for _, e := range errs {
			if e != nil {
				return nil, e
			}
		}
		return subs, nil
	}
	// build joins v's projected object with its kept subtrees, one child at
	// a time, projecting after every join.
	build = func(v int) (*Table, error) {
		kids := plan.children[v]
		subs, err := buildAll(kids)
		if err != nil {
			return nil, err
		}
		acc := reduced[v]
		for i := 0; ; i++ {
			if acc, err = Project(ctx, acc, plan.need(acc.attrs, v, kids[i:]), p); err != nil || i == len(subs) {
				return acc, err
			}
			if acc, err = Join(ctx, acc, subs[i], p); err != nil {
				return nil, err
			}
			joinRows.Add(int64(acc.rows))
		}
	}
	subs, err := buildAll(plan.roots)
	if err != nil {
		return nil, err
	}
	// With no kept node (no query attribute) the answer is the one empty
	// tuple: every object is nonempty.
	acc := &Table{dict: d.Dict(), attrs: []string{}, cols: [][]int32{}, rows: 1}
	for i, sub := range subs {
		if i == 0 {
			acc = sub
			continue
		}
		if acc, err = Join(ctx, acc, sub, p); err != nil {
			return nil, err
		}
		joinRows.Add(int64(acc.rows))
	}
	out, err := Project(ctx, acc, attrs, p)
	if err != nil {
		return nil, err
	}
	res.JoinRows = int(joinRows.Load())
	return finish(out)
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
		h.EdgeView(v).ForEach(func(a int) {
			if x.Contains(a) || slices.ContainsFunc(nb, func(u int) bool { return h.EdgeView(u).Contains(a) }) {
				proj = append(proj, a)
			}
		})
		if len(nb) == 0 {
			dropped[v] = len(proj) == 0
			continue
		}
		for _, w := range nb {
			if !slices.ContainsFunc(proj, func(a int) bool { return !h.EdgeView(w).Contains(a) }) {
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
		shares := func(u int) bool { return c.h.EdgeView(u).Contains(id) }
		if c.x.Contains(id) || (c.parent[v] >= 0 && shares(c.parent[v])) || slices.ContainsFunc(rest, shares) {
			keep = append(keep, a)
		}
	}
	return keep
}
