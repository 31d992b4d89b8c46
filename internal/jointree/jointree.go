// Package jointree builds and verifies join trees of acyclic hypergraphs
// and derives semijoin full-reducer programs from them.
//
// A join tree of H is a tree over H's edges such that for every node n the
// edges containing n induce a connected subtree (the running-intersection
// property). A hypergraph has a join tree iff it is acyclic (BFMY), which
// is the structural fact behind the paper's database interpretation: acyclic
// schemas are the ones whose objects can be joined pairwise along a tree.
//
// Two constructions are provided: one reading the tree off the Graham
// reduction trace, and one via a maximum-weight spanning tree of the edge
// intersection graph (Bernstein–Goodman); both are verified against the
// running-intersection property.
package jointree

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/bitset"
	"repro/internal/gyo"
	"repro/internal/hypergraph"
	"repro/internal/mcs"
)

// JoinTree is a rooted forest over the edges of H (Parent[i] == -1 for
// roots). For connected acyclic H it is a single tree.
type JoinTree struct {
	H      *hypergraph.Hypergraph
	Parent []int
}

// Build constructs a join tree from the Graham reduction trace: when edge E
// is removed because it became a subset of F, F becomes E's parent. It
// returns ok=false when h is cyclic (no join tree exists).
func Build(h *hypergraph.Hypergraph) (*JoinTree, bool) {
	t, ok, err := BuildCtx(context.Background(), h)
	if err != nil {
		// Background contexts are never cancelled; BuildCtx has no other
		// error path.
		panic(err)
	}
	return t, ok
}

// BuildCtx is Build with cooperative cancellation: the Graham reduction polls
// ctx every ~4096 units of work (see gyo.RunCtx) and returns
// (nil, false, ctx.Err()) when cancelled, so server deadlines reach the GYO
// construction path the same way BuildMCSCtx covers the MCS path.
func BuildCtx(ctx context.Context, h *hypergraph.Hypergraph) (*JoinTree, bool, error) {
	r, err := gyo.RunCtx(ctx, h, bitset.Set{})
	if err != nil {
		return nil, false, err
	}
	if !r.Vanished() {
		return nil, false, nil
	}
	parent := make([]int, h.NumEdges())
	for i := range parent {
		parent[i] = -1
	}
	for _, s := range r.Steps {
		// Empty partial edges carry no shared nodes; linking them would
		// fuse unrelated components of a disconnected hypergraph.
		if s.Kind == gyo.EdgeRemoval && len(s.Partial) > 0 {
			parent[s.Edge] = s.Into
		}
	}
	t := &JoinTree{H: h, Parent: parent}
	if err := t.Verify(); err != nil {
		// The GYO construction always yields a valid join tree for acyclic
		// inputs; reaching this is a bug, not an input error.
		panic(fmt.Sprintf("jointree: GYO construction produced invalid tree: %v", err))
	}
	return t, true, nil
}

// BuildMCS constructs a join tree from the maximum-cardinality-search
// ordering (Tarjan–Yannakakis) in O(total edge size): each edge's parent is
// a previously selected edge containing its intersection with the already-
// selected region. It returns ok=false when h is cyclic. Unlike Build, no
// O(nodes·edges) verification pass runs — the construction satisfies the
// running-intersection property by the RIP-ordering theorem, and the
// differential suite pins it against Verify on randomized instances — so
// this is the construction of choice for large hypergraphs.
func BuildMCS(h *hypergraph.Hypergraph) (*JoinTree, bool) {
	t, ok, err := BuildMCSCtx(context.Background(), h)
	if err != nil {
		// Background contexts are never cancelled; BuildMCSCtx has no other
		// error path.
		panic(err)
	}
	return t, ok
}

// BuildMCSCtx is BuildMCS with cooperative cancellation: the underlying
// search polls ctx every ~4096 units of work (see mcs.RunCtx) and returns
// (nil, false, ctx.Err()) when cancelled, so a 10⁶-edge construction stops
// within a bounded stride of its caller's deadline instead of running to
// completion.
func BuildMCSCtx(ctx context.Context, h *hypergraph.Hypergraph) (*JoinTree, bool, error) {
	r, err := mcs.RunCtx(ctx, h)
	if err != nil {
		return nil, false, err
	}
	if !r.Acyclic {
		return nil, false, nil
	}
	return &JoinTree{H: h, Parent: r.Parent}, true, nil
}

// BuildMST constructs a candidate join tree as a maximum-weight spanning
// forest of the intersection graph (edge weight = |Ei ∩ Ej|), per
// Bernstein–Goodman, then checks the running-intersection property. For
// acyclic h the check always passes; for cyclic h it always fails, so
// (tree, ok) doubles as an acyclicity test.
func BuildMST(h *hypergraph.Hypergraph) (*JoinTree, bool) {
	m := h.NumEdges()
	type cand struct {
		w    int
		i, j int
	}
	var cands []cand
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			w := intersectCount(h.Members(i), h.Members(j))
			if w > 0 {
				cands = append(cands, cand{w, i, j})
			}
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].w != cands[b].w {
			return cands[a].w > cands[b].w
		}
		if cands[a].i != cands[b].i {
			return cands[a].i < cands[b].i
		}
		return cands[a].j < cands[b].j
	})
	uf := newUnionFind(m)
	adj := make([][]int, m)
	for _, c := range cands {
		if uf.union(c.i, c.j) {
			adj[c.i] = append(adj[c.i], c.j)
			adj[c.j] = append(adj[c.j], c.i)
		}
	}
	// Root each component at its smallest edge index.
	parent := make([]int, m)
	for i := range parent {
		parent[i] = -2
	}
	for i := 0; i < m; i++ {
		if parent[i] != -2 {
			continue
		}
		parent[i] = -1
		stack := []int{i}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range adj[v] {
				if parent[w] == -2 {
					parent[w] = v
					stack = append(stack, w)
				}
			}
		}
	}
	t := &JoinTree{H: h, Parent: parent}
	if err := t.Verify(); err != nil {
		return nil, false
	}
	return t, true
}

// intersectCount returns |a ∩ b| for ascending id lists by a linear merge.
func intersectCount(a, b []int32) int {
	n := 0
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] < b[0]:
			a = a[1:]
		case a[0] > b[0]:
			b = b[1:]
		default:
			n++
			a, b = a[1:], b[1:]
		}
	}
	return n
}

// unionFind is a standard disjoint-set structure for Kruskal.
type unionFind struct {
	parent []int
	rank   []int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), rank: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

func (uf *unionFind) find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

// union merges the sets of a and b, reporting whether they were distinct.
func (uf *unionFind) union(a, b int) bool {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return false
	}
	if uf.rank[ra] < uf.rank[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	if uf.rank[ra] == uf.rank[rb] {
		uf.rank[ra]++
	}
	return true
}

// Verify checks the running-intersection property: for every node, the set
// of edges containing it must induce a connected subgraph of the tree.
//
// The check is a single sweep in O(total edge size): in a forest, the
// holders of a node n form k connected components exactly when k holders
// are "component tops" — holders whose parent is a root boundary or does
// not contain n (a connected induced subgraph of a tree has a unique
// minimal-depth element). So one pass grouping edges by parent, marking
// the parent's nodes and counting unmarked child nodes, counts every
// node's holder components; RIP holds iff every count is at most one.
// The seed implementation instead BFS-ed the holder set per node
// (O(nodes · edges) on star-like inputs), the quadratic hot spot this
// rewrite removes.
func (t *JoinTree) Verify() error {
	m := t.H.NumEdges()
	if len(t.Parent) != m {
		return fmt.Errorf("jointree: parent array size %d != %d edges", len(t.Parent), m)
	}
	// Structural pass: bounds, self-parents, root existence, and a CSR
	// child index (slice-of-slices headers are too heavy at 10⁶ edges).
	childCount := make([]int32, m)
	roots := 0
	for i, p := range t.Parent {
		if p == -1 {
			roots++
			continue
		}
		if p < 0 || p >= m || p == i {
			return fmt.Errorf("jointree: bad parent %d of edge %d", p, i)
		}
		childCount[p]++
	}
	if roots == 0 && m > 0 {
		return fmt.Errorf("jointree: no root")
	}
	chOff := make([]int32, m+1)
	for i := 0; i < m; i++ {
		chOff[i+1] = chOff[i] + childCount[i]
	}
	chData := make([]int32, m-roots)
	fill := make([]int32, m)
	copy(fill, chOff[:m])
	for i, p := range t.Parent {
		if p >= 0 {
			chData[fill[p]] = int32(i)
			fill[p]++
		}
	}
	// Forest check: every edge must be reachable from a root through parent
	// links (a parent cycle hiding beside a legitimate root would otherwise
	// slip through the per-node counting below).
	reached := 0
	stack := make([]int32, 0, m)
	for i, p := range t.Parent {
		if p == -1 {
			stack = append(stack, int32(i))
		}
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		reached++
		stack = append(stack, chData[chOff[v]:chOff[v+1]]...)
	}
	if reached != m {
		return fmt.Errorf("jointree: parent links contain a cycle (%d of %d edges reachable from roots)", reached, m)
	}

	// RIP sweep: count component tops per node.
	n := t.H.Universe()
	comps := make([]int32, n)
	mark := make([]int32, n)
	stamp := int32(0)
	for p := 0; p < m; p++ {
		cs := chData[chOff[p]:chOff[p+1]]
		if len(cs) == 0 {
			continue
		}
		stamp++
		for _, id := range t.H.Members(p) {
			mark[id] = stamp
		}
		for _, c := range cs {
			for _, id := range t.H.Members(int(c)) {
				if mark[id] != stamp {
					comps[id]++
				}
			}
		}
	}
	for i, p := range t.Parent {
		if p == -1 {
			for _, id := range t.H.Members(i) {
				comps[id]++
			}
		}
	}
	for id := 0; id < n; id++ {
		if comps[id] > 1 {
			return fmt.Errorf("jointree: node %s spans a disconnected tree region", t.H.NodeName(id))
		}
	}
	return nil
}

// Children returns the child lists of each edge.
func (t *JoinTree) Children() [][]int {
	n := make([]int, len(t.Parent)) // children per node
	for _, p := range t.Parent {
		if p >= 0 {
			n[p]++
		}
	}
	// Every list is cut, capped, from one backing array in node order.
	ch, back := make([][]int, len(t.Parent)), make([]int, 0, len(t.Parent))
	for v := range ch {
		ch[v], back = back[len(back):len(back):len(back)+n[v]], back[:len(back)+n[v]]
	}
	for i, p := range t.Parent {
		if p >= 0 {
			ch[p] = append(ch[p], i)
		}
	}
	return ch
}

// Roots returns the root edge indices.
func (t *JoinTree) Roots() []int {
	var out []int
	for i, p := range t.Parent {
		if p == -1 {
			out = append(out, i)
		}
	}
	return out
}

// PostOrder returns the edges so that every child precedes its parent.
func (t *JoinTree) PostOrder() []int {
	ch := t.Children()
	out := make([]int, 0, len(t.Parent))
	var rec func(v int)
	rec = func(v int) {
		for _, c := range ch[v] {
			rec(c)
		}
		out = append(out, v)
	}
	for _, r := range t.Roots() {
		rec(r)
	}
	return out
}

// SemijoinStep is one statement of a semijoin program: object Target is
// replaced by its semijoin with object Source (Target ⋉ Source).
type SemijoinStep struct {
	Target, Source int
}

// String renders the step as "R2 ⋉= R0".
func (s SemijoinStep) String() string {
	return fmt.Sprintf("R%d ⋉= R%d", s.Target, s.Source)
}

// FullReducer derives the classic two-pass semijoin program from the join
// tree: an upward pass (parents semijoined with children, children first)
// followed by a downward pass (children semijoined with parents). Applying
// it to any database instance makes every object globally consistent
// (Bernstein–Goodman: full reducers exist exactly for acyclic schemas).
func (t *JoinTree) FullReducer() []SemijoinStep {
	post := t.PostOrder()
	prog := make([]SemijoinStep, 0, 2*len(post)) // two steps per non-root
	for _, v := range post {
		if p := t.Parent[v]; p >= 0 {
			prog = append(prog, SemijoinStep{Target: p, Source: v})
		}
	}
	for i := len(post) - 1; i >= 0; i-- {
		v := post[i]
		if p := t.Parent[v]; p >= 0 {
			prog = append(prog, SemijoinStep{Target: v, Source: p})
		}
	}
	return prog
}

// String renders the tree as parent links.
func (t *JoinTree) String() string {
	out := ""
	for i, p := range t.Parent {
		if i > 0 {
			out += ", "
		}
		if p == -1 {
			out += fmt.Sprintf("R%d:root", i)
		} else {
			out += fmt.Sprintf("R%d->R%d", i, p)
		}
	}
	return out
}
