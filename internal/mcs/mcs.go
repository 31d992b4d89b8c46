// Package mcs implements the Tarjan–Yannakakis maximum-cardinality-search
// acyclicity engine: a true linear-time α-acyclicity test that also emits a
// join tree, as the fast alternative to the Graham (GYO) reduction used
// elsewhere in this repository.
//
// The algorithm is the edge-wise restricted maximum cardinality search of
// Tarjan & Yannakakis ("Simple linear-time algorithms to test chordality of
// graphs, test acyclicity of hypergraphs, and selectively reduce acyclic
// hypergraphs", SIAM J. Comput. 13(3), 1984), in the formulation surveyed in
// Brault-Baron, "Hypergraph Acyclicity Revisited" (2014):
//
//	Repeatedly select an edge E maximizing |E ∩ U|, where U is the union of
//	the edges selected so far, and check that E ∩ U is contained in a single
//	previously selected edge (the running-intersection property, RIP).
//
// The selection order is maintained with a bucket queue over the counts
// |E ∩ U|, so the whole search runs in O(total edge size) plus the cost of
// the containment checks. Tarjan–Yannakakis prove the greedy order is
// complete: if the hypergraph is α-acyclic, every maximum-cardinality order
// satisfies RIP, so a single failed containment check is a sound rejection.
// Acceptance yields the RIP ordering itself, whose parent links form a join
// tree; rejection yields a Certificate recording the spread intersection,
// cross-checkable against the constructive Theorem 6.1 witness
// (core.IndependentPathWitness) — a cyclic hypergraph always admits an
// independent path, an acyclic one never does.
//
// The containment check charges O(deg(w)·|E ∩ U|) in the worst case (w the
// most recently numbered vertex of E ∩ U), but the first candidate — the
// pivot edge that numbered w — almost always hits, so the engine is linear
// on the workloads gen produces; degenerate overlap patterns add a small
// incidence-degree factor.
package mcs

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/hypergraph"
)

// Result is the outcome of one maximum cardinality search.
type Result struct {
	// H is the input hypergraph.
	H *hypergraph.Hypergraph
	// Acyclic reports the α-acyclicity verdict.
	Acyclic bool
	// EdgeOrder lists edge indices in selection (pivot) order. On rejection
	// it holds the prefix selected before the violation.
	EdgeOrder []int
	// VertexOrder lists node ids in numbering order (each vertex is numbered
	// when its first selected edge is).
	VertexOrder []int
	// Parent is the join-tree parent of each edge (-1 for roots): edge i's
	// intersection with all earlier-selected edges is contained in
	// Parent[i]. Nil when Acyclic is false.
	Parent []int
	// Cert is the rejection certificate; nil when Acyclic is true.
	Cert *Certificate
}

// Certificate records why the search rejected: when edge Edge was selected,
// its already-numbered part Spread was not contained in any single
// previously selected edge, which in a maximum-cardinality order is
// impossible for α-acyclic hypergraphs. Validate re-verifies the local facts
// against the hypergraph; the global verdict is cross-checked differentially
// against Graham reduction and the Theorem 6.1 independent-path witness.
type Certificate struct {
	// Edge is the index of the rejected edge.
	Edge int
	// Spread holds the node ids of the rejected edge's numbered part
	// (its intersection with the union of the selected edges).
	Spread []int
	// Witness is the most recently numbered node of Spread; every selected
	// edge that could contain Spread must contain it.
	Witness int
	// Candidates lists the selected edges containing Witness, none of which
	// contains all of Spread.
	Candidates []int
}

// Validate checks the certificate's local claims against h: Spread has at
// least two nodes, lies inside edge Edge, contains Witness, and no candidate
// edge contains all of Spread. It does not re-run the search.
func (c *Certificate) Validate(h *hypergraph.Hypergraph) error {
	if c.Edge < 0 || c.Edge >= h.NumEdges() {
		return fmt.Errorf("mcs: certificate edge %d out of range", c.Edge)
	}
	if len(c.Spread) < 2 {
		return fmt.Errorf("mcs: certificate spread %v too small to witness a violation", c.Spread)
	}
	e := h.Members(c.Edge)
	hasWitness := false
	for _, id := range c.Spread {
		if _, ok := slices.BinarySearch(e, int32(id)); !ok {
			return fmt.Errorf("mcs: spread node %d not in edge %d", id, c.Edge)
		}
		if id == c.Witness {
			hasWitness = true
		}
	}
	if !hasWitness {
		return fmt.Errorf("mcs: witness node %d not in spread", c.Witness)
	}
	for _, g := range c.Candidates {
		if g < 0 || g >= h.NumEdges() || g == c.Edge {
			return fmt.Errorf("mcs: certificate candidate %d invalid", g)
		}
		if containsAll(h.Members(g), slices.Sorted(slices.Values(c.Spread))) {
			return fmt.Errorf("mcs: candidate edge %d contains the whole spread", g)
		}
	}
	return nil
}

// Render renders the certificate in terms of h's node names.
func (c *Certificate) Render(h *hypergraph.Hypergraph) string {
	names := make([]string, len(c.Spread))
	for i, id := range c.Spread {
		names[i] = h.NodeName(id)
	}
	return fmt.Sprintf("edge #%d meets the selected region in %v, which no single selected edge contains", c.Edge, names)
}

// IsAcyclic reports α-acyclicity of h by maximum cardinality search in
// O(total edge size). It agrees with gyo.IsAcyclic on every input (the
// differential suite enforces this).
func IsAcyclic(h *hypergraph.Hypergraph) bool {
	return Run(h).Acyclic
}

// Run performs the full search: verdict, edge and vertex orders, join-tree
// parents on acceptance, certificate on rejection. It is RunCtx without
// cancellation.
func Run(h *hypergraph.Hypergraph) *Result {
	r, err := RunCtx(context.Background(), h)
	if err != nil {
		// Background contexts are never cancelled; RunCtx has no other
		// error path.
		panic(err)
	}
	return r
}

// cancelStride is how much traversal work (edge selections plus incidence
// updates, roughly proportional to visited total edge size) runs between
// context checks: coarse enough that the check is free, fine enough that a
// single 10⁶-edge traversal stops within ~4096 work units of cancellation
// instead of running to completion.
const cancelStride = 4096

// RunCtx is Run with coarse-grained cooperative cancellation: the search
// polls ctx every ~cancelStride units of work and returns (nil, ctx.Err())
// when cancelled, discarding partial state. The check granularity is the
// edge-selection loop, so the worst-case latency is one stride plus the
// processing of a single edge.
func RunCtx(ctx context.Context, h *hypergraph.Hypergraph) (*Result, error) {
	// Fail fast on an already-dead context: callers that run many searches
	// in a loop (workspace settling) rely on every search after the
	// cancellation aborting at once, including searches too small to ever
	// reach a stride boundary.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m := h.NumEdges()
	res := &Result{H: h, Acyclic: true}
	if m == 0 {
		res.Parent = []int{}
		return res, nil
	}

	// Per-node state is indexed by the hypergraph's id universe, and sizes,
	// members and node -> edge incidences come from the hypergraph's one CSR
	// index, so memory stays O(universe + Σ|e|).
	n := h.Universe()
	x := h.Incidence()

	var (
		numbered = make([]bool, n)  // vertex already numbered
		timeOf   = make([]int32, n) // numbering sequence position
		pivotOf  = make([]int32, n)
		selected = make([]bool, m)
		count    = make([]int32, m) // |edge ∩ U| for unselected edges
		parent   = make([]int, m)
	)

	// Bucket queue over count values with lazy deletion: an edge is pushed
	// whenever its count changes; stale entries are skipped on pop. Pushes
	// total O(Σ|e|), and the max pointer only descends between pushes, so the
	// queue adds O(Σ|e| + m) work overall.
	maxSize := 0
	for e := 0; e < m; e++ {
		maxSize = max(maxSize, len(x.Members(e)))
	}
	buckets := make([][]int32, maxSize+1)
	buckets[0] = make([]int32, 0, m)
	for i := m - 1; i >= 0; i-- {
		buckets[0] = append(buckets[0], int32(i))
	}
	curMax := 0

	pop := func() int {
		for {
			for curMax >= 0 && len(buckets[curMax]) == 0 {
				curMax--
			}
			b := buckets[curMax]
			e := int(b[len(b)-1])
			buckets[curMax] = b[:len(b)-1]
			if !selected[e] && int(count[e]) == curMax {
				return e
			}
		}
	}

	clock := int32(0)
	spread := make([]int, 0, maxSize)
	work := 0
	for range m {
		if work >= cancelStride {
			work = 0
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		e := pop()

		// Collect the numbered part S = e ∩ U and find its most recently
		// numbered vertex w. Any selected edge containing S contains w.
		spread = spread[:0]
		w := -1
		for _, id := range x.Members(e) {
			if numbered[id] {
				spread = append(spread, int(id))
				if w < 0 || timeOf[id] > timeOf[w] {
					w = int(id)
				}
			}
		}

		switch {
		case len(spread) == 0:
			parent[e] = -1 // first edge of a connected component
		case len(spread) == 1:
			parent[e] = int(pivotOf[w])
		default:
			p := findParent(&x, e, spread, int(pivotOf[w]), x.Edges(w), selected)
			if p < 0 {
				var cands []int
				for _, g := range x.Edges(w) {
					if selected[g] {
						cands = append(cands, int(g))
					}
				}
				res.Acyclic = false
				res.Parent = nil
				res.Cert = &Certificate{Edge: e, Spread: append([]int(nil), spread...), Witness: w, Candidates: cands}
				return res, nil
			}
			parent[e] = p
		}

		selected[e] = true
		res.EdgeOrder = append(res.EdgeOrder, e)
		work += len(spread) + 1
		for _, id := range x.Members(e) {
			if numbered[id] {
				continue
			}
			numbered[id] = true
			timeOf[id] = clock
			clock++
			pivotOf[id] = int32(e)
			res.VertexOrder = append(res.VertexOrder, int(id))
			inc := x.Edges(int(id))
			work += len(inc)
			for _, f := range inc {
				if !selected[f] {
					count[f]++
					if int(count[f]) > curMax {
						curMax = int(count[f])
					}
					buckets[count[f]] = append(buckets[count[f]], f)
				}
			}
		}
	}
	res.Parent = parent
	return res, nil
}

// findParent returns a selected edge containing all of spread, or -1. The
// pivot edge of w (the edge that numbered the most recent spread vertex) is
// tried first as the near-certain hit; the fallback scans the selected edges
// incident to w, which is exhaustive because any containing edge holds w.
func findParent(x *hypergraph.Incidence, e int, spread []int, wPivot int, incident []int32, selected []bool) int {
	if containsAll(x.Members(wPivot), spread) {
		return wPivot
	}
	for _, g := range incident {
		gi := int(g)
		if gi == e || gi == wPivot || !selected[gi] {
			continue
		}
		if containsAll(x.Members(gi), spread) {
			return gi
		}
	}
	return -1
}

// containsAll reports whether the ascending member list g holds every id of
// the ascending spread. Each id is looked for past the previous one by
// galloping to a window that must hold it and bisecting the window, so a
// spread as dense as g costs a merge and a sparse one a binary search per
// id.
func containsAll(g []int32, spread []int) bool {
	for _, id := range spread {
		v := int32(id)
		lo, hi := 0, 1
		for hi < len(g) && g[hi-1] < v {
			lo, hi = hi, 2*hi
		}
		hi = min(hi, len(g))
		for lo < hi {
			if mid := int(uint(lo+hi) >> 1); g[mid] < v {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo == len(g) || g[lo] != v {
			return false
		}
		g = g[lo+1:]
	}
	return true
}
