package core

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/bitset"
	"repro/internal/hypergraph"
)

// MinimalConnectors enumerates the minimal edge subsets of h that connect
// the node set x: subsets S whose union covers x with all of x inside one
// connected component of S, minimal under inclusion.
//
// This makes the paper's closing footnote executable: even in an acyclic
// hypergraph, *subsets* of the canonical connection can serve to connect the
// nodes in question (Figure 5 has two minimal connectors between A and F),
// yet CC(X) is the unique canonical one — the whole point of §5–§6.
// The search is exponential and capped at 20 edges.
func MinimalConnectors(h *hypergraph.Hypergraph, x bitset.Set) ([][]int, error) {
	m := h.NumEdges()
	const maxEdges = 20
	if m > maxEdges {
		return nil, fmt.Errorf("core: connector enumeration capped at %d edges, have %d", maxEdges, m)
	}
	if x.IsEmpty() {
		return nil, fmt.Errorf("core: empty node set has no connectors")
	}
	if !x.IsSubset(h.CoveredNodes()) {
		return nil, fmt.Errorf("core: nodes %v not covered by any edge", h.NodeNames(x.AndNot(h.CoveredNodes())))
	}
	all := h.Edges()
	connects := func(mask int) bool {
		var edges []bitset.Set
		var nodes bitset.Set
		for b := 0; b < m; b++ {
			if mask&(1<<b) != 0 {
				edges = append(edges, all[b])
				nodes.InPlaceOr(all[b])
			}
		}
		if !x.IsSubset(nodes) {
			return false
		}
		g := h.Derive(nodes, edges)
		for _, comp := range g.Components() {
			if x.IsSubset(comp) {
				return true
			}
		}
		return false
	}
	// Collect connecting masks grouped by popcount, then filter to minimal.
	var connecting []int
	for mask := 1; mask < 1<<m; mask++ {
		if connects(mask) {
			connecting = append(connecting, mask)
		}
	}
	var minimal []int
	for _, a := range connecting {
		isMin := true
		for _, b := range connecting {
			if b != a && a&b == b { // b ⊂ a
				isMin = false
				break
			}
		}
		if isMin {
			minimal = append(minimal, a)
		}
	}
	sort.Slice(minimal, func(i, j int) bool {
		if bits.OnesCount(uint(minimal[i])) != bits.OnesCount(uint(minimal[j])) {
			return bits.OnesCount(uint(minimal[i])) < bits.OnesCount(uint(minimal[j]))
		}
		return minimal[i] < minimal[j]
	})
	out := make([][]int, 0, len(minimal))
	for _, mask := range minimal {
		var ids []int
		for b := 0; b < m; b++ {
			if mask&(1<<b) != 0 {
				ids = append(ids, b)
			}
		}
		out = append(out, ids)
	}
	return out, nil
}

// ConnectorsWithinCC reports how the minimal connectors relate to the
// canonical connection: the number of minimal connectors, and whether each
// one's edges are partial-edge-covered by CC(x) (every connector edge
// restricted to CC's nodes appears inside some CC partial edge).
func ConnectorsWithinCC(h *hypergraph.Hypergraph, x bitset.Set) (count int, allInsideCC bool, err error) {
	conns, err := MinimalConnectors(h, x)
	if err != nil {
		return 0, false, err
	}
	cc := CC(h, x)
	ccNodes := cc.CoveredNodes()
	allInsideCC = true
	edges := h.Edges()
	for _, conn := range conns {
		for _, e := range conn {
			if !cc.IsPartialEdge(edges[e].And(ccNodes)) {
				allInsideCC = false
			}
		}
	}
	return len(conns), allInsideCC, nil
}
