package hypergraph

import (
	"repro/internal/bitset"
)

// Components returns the connected components of h as node sets, in order of
// their smallest node id. A set of nodes is connected when every pair is
// linked by a sequence of pairwise-intersecting edges (Maier–Ullman §1);
// nodes in no edge form singleton components.
func (h *Hypergraph) Components() []bitset.Set {
	var comps []bitset.Set
	unseen := h.nodeSet.Clone()
	for !unseen.IsEmpty() {
		start := unseen.Min()
		comp := bitset.Of(start)
		// Grow comp by absorbing every edge that touches it.
		used := make([]bool, len(h.edges))
		for changed := true; changed; {
			changed = false
			for i, e := range h.edges {
				if used[i] || e.IsEmpty() {
					continue
				}
				if e.IntersectsSet(comp) {
					used[i] = true
					e.OrInto(&comp)
					changed = true
				}
			}
		}
		comp = comp.And(h.nodeSet)
		unseen.InPlaceAndNot(comp)
		comps = append(comps, comp)
	}
	return comps
}

// ComponentCount returns the number of connected components.
func (h *Hypergraph) ComponentCount() int { return len(h.Components()) }

// IsConnected reports whether h has at most one component.
// The empty hypergraph is connected.
func (h *Hypergraph) IsConnected() bool { return h.ComponentCount() <= 1 }

// NodeGenerated returns the node-generated set of edges for N: the family
// {E ∩ N | E ∈ edges} with proper subsets removed, viewed as a hypergraph
// with node set N (Maier–Ullman §1). Nodes of N in no edge become isolated
// nodes. Empty intersections are dropped by reduction whenever any nonempty
// partial edge exists; if h has edges but none meets N, the family is the
// single empty edge {∅}.
func (h *Hypergraph) NodeGenerated(n bitset.Set) *Hypergraph {
	n = n.And(h.nodeSet)
	var edges []Edge
	for _, e := range h.edges {
		p := e.AndSet(n)
		if !p.IsEmpty() {
			edges = append(edges, p)
		}
	}
	if len(edges) == 0 && len(h.edges) > 0 {
		edges = append(edges, Edge{})
	}
	return h.derive(n, edges).Reduce()
}

// RemoveNodes returns h with the nodes of x deleted from the node set and
// from every edge. Edges that become empty are dropped. The result is not
// reduced (the paper notes this; call Reduce if needed).
func (h *Hypergraph) RemoveNodes(x bitset.Set) *Hypergraph {
	nodeSet := h.nodeSet.AndNot(x)
	var edges []Edge
	for _, e := range h.edges {
		p := e.AndNotSet(x)
		if !p.IsEmpty() {
			edges = append(edges, p)
		}
	}
	return h.derive(nodeSet, edges)
}

// IsArticulationSet reports whether x is an articulation set of h: x must be
// the intersection of two distinct edges, and removing x must increase the
// number of connected components (Maier–Ullman §1).
func (h *Hypergraph) IsArticulationSet(x bitset.Set) bool {
	if !h.isEdgeIntersection(x) {
		return false
	}
	return h.RemoveNodes(x).ComponentCount() > h.ComponentCount()
}

func (h *Hypergraph) isEdgeIntersection(x bitset.Set) bool {
	for i, e := range h.edges {
		es := e.Set() // materialize sparse edges once per outer edge, not per pair
		for j := i + 1; j < len(h.edges); j++ {
			if es.And(h.edges[j].Set()).Equal(x) {
				return true
			}
		}
	}
	return false
}

// ArticulationSets returns the distinct articulation sets of h, ordered by
// first discovery over edge pairs (i < j).
func (h *Hypergraph) ArticulationSets() []bitset.Set {
	base := h.ComponentCount()
	seen := map[string]bool{}
	var out []bitset.Set
	for i, e := range h.edges {
		es := e.Set()
		for j := i + 1; j < len(h.edges); j++ {
			x := es.And(h.edges[j].Set())
			k := x.Key()
			if seen[k] {
				continue
			}
			seen[k] = true
			if h.RemoveNodes(x).ComponentCount() > base {
				out = append(out, x)
			}
		}
	}
	return out
}

// HasArticulationSet reports whether h has at least one articulation set.
func (h *Hypergraph) HasArticulationSet() bool {
	base := h.ComponentCount()
	seen := map[string]bool{}
	for i, e := range h.edges {
		es := e.Set()
		for j := i + 1; j < len(h.edges); j++ {
			x := es.And(h.edges[j].Set())
			k := x.Key()
			if seen[k] {
				continue
			}
			seen[k] = true
			if h.RemoveNodes(x).ComponentCount() > base {
				return true
			}
		}
	}
	return false
}

// CoveredNodes returns the union of all edges.
func (h *Hypergraph) CoveredNodes() bitset.Set {
	u := bitset.New(h.n)
	for _, e := range h.edges {
		e.OrInto(&u)
	}
	return u.And(h.nodeSet)
}

// EdgesTouching returns the indices of edges intersecting s.
func (h *Hypergraph) EdgesTouching(s bitset.Set) []int {
	var out []int
	for i, e := range h.edges {
		if e.IntersectsSet(s) {
			out = append(out, i)
		}
	}
	return out
}

// EdgeContaining returns the index of the first edge that contains s as a
// subset, or -1 if s is not a partial edge.
func (h *Hypergraph) EdgeContaining(s bitset.Set) int {
	for i, e := range h.edges {
		if e.ContainsSet(s) {
			return i
		}
	}
	return -1
}
