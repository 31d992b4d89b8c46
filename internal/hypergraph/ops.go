package hypergraph

import (
	"repro/internal/bitset"
)

// Components returns the connected components of h as node sets, in order of
// their smallest node id. A set of nodes is connected when every pair is
// linked by a sequence of pairwise-intersecting edges (Maier–Ullman §1);
// nodes in no edge form singleton components.
func (h *Hypergraph) Components() []bitset.Set {
	x := h.Incidence()
	reached := bitset.New(h.n)
	used := make([]bool, h.NumEdges())
	var comps []bitset.Set
	var stack []int32
	h.nodeSet.ForEach(func(start int) {
		if reached.Contains(start) {
			return
		}
		// Grow the component through every edge incident to a reached node.
		comp := bitset.Of(start)
		reached.Add(start)
		for stack = append(stack[:0], int32(start)); len(stack) > 0; {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, e := range x.Edges(int(v)) {
				if used[e] {
					continue
				}
				used[e] = true
				for _, u := range x.Members(int(e)) {
					if !reached.Contains(int(u)) {
						reached.Add(int(u))
						comp.Add(int(u))
						stack = append(stack, u)
					}
				}
			}
		}
		comps = append(comps, comp.And(h.nodeSet))
	})
	return comps
}

// ComponentCount returns the number of connected components.
func (h *Hypergraph) ComponentCount() int { return len(h.Components()) }

// IsConnected reports whether h has at most one component.
// The empty hypergraph is connected.
func (h *Hypergraph) IsConnected() bool { return h.ComponentCount() <= 1 }

// restrict returns the edges with each member kept exactly when s holding
// it equals in, dropping the edges left empty.
func (h *Hypergraph) restrict(s bitset.Set, in bool) (members, off []int32) {
	off = make([]int32, 1, h.NumEdges()+1)
	for i := range h.NumEdges() {
		for _, id := range h.Members(i) {
			if s.Contains(int(id)) == in {
				members = append(members, id)
			}
		}
		if int(off[len(off)-1]) < len(members) {
			off = append(off, int32(len(members)))
		}
	}
	return members, off
}

// NodeGenerated returns the node-generated set of edges for N: the family
// {E ∩ N | E ∈ edges} with proper subsets removed, viewed as a hypergraph
// with node set N (Maier–Ullman §1). Nodes of N in no edge become isolated
// nodes. Empty intersections are dropped by reduction whenever any nonempty
// partial edge exists; if h has edges but none meets N, the family is the
// single empty edge {∅}.
func (h *Hypergraph) NodeGenerated(n bitset.Set) *Hypergraph {
	n = n.And(h.nodeSet)
	members, off := h.restrict(n, true)
	if len(off) == 1 && h.NumEdges() > 0 {
		off = append(off, 0)
	}
	return h.derive(n, members, off).Reduce()
}

// RemoveNodes returns h with the nodes of x deleted from the node set and
// from every edge. Edges that become empty are dropped. The result is not
// reduced (the paper notes this; call Reduce if needed).
func (h *Hypergraph) RemoveNodes(x bitset.Set) *Hypergraph {
	members, off := h.restrict(x, false)
	return h.derive(h.nodeSet.AndNot(x), members, off)
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
	edges := h.Edges()
	for i, e := range edges {
		for _, f := range edges[i+1:] {
			if e.And(f).Equal(x) {
				return true
			}
		}
	}
	return false
}

// ArticulationSets returns the distinct articulation sets of h, ordered by
// first discovery over edge pairs (i < j).
func (h *Hypergraph) ArticulationSets() []bitset.Set {
	var out []bitset.Set
	h.articulationSets(func(x bitset.Set) bool {
		out = append(out, x)
		return true
	})
	return out
}

// HasArticulationSet reports whether h has at least one articulation set.
func (h *Hypergraph) HasArticulationSet() bool {
	found := false
	h.articulationSets(func(bitset.Set) bool {
		found = true
		return false
	})
	return found
}

// articulationSets calls yield on each distinct articulation set, in order
// of first discovery over edge pairs (i < j), until yield returns false.
func (h *Hypergraph) articulationSets(yield func(bitset.Set) bool) {
	base := h.ComponentCount()
	seen := map[string]bool{}
	edges := h.Edges()
	for i, e := range edges {
		for _, f := range edges[i+1:] {
			x := e.And(f)
			k := x.Key()
			if seen[k] {
				continue
			}
			seen[k] = true
			if h.RemoveNodes(x).ComponentCount() > base && !yield(x) {
				return
			}
		}
	}
}

// covered returns the union of all edges, over the whole universe.
func (h *Hypergraph) covered() bitset.Set {
	u := bitset.New(h.n)
	for _, id := range h.members {
		u.Add(int(id))
	}
	return u
}

// isolated returns the nodes of h in no edge.
func (h *Hypergraph) isolated() bitset.Set { return h.nodeSet.AndNot(h.covered()) }

// CoveredNodes returns the union of all edges.
func (h *Hypergraph) CoveredNodes() bitset.Set { return h.covered().And(h.nodeSet) }

// EdgesTouching returns the indices of edges intersecting s.
func (h *Hypergraph) EdgesTouching(s bitset.Set) []int {
	var out []int
	for i := range h.NumEdges() {
		if h.countIn(i, s) > 0 {
			out = append(out, i)
		}
	}
	return out
}

// EdgeContaining returns the index of the first edge that contains s as a
// subset, or -1 if s is not a partial edge.
func (h *Hypergraph) EdgeContaining(s bitset.Set) int {
	size := s.Len()
	for i := range h.NumEdges() {
		if h.countIn(i, s) == size {
			return i
		}
	}
	return -1
}
