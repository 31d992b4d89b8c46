package hypergraph

import (
	"repro/internal/bitset"
)

// Representation policy. A dense edge charges ⌈universe/64⌉ 8-byte words no
// matter how small it is; a sparse edge charges 4 bytes per element. Below
// smallUniverse the dense form is at most 16 words, word-parallel operations
// dominate, and everything stays dense (this keeps the whole paper-scale
// surface — tableau, core, db, acyclic — on the fast bit-twiddling path).
// Above it, an edge goes sparse unless it covers at least 1/densityRatio of
// the universe, the memory parity point (universe/8 bytes dense vs 4·|e|
// bytes sparse at |e| = universe/32). See doc.go "Representation layer".
const (
	smallUniverse = 1024
	densityRatio  = 32
)

func chooseSparse(size, universe int) bool {
	return universe > smallUniverse && size*densityRatio < universe
}

// Edge is the adaptive node-set representation backing hypergraph edges:
// dense bitset.Set for dense edges over small universes, sorted-id
// bitset.Sparse for the rest, chosen per edge at construction (chooseSparse).
// The operation surface mirrors bitset.Set, so the algorithm packages (mcs,
// gyo, jointree, core, engine) compile against one API regardless of which
// representation an edge landed on; mixed-representation operands are
// handled by every binary operation.
//
// Edge values are immutable: derivations return new edges and views returned
// by accessors must not be mutated. The zero value is the empty edge.
type Edge struct {
	sparse bool
	d      bitset.Set
	s      bitset.Sparse
}

// edgeFromSortedIDs builds an edge from a strictly increasing id slice,
// choosing the representation by density. The sparse branch adopts ids
// without copying.
func edgeFromSortedIDs(ids []int32, universe int) Edge {
	if chooseSparse(len(ids), universe) {
		return Edge{sparse: true, s: bitset.SparseFromSorted(ids)}
	}
	d := bitset.New(universe)
	for _, id := range ids {
		d.Add(int(id))
	}
	return Edge{d: d}
}

// edgeOfSet builds an edge from a dense set, choosing the representation by
// density. The dense branch clones, so the caller keeps ownership of s.
func edgeOfSet(s bitset.Set, universe int) Edge {
	if chooseSparse(s.Len(), universe) {
		return Edge{sparse: true, s: bitset.SparseFromSet(s)}
	}
	return Edge{d: s.Clone()}
}

// IsSparse reports which representation the edge landed on (diagnostics and
// representation tests; algorithms never need to ask).
func (e Edge) IsSparse() bool { return e.sparse }

// Len returns the number of nodes in the edge.
func (e Edge) Len() int {
	if e.sparse {
		return e.s.Len()
	}
	return e.d.Len()
}

// IsEmpty reports whether the edge has no nodes.
func (e Edge) IsEmpty() bool {
	if e.sparse {
		return e.s.IsEmpty()
	}
	return e.d.IsEmpty()
}

// Contains reports whether node id is in the edge.
func (e Edge) Contains(id int) bool {
	if e.sparse {
		return e.s.Contains(id)
	}
	return e.d.Contains(id)
}

// Min returns the smallest node id, or -1 for an empty edge.
func (e Edge) Min() int {
	if e.sparse {
		return e.s.Min()
	}
	return e.d.Min()
}

// ForEach calls f on every node id in ascending order.
func (e Edge) ForEach(f func(id int)) {
	if e.sparse {
		e.s.ForEach(f)
	} else {
		e.d.ForEach(f)
	}
}

// ForEachUntil calls f on every node id in ascending order until f returns
// false.
func (e Edge) ForEachUntil(f func(id int) bool) {
	if e.sparse {
		e.s.ForEachUntil(f)
	} else {
		e.d.ForEachUntil(f)
	}
}

// Elems returns the node ids in ascending order.
func (e Edge) Elems() []int {
	if e.sparse {
		return e.s.Elems()
	}
	return e.d.Elems()
}

// Set returns the edge as a dense bitset. For dense edges this is the stored
// set (shared — callers must not mutate it, the same contract as
// Hypergraph.Edge); sparse edges are materialized, which charges the full
// ⌈universe/64⌉-word cost the sparse representation exists to avoid — hot
// paths should stay on the Edge operations.
func (e Edge) Set() bitset.Set {
	if e.sparse {
		return e.s.ToSet()
	}
	return e.d
}

// Dense returns an independent dense copy of the edge, for callers that need
// a mutable working set (e.g. the gyo reduction state).
func (e Edge) Dense() bitset.Set {
	if e.sparse {
		return e.s.ToSet()
	}
	return e.d.Clone()
}

// Sparse returns the edge in sorted-id form (shared when already sparse).
func (e Edge) Sparse() bitset.Sparse {
	if e.sparse {
		return e.s
	}
	return bitset.SparseFromSet(e.d)
}

// Equal reports whether two edges contain the same nodes, across
// representations.
func (e Edge) Equal(t Edge) bool {
	switch {
	case !e.sparse && !t.sparse:
		return e.d.Equal(t.d)
	case e.sparse && t.sparse:
		return e.s.Equal(t.s)
	default:
		if e.Len() != t.Len() {
			return false
		}
		return e.IsSubset(t)
	}
}

// IsSubset reports whether every node of e is in t, across representations.
func (e Edge) IsSubset(t Edge) bool {
	switch {
	case !e.sparse && !t.sparse:
		return e.d.IsSubset(t.d)
	case e.sparse && t.sparse:
		return e.s.IsSubset(t.s)
	default:
		if e.Len() > t.Len() {
			return false
		}
		ok := true
		e.ForEachUntil(func(id int) bool {
			ok = t.Contains(id)
			return ok
		})
		return ok
	}
}

// Intersects reports whether e and t share at least one node.
func (e Edge) Intersects(t Edge) bool {
	switch {
	case !e.sparse && !t.sparse:
		return e.d.Intersects(t.d)
	case e.sparse && t.sparse:
		return e.s.Intersects(t.s)
	default:
		small, big := e, t
		if small.Len() > big.Len() {
			small, big = big, small
		}
		found := false
		small.ForEachUntil(func(id int) bool {
			found = big.Contains(id)
			return !found
		})
		return found
	}
}

// IntersectCount returns |e ∩ t| without materializing the intersection —
// the kernel behind the maximum-weight spanning-tree join-tree construction.
func (e Edge) IntersectCount(t Edge) int {
	switch {
	case !e.sparse && !t.sparse:
		return e.d.IntersectCount(t.d)
	case e.sparse && t.sparse:
		return e.s.IntersectCount(t.s)
	default:
		small, big := e, t
		if small.Len() > big.Len() {
			small, big = big, small
		}
		n := 0
		small.ForEach(func(id int) {
			if big.Contains(id) {
				n++
			}
		})
		return n
	}
}

// ContainsSet reports whether the dense set x is a subset of the edge.
func (e Edge) ContainsSet(x bitset.Set) bool {
	if !e.sparse {
		return x.IsSubset(e.d)
	}
	ok := true
	x.ForEachUntil(func(id int) bool {
		ok = e.s.Contains(id)
		return ok
	})
	return ok
}

// IntersectsSet reports whether the edge shares a node with the dense set x.
func (e Edge) IntersectsSet(x bitset.Set) bool {
	if !e.sparse {
		return e.d.Intersects(x)
	}
	found := false
	e.s.ForEachUntil(func(id int) bool {
		found = x.Contains(id)
		return !found
	})
	return found
}

// EqualSet reports whether the edge contains exactly the nodes of x.
func (e Edge) EqualSet(x bitset.Set) bool {
	if !e.sparse {
		return e.d.Equal(x)
	}
	return e.s.Len() == x.Len() && e.ContainsSet(x)
}

// AndSet returns e ∩ x as an edge in e's representation (an edge only ever
// shrinks under derivation, so sparse stays memory-proportional and dense
// stays word-parallel).
func (e Edge) AndSet(x bitset.Set) Edge {
	if !e.sparse {
		return Edge{d: e.d.And(x)}
	}
	ids := make([]int32, 0, e.s.Len())
	e.s.ForEach(func(id int) {
		if x.Contains(id) {
			ids = append(ids, int32(id))
		}
	})
	return Edge{sparse: true, s: bitset.SparseFromSorted(ids)}
}

// AndNotSet returns e \ x as an edge in e's representation.
func (e Edge) AndNotSet(x bitset.Set) Edge {
	if !e.sparse {
		return Edge{d: e.d.AndNot(x)}
	}
	ids := make([]int32, 0, e.s.Len())
	e.s.ForEach(func(id int) {
		if !x.Contains(id) {
			ids = append(ids, int32(id))
		}
	})
	return Edge{sparse: true, s: bitset.SparseFromSorted(ids)}
}

// OrInto adds the edge's nodes to the dense accumulator u.
func (e Edge) OrInto(u *bitset.Set) {
	if !e.sparse {
		u.InPlaceOr(e.d)
		return
	}
	e.s.ForEach(func(id int) { u.Add(id) })
}

// String renders the edge's node ids as "{0 3 7}".
func (e Edge) String() string {
	if e.sparse {
		return e.s.String()
	}
	return e.d.String()
}
