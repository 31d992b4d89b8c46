package hypergraph

// This file holds the linearized reduction machinery. The seed implementation
// compared all edge pairs (O(m²) subset tests — fine at paper scale, the
// first thing to melt at 10⁵+ edges). The rewrite works in two passes over
// the hypergraph's incidence index (Incidence: ascending members per edge,
// ascending edges per node):
//
//  1. Duplicate removal: edges are bucketed by a 64-bit content hash
//     (hashIDs over the sorted id sequence); within a bucket, id-sequence
//     equality picks the earliest occurrence as the surviving representative.
//  2. Containment: an edge e can only be contained in edges incident to ANY
//     of its nodes, so the candidates are the incidence list of e's
//     minimum-degree node. Each candidate pair is pre-filtered by the
//     single-word Bloom signature (signatureIDs — e ⊆ f requires
//     sig(e)&^sig(f)==0) and confirmed by a linear merge over the sorted ids.
//
// Total cost is O(universe + Σ|e|) for the index and pass 1 plus
// Σ_e d_min(e)·(|e|+|f|) for the candidates that survive the signature
// filter — linear on the generator families (chains, blocks, bounded-overlap
// randoms) whose minimum-degree incidence lists stay bounded, and never
// worse than the old all-pairs scan.

import "slices"

// reducePlan computes which edges survive reduction: keep[i] is false when
// edge i is a duplicate of an earlier edge or a proper subset of another
// edge. Semantics match the paper's reduction exactly: among duplicates the
// earliest survives; empty edges are removed whenever any nonempty edge
// exists (a hypergraph whose only content is the empty edge keeps its first
// copy).
func (h *Hypergraph) reducePlan() (keep []bool, removed bool) {
	m := h.NumEdges()
	keep = make([]bool, m)
	for i := range keep {
		keep[i] = true
	}
	if m <= 1 {
		return keep, false
	}

	x := h.Incidence()

	// Pass 1: duplicate removal via hash buckets. A bucket is its newest
	// representative; next chains it to the older ones of the same hash.
	anyNonempty := false
	bucket := make(map[uint64]int32, m)
	next := make([]int32, m)
	reps := make([]int32, 0, m)
	for i := 0; i < m; i++ {
		e := x.Members(i)
		anyNonempty = anyNonempty || len(e) > 0
		hsh := hashIDs(e)
		head, ok := bucket[hsh]
		if !ok {
			head = -1
		}
		j := head
		for j >= 0 && !slices.Equal(e, x.Members(int(j))) {
			j = next[j]
		}
		if j >= 0 {
			keep[i], removed = false, true
			continue
		}
		next[i], bucket[hsh] = head, int32(i)
		reps = append(reps, int32(i))
	}

	// Pass 2: subset detection through each edge's minimum-degree node.
	// Only representatives get a signature: a duplicate's zero signature
	// fails the filter, and its representative sits in the same list.
	sig := make([]uint64, m)
	for _, r := range reps {
		sig[r] = signatureIDs(x.Members(int(r)))
	}
	for _, r := range reps {
		e := x.Members(int(r))
		if len(e) == 0 {
			// ∅ is a proper subset of every nonempty edge.
			if anyNonempty {
				keep[r] = false
				removed = true
			}
			continue
		}
		occ := x.Edges(int(e[0]))
		for _, v := range e[1:] {
			if o := x.Edges(int(v)); len(o) < len(occ) {
				occ = o
			}
		}
		if len(occ) == 1 {
			continue // only r itself holds the node; nothing can contain r
		}
		se := sig[r]
		for _, f := range occ {
			// Distinct contents of equal size cannot nest, so only strictly
			// larger candidates matter.
			if f == r || len(x.Members(int(f))) <= len(e) || se&^sig[f] != 0 {
				continue
			}
			if sortedIDsSubset(e, x.Members(int(f))) {
				keep[r] = false
				removed = true
				break
			}
		}
	}
	return keep, removed
}

// hashIDs returns an FNV-1a hash of a sorted id sequence, byte by byte: the
// content identity that buckets edges in pass 1.
func hashIDs(ids []int32) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, id := range ids {
		x := uint64(uint32(id))
		for k := 0; k < 4; k++ {
			h ^= x & 0xff
			h *= prime64
			x >>= 8
		}
	}
	return h
}

// signatureIDs returns a 64-bit Bloom-style signature of an id set (one
// hashed bit per node): if e ⊆ f then signatureIDs(e) &^ signatureIDs(f) ==
// 0, so a single word test rejects most non-subset candidate pairs before
// the merge check runs.
func signatureIDs(ids []int32) uint64 {
	var sig uint64
	for _, id := range ids {
		sig |= 1 << ((uint64(id) * 0x9E3779B97F4A7C15) >> 58)
	}
	return sig
}

// sortedIDsSubset reports a ⊆ b for strictly increasing id slices by a
// linear merge.
func sortedIDsSubset(a, b []int32) bool {
	j := 0
	for _, v := range a {
		for j < len(b) && b[j] < v {
			j++
		}
		if j == len(b) || b[j] != v {
			return false
		}
		j++
	}
	return true
}

// IsReduced reports whether no edge is a subset of another (and there are no
// duplicate edges).
func (h *Hypergraph) IsReduced() bool {
	_, removed := h.reducePlan()
	return !removed
}

// Reduce returns the reduced version of h: edges that are subsets of other
// edges are removed (among duplicates, the earliest survives). Empty edges
// are removed whenever any other edge exists; a hypergraph whose only edge is
// empty keeps it. The node set is unchanged.
func (h *Hypergraph) Reduce() *Hypergraph {
	keep, removed := h.reducePlan()
	if !removed {
		return h.Clone()
	}
	var members []int32
	off := []int32{0}
	for i, k := range keep {
		if k {
			members = append(members, h.Members(i)...)
			off = append(off, int32(len(members)))
		}
	}
	return h.derive(h.nodeSet.Clone(), members, off)
}
