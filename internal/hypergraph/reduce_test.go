package hypergraph

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitset"
)

// naiveReducePlan is the seed's all-pairs reduction, kept as the reference
// the linearized reducePlan is pinned against: keep[i] is false when edge i
// duplicates an earlier edge or is a proper subset of another edge.
func naiveReducePlan(edges []bitset.Set) []bool {
	keep := make([]bool, len(edges))
	for i := range keep {
		keep[i] = true
	}
	for i, e := range edges {
		for j, f := range edges {
			if i == j {
				continue
			}
			if e.Equal(f) {
				if i > j {
					keep[i] = false
				}
			} else if e.IsSubset(f) {
				keep[i] = false
			}
		}
	}
	return keep
}

func plansEqual(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// randomSubsetHeavyGraph draws a hypergraph rigged to exercise reduction:
// base edges plus random sub-edges, duplicates, and the occasional empty
// edge, over universes of tens of ids and of thousands.
func randomSubsetHeavyGraph(rng *rand.Rand) *Hypergraph {
	universe := 20 + rng.Intn(30)
	if rng.Intn(3) == 0 {
		universe = 1034 + rng.Intn(3000)
	}
	m := 1 + rng.Intn(25)
	var edges [][]int32
	for i := 0; i < m; i++ {
		switch rng.Intn(10) {
		case 0: // empty edge
			edges = append(edges, nil)
		case 1, 2: // duplicate or sub-edge of an earlier edge
			if len(edges) > 0 && len(edges[rng.Intn(len(edges))]) > 0 {
				src := edges[rng.Intn(len(edges))]
				k := 1 + rng.Intn(len(src)+1)
				if k > len(src) {
					k = len(src)
				}
				sub := make([]int32, 0, k)
				for _, v := range rng.Perm(len(src))[:k] {
					sub = append(sub, src[v])
				}
				edges = append(edges, sub)
				continue
			}
			fallthrough
		default: // fresh random edge
			a := 1 + rng.Intn(6)
			e := make([]int32, 0, a)
			for len(e) < a {
				e = append(e, int32(rng.Intn(universe)))
			}
			edges = append(edges, e)
		}
	}
	return FromIDs(universe, edges)
}

// TestReducePlanMatchesNaive pins the hash-bucketed, signature-filtered
// reduction against the all-pairs reference on randomized subset-heavy
// instances.
func TestReducePlanMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 1500; trial++ {
		h := randomSubsetHeavyGraph(rng)
		got, removed := h.reducePlan()
		want := naiveReducePlan(h.Edges())
		if !plansEqual(got, want) {
			t.Fatalf("trial %d: plan mismatch\n h=%v\n got=%v\n want=%v", trial, h, got, want)
		}
		wantRemoved := false
		for _, k := range want {
			if !k {
				wantRemoved = true
			}
		}
		if removed != wantRemoved {
			t.Fatalf("trial %d: removed=%v want %v", trial, removed, wantRemoved)
		}
		r := h.Reduce()
		if !r.IsReduced() {
			t.Fatalf("trial %d: Reduce result not reduced: %v", trial, r)
		}
		if !r.Reduce().EqualEdges(r) {
			t.Fatalf("trial %d: Reduce not idempotent", trial)
		}
		if h.IsReduced() != !wantRemoved {
			t.Fatalf("trial %d: IsReduced=%v want %v", trial, h.IsReduced(), !wantRemoved)
		}
	}
}

// TestReduceEmptyEdgeSemantics pins the paper's corner cases: a lone empty
// edge survives; empty edges vanish beside any other edge; among duplicates
// the earliest index survives.
func TestReduceEmptyEdgeSemantics(t *testing.T) {
	lone := FromIDs(0, [][]int32{nil})
	if r := lone.Reduce(); r.NumEdges() != 1 || len(r.Members(0)) != 0 {
		t.Fatalf("lone empty edge: %v", r)
	}
	twoEmpty := FromIDs(0, [][]int32{nil, nil})
	if r := twoEmpty.Reduce(); r.NumEdges() != 1 {
		t.Fatalf("duplicate empty edges: %v", r)
	}
	mixed := FromIDs(2, [][]int32{nil, {0, 1}, nil})
	if r := mixed.Reduce(); r.NumEdges() != 1 || len(r.Members(0)) != 2 {
		t.Fatalf("empty beside nonempty: %v", r)
	}
	dups := New([][]string{{"A", "B"}, {"A", "B"}, {"B", "A"}})
	if r := dups.Reduce(); r.NumEdges() != 1 {
		t.Fatalf("duplicates: %v", r)
	}
}

// BenchmarkReduce measures the linearized reduction on a subset-heavy
// family whose size doubles: near-linear time per edge is the target shape
// (the seed's all-pairs scan was quadratic here).
func BenchmarkReduce(b *testing.B) {
	for _, m := range []int{2000, 4000, 8000} {
		rng := rand.New(rand.NewSource(int64(m)))
		const blockSize = 64
		blocks := m / 100
		edges := make([][]int32, 0, m)
		for bl := 0; bl < blocks; bl++ {
			base := int32(bl * blockSize)
			full := make([]int32, blockSize)
			for i := range full {
				full[i] = base + int32(i)
			}
			edges = append(edges, full)
		}
		for len(edges) < m {
			bl := int32(rng.Intn(blocks)) * blockSize
			a := 2 + rng.Intn(12)
			start := int32(rng.Intn(blockSize - a))
			sub := make([]int32, a)
			for i := range sub {
				sub[i] = bl + start + int32(i)
			}
			edges = append(edges, sub)
		}
		h := FromIDs(blocks*blockSize, edges)
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if r := h.Reduce(); r.NumEdges() != blocks {
					b.Fatalf("reduced to %d edges, want %d", r.NumEdges(), blocks)
				}
			}
		})
	}
}
