package hypergraph

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/bitset"
)

// TestEdgeMatchesSetDifferential pins the predicates that read the member
// list — FindEdge, EdgeContaining, IsPartialEdge, EdgesTouching,
// CoveredNodes, RemoveNodes and NodeGenerated — to the dense bitset.Set
// operations on Edge(i), over small and large universes, and the reduction
// kernels' content hash and signature to set equality and inclusion.
func TestEdgeMatchesSetDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		universe := 1 + rng.Intn(100)
		if rng.Intn(2) == 0 {
			universe = 1000 + rng.Intn(4000)
		}
		edges := make([][]int32, rng.Intn(12))
		for i := range edges {
			for k := rng.Intn(8); k > 0; k-- {
				edges[i] = append(edges[i], int32(rng.Intn(universe)))
			}
		}
		if len(edges) > 1 && rng.Intn(2) == 0 {
			edges[0] = edges[len(edges)-1][:len(edges[len(edges)-1])/2]
		}
		h := FromIDs(universe, edges)
		sets := h.Edges()
		var s bitset.Set
		switch rng.Intn(3) {
		case 0:
			if len(sets) > 0 {
				s = sets[rng.Intn(len(sets))].Clone()
				if !s.IsEmpty() && rng.Intn(2) == 0 {
					s.Remove(s.Min())
				}
			}
		default:
			for k := rng.Intn(4); k > 0; k-- {
				s.Add(rng.Intn(universe))
			}
		}
		find, containing, covered := -1, -1, bitset.New(universe)
		var touching []int
		for i, e := range sets {
			if got, want := h.Members(i), e.Elems(); len(got) != len(want) {
				t.Fatalf("trial %d: Members(%d) = %v, Edge = %v", trial, i, got, want)
			}
			if find < 0 && e.Equal(s) {
				find = i
			}
			if containing < 0 && s.IsSubset(e) {
				containing = i
			}
			if e.Intersects(s) {
				touching = append(touching, i)
			}
			if got, want := h.countIn(i, s), e.And(s).Len(); got != want {
				t.Fatalf("trial %d: countIn(%d) = %d, want %d", trial, i, got, want)
			}
			covered.InPlaceOr(e)
			for j, f := range sets {
				a, b := h.Members(i), h.Members(j)
				if e.Equal(f) && hashIDs(a) != hashIDs(b) {
					t.Fatalf("trial %d: equal edges %d, %d hash differently", trial, i, j)
				}
				if e.IsSubset(f) && signatureIDs(a)&^signatureIDs(b) != 0 {
					t.Fatalf("trial %d: signature of edge %d not inside that of %d", trial, i, j)
				}
			}
		}
		if got := h.FindEdge(s); got != find {
			t.Fatalf("trial %d: FindEdge(%v) = %d, want %d", trial, s, got, find)
		}
		if got := h.EdgeContaining(s); got != containing || h.IsPartialEdge(s) != (containing >= 0) {
			t.Fatalf("trial %d: EdgeContaining(%v) = %d, want %d", trial, s, got, containing)
		}
		if got := h.EdgesTouching(s); !reflect.DeepEqual(got, touching) {
			t.Fatalf("trial %d: EdgesTouching(%v) = %v, want %v", trial, s, got, touching)
		}
		if got := h.CoveredNodes(); !got.Equal(covered) {
			t.Fatalf("trial %d: CoveredNodes = %v, want %v", trial, got, covered)
		}
		var kept []bitset.Set
		for _, e := range sets {
			if d := e.AndNot(s); !d.IsEmpty() {
				kept = append(kept, d)
			}
		}
		if got := h.RemoveNodes(s); !setsEqual(got.Edges(), kept) || !got.NodeSet().Equal(h.NodeSet().AndNot(s)) {
			t.Fatalf("trial %d: RemoveNodes(%v) = %v, want %v", trial, s, got.Edges(), kept)
		}
		var generated []bitset.Set
		for _, e := range sets {
			if d := e.And(s); !d.IsEmpty() {
				generated = append(generated, d)
			}
		}
		if len(generated) == 0 && len(sets) > 0 {
			generated = append(generated, bitset.Set{})
		}
		if got, want := h.NodeGenerated(s), h.Derive(s, generated).Reduce(); got.Fingerprint() != want.Fingerprint() {
			t.Fatalf("trial %d: NodeGenerated(%v) = %v, want %v", trial, s, got, want)
		}
	}
}

// setsEqual reports whether two set lists agree element by element.
func setsEqual(a, b []bitset.Set) bool {
	return slices.EqualFunc(a, b, bitset.Set.Equal)
}

func TestFromIDs(t *testing.T) {
	h := FromIDs(6, [][]int32{{0, 1, 2}, {2, 3}, {5, 4, 4}, {}})
	if h.NumEdges() != 4 || h.NumNodes() != 6 || h.Universe() != 6 {
		t.Fatalf("shape: edges=%d nodes=%d universe=%d", h.NumEdges(), h.NumNodes(), h.Universe())
	}
	// Unsorted/duplicated ids are normalized.
	if got := h.Members(2); !reflect.DeepEqual(got, []int32{4, 5}) {
		t.Fatalf("edge 2 = %v", got)
	}
	if got := h.EdgeNodes(0); !reflect.DeepEqual(got, []string{"N0", "N1", "N2"}) {
		t.Fatalf("names = %v", got)
	}
	if h.NodeName(5) != "N5" {
		t.Fatalf("NodeName(5) = %q", h.NodeName(5))
	}
	// Synthetic name lookup round-trips without a map.
	if id, ok := h.NodeID("N3"); !ok || id != 3 {
		t.Fatalf("NodeID(N3) = %d, %v", id, ok)
	}
	for _, bad := range []string{"N6", "N-1", "N03", "X2", "N", ""} {
		if _, ok := h.NodeID(bad); ok {
			t.Fatalf("NodeID(%q) should fail", bad)
		}
	}
	s := h.MustSet("N2", "N3")
	if i := h.FindEdge(s); i != 1 {
		t.Fatalf("FindEdge = %d", i)
	}
	// Same content via name-based construction: equal as hypergraphs.
	g := New([][]string{{"N0", "N1", "N2"}, {"N2", "N3"}, {"N4", "N5"}, {}})
	// New has no way to spell an explicit empty edge with isolated nodes, so
	// compare edge sets only.
	if !h.EqualEdges(g) {
		t.Fatalf("EqualEdges failed:\n h=%v\n g=%v", h, g)
	}
}

func TestFromIDsPanicsOnOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for id out of universe")
		}
	}()
	FromIDs(3, [][]int32{{0, 3}})
}

// TestFromIDsLargeUniverseIsSparse: the layout that unlocks 10⁶-edge
// chains — edge storage grows with the total edge size, not the universe:
// a thousand 3-node edges over a 200,000-node universe cost the member
// list and the offsets, under 6 bytes per member.
func TestFromIDsLargeUniverseIsSparse(t *testing.T) {
	const n = 200_000
	edges := make([][]int32, 1000)
	for i := range edges {
		base := int32(i * 2)
		edges[i] = []int32{base, base + 1, base + 2}
	}
	h := FromIDs(n, edges)
	bytes := 4*cap(h.members) + 4*cap(h.memberOff)
	if perMember := float64(bytes) / float64(len(h.members)); perMember > 6 {
		t.Fatalf("edges take %.1f bytes per member, want at most 6", perMember)
	}
	// The dense compatibility accessor still agrees.
	if got := h.Edge(0).Elems(); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Fatalf("Edge(0) = %v", got)
	}
}
