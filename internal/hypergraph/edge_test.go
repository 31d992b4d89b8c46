package hypergraph

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bitset"
)

// randomEdgePair builds an Edge and a dense reference with identical
// contents, exercising both representations: half the trials use a universe
// big enough that sparse wins, half stay small and dense.
func randomEdgePair(rng *rand.Rand) (Edge, bitset.Set, int) {
	universe := 64 + rng.Intn(256)
	if rng.Intn(2) == 0 {
		universe = smallUniverse + 1 + rng.Intn(4000)
	}
	n := rng.Intn(24)
	var d bitset.Set
	ids := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		e := rng.Intn(universe)
		if !d.Contains(e) {
			d.Add(e)
		}
	}
	d.ForEach(func(e int) { ids = append(ids, int32(e)) })
	return edgeFromSortedIDs(ids, universe), d, universe
}

// TestEdgeRepresentationChoice pins the density cutoff: small universes stay
// dense, large sparse universes go sorted-id, and edges above the 1/32
// density parity point stay dense even over large universes.
func TestEdgeRepresentationChoice(t *testing.T) {
	dense := edgeFromSortedIDs([]int32{1, 5, 9}, 100)
	if dense.IsSparse() {
		t.Fatal("small-universe edge must be dense")
	}
	sparse := edgeFromSortedIDs([]int32{1, 5, 9}, 100_000)
	if !sparse.IsSparse() {
		t.Fatal("low-density large-universe edge must be sparse")
	}
	ids := make([]int32, 4000)
	for i := range ids {
		ids[i] = int32(i * 3)
	}
	heavy := edgeFromSortedIDs(ids, 12_000)
	if heavy.IsSparse() {
		t.Fatal("edge covering 1/3 of the universe must stay dense")
	}
}

// TestEdgeMatchesSetDifferential pins every Edge operation to the dense
// bitset.Set semantics op-by-op across representation combinations (the
// randomized universes produce dense/dense, sparse/sparse, and mixed pairs).
func TestEdgeMatchesSetDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 2000; trial++ {
		ea, da, ua := randomEdgePair(rng)
		eb, db, _ := randomEdgePair(rng)
		if got, want := ea.Len(), da.Len(); got != want {
			t.Fatalf("trial %d: Len %d vs %d", trial, got, want)
		}
		if got, want := ea.IsEmpty(), da.IsEmpty(); got != want {
			t.Fatalf("trial %d: IsEmpty %v vs %v", trial, got, want)
		}
		if got, want := ea.Min(), da.Min(); got != want {
			t.Fatalf("trial %d: Min %d vs %d", trial, got, want)
		}
		if !reflect.DeepEqual(ea.Elems(), da.Elems()) {
			t.Fatalf("trial %d: Elems %v vs %v", trial, ea.Elems(), da.Elems())
		}
		for _, probe := range []int{-1, 0, rng.Intn(ua), ea.Min()} {
			if got, want := ea.Contains(probe), da.Contains(probe); got != want {
				t.Fatalf("trial %d: Contains(%d) %v vs %v", trial, probe, got, want)
			}
		}
		if got, want := ea.Equal(eb), da.Equal(db); got != want {
			t.Fatalf("trial %d: Equal %v vs %v (sparse %v/%v)", trial, got, want, ea.IsSparse(), eb.IsSparse())
		}
		if got, want := ea.IsSubset(eb), da.IsSubset(db); got != want {
			t.Fatalf("trial %d: IsSubset %v vs %v (sparse %v/%v)", trial, got, want, ea.IsSparse(), eb.IsSparse())
		}
		if got, want := ea.Intersects(eb), da.Intersects(db); got != want {
			t.Fatalf("trial %d: Intersects %v vs %v", trial, got, want)
		}
		if got, want := ea.IntersectCount(eb), da.And(db).Len(); got != want {
			t.Fatalf("trial %d: IntersectCount %d vs %d", trial, got, want)
		}
		if got, want := ea.ContainsSet(db), db.IsSubset(da); got != want {
			t.Fatalf("trial %d: ContainsSet %v vs %v", trial, got, want)
		}
		if got, want := ea.IntersectsSet(db), da.Intersects(db); got != want {
			t.Fatalf("trial %d: IntersectsSet %v vs %v", trial, got, want)
		}
		if got, want := ea.EqualSet(db), da.Equal(db); got != want {
			t.Fatalf("trial %d: EqualSet %v vs %v", trial, got, want)
		}
		if got, want := ea.AndSet(db).Elems(), da.And(db).Elems(); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: AndSet %v vs %v", trial, got, want)
		}
		if got, want := ea.AndNotSet(db).Elems(), da.AndNot(db).Elems(); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: AndNotSet %v vs %v", trial, got, want)
		}
		var accE, accD bitset.Set
		accD = db.Clone()
		accE = db.Clone()
		ea.OrInto(&accE)
		accD.InPlaceOr(da)
		if !accE.Equal(accD) {
			t.Fatalf("trial %d: OrInto mismatch", trial)
		}
		if got, want := ea.Set().Elems(), da.Elems(); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Set %v vs %v", trial, got, want)
		}
		if got, want := ea.Dense().Elems(), da.Elems(); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Dense %v vs %v", trial, got, want)
		}
		if got, want := ea.Sparse().Elems(), da.Elems(); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Sparse %v vs %v", trial, got, want)
		}
		// Content hash and signature invariants.
		if hashIDs(ea.Sparse().IDs()) != hashIDs(edgeOfSet(da, ua).Sparse().IDs()) {
			t.Fatalf("trial %d: hashIDs differs across representations", trial)
		}
		if ea.IsSubset(eb) && signatureIDs(ea.Sparse().IDs())&^signatureIDs(eb.Sparse().IDs()) != 0 {
			t.Fatalf("trial %d: signatureIDs violates subset invariant", trial)
		}
	}
}

func TestFromIDs(t *testing.T) {
	h := FromIDs(6, [][]int32{{0, 1, 2}, {2, 3}, {5, 4, 4}, {}})
	if h.NumEdges() != 4 || h.NumNodes() != 6 || h.Universe() != 6 {
		t.Fatalf("shape: edges=%d nodes=%d universe=%d", h.NumEdges(), h.NumNodes(), h.Universe())
	}
	// Unsorted/duplicated ids are normalized.
	if got := h.EdgeView(2).Elems(); !reflect.DeepEqual(got, []int{4, 5}) {
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

// TestFromIDsLargeUniverseIsSparse: the representation that unlocks
// 10⁶-edge chains — per-edge storage must not scale with the universe.
func TestFromIDsLargeUniverseIsSparse(t *testing.T) {
	const n = 200_000
	edges := make([][]int32, 1000)
	for i := range edges {
		base := int32(i * 2)
		edges[i] = []int32{base, base + 1, base + 2}
	}
	h := FromIDs(n, edges)
	for i := 0; i < h.NumEdges(); i++ {
		if !h.EdgeView(i).IsSparse() {
			t.Fatalf("edge %d: dense representation over a %d-node universe", i, n)
		}
	}
	// The dense compatibility accessor still agrees.
	if got := h.Edge(0).Elems(); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Fatalf("Edge(0) = %v", got)
	}
}
