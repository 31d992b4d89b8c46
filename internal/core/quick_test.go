package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/gyo"
)

// TestBlocksCharacterizeAcyclicityOnCorpus: a hypergraph is acyclic iff its
// block decomposition consists of single edges — the executable form of the
// abstract's block/biconnectivity correspondence.
func TestBlocksCharacterizeAcyclicityOnCorpus(t *testing.T) {
	for n := 1; n <= 4; n++ {
		for _, h := range gen.AllConnectedReduced(n) {
			multi := 0
			for _, b := range Blocks(h) {
				if b.NumEdges() > 1 {
					multi++
					if b.HasArticulationSet() {
						t.Fatalf("%v: block %v has an articulation set", h, b)
					}
				}
			}
			if gyo.IsAcyclic(h) != (multi == 0) {
				t.Fatalf("%v: acyclic=%v but %d multi-edge blocks", h, gyo.IsAcyclic(h), multi)
			}
		}
	}
}

// TestQuickBlocksCoverEdges: every original edge survives inside some
// block's node set.
func TestQuickBlocksCoverEdges(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := gen.Random(rng, gen.RandomSpec{Nodes: 8, Edges: 6, MinArity: 2, MaxArity: 4})
		blocks := Blocks(h)
		for _, e := range h.Edges() {
			found := false
			for _, b := range blocks {
				if e.IsSubset(b.NodeSet()) {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickWitnessEndpointsInsideAnEdge: witness paths always join two sets
// whose union is a partial edge of the core (the structure the proof of
// Theorem 6.1 engineers: M₁ ∪ X ⊆ F*).
func TestQuickWitnessEndpointsInsideAnEdge(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := gen.Random(rng, gen.RandomSpec{Nodes: 8, Edges: 6, MinArity: 2, MaxArity: 3})
		if gyo.IsAcyclic(h) {
			return true
		}
		p, f2, found, err := IndependentPathWitness(h)
		if err != nil || !found {
			return false
		}
		n, m := p.Endpoints()
		return f2.IsPartialEdge(n.Or(m))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCCIdempotentNodes: reapplying CC with the same sacred set to its
// own result changes nothing (the canonical connection is canonical).
func TestQuickCCIdempotentNodes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := gen.Random(rng, gen.RandomSpec{Nodes: 7, Edges: 5, MinArity: 2, MaxArity: 4})
		x := gen.RandomNodeSubset(rng, h, 0.35).And(h.CoveredNodes())
		cc1 := CC(h, x)
		cc2 := CC(cc1, x)
		return cc1.EqualEdges(cc2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRingValidatesOnCycles: FindRing on graph cycles returns a ring of
// exactly the cycle length.
func TestQuickRingValidatesOnCycles(t *testing.T) {
	for k := 3; k <= 9; k++ {
		h := gen.CycleGraph(k)
		r, found := FindRing(h, 0)
		if !found {
			t.Fatalf("C%d must contain a ring", k)
		}
		if err := r.Validate(h); err != nil {
			t.Fatal(err)
		}
		if len(r.Sets) != k {
			t.Fatalf("C%d: ring length %d", k, len(r.Sets))
		}
	}
}
