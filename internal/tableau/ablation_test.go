package tableau

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/gen"
	"repro/internal/hypergraph"
)

// TestAblationSameResult: disabling the pinned fast path must not change
// the minimization outcome, only its cost.
func TestAblationSameResult(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	graphs := []*hypergraph.Hypergraph{
		hypergraph.Fig1(), hypergraph.Fig5(), hypergraph.Triangle(),
		hypergraph.CyclicCounterexample(),
	}
	for i := 0; i < 15; i++ {
		graphs = append(graphs, gen.Random(rng, gen.RandomSpec{Nodes: 7, Edges: 5, MinArity: 2, MaxArity: 4}))
	}
	for _, h := range graphs {
		x := gen.RandomNodeSubset(rng, h, 0.3)
		tab := New(h, x)
		fast := tab.MinimizeOpt(Options{})
		slow := tab.MinimizeOpt(Options{DisableFastPath: true})
		if !fast.Hypergraph().EqualEdges(slow.Hypergraph()) {
			t.Fatalf("%v X=%v: ablation changed the result", h, h.NodeNames(x))
		}
	}
}

// TestStatsAccounting: the stats must add up — every removed row is counted
// exactly once.
func TestStatsAccounting(t *testing.T) {
	h := hypergraph.Fig1()
	mn := Reduce(h, h.MustSet("A", "D"))
	removed := h.NumEdges() - len(mn.Rows)
	if mn.Stats.PinnedRemovals+mn.Stats.GeneralRemovals != removed {
		t.Fatalf("stats %+v do not account for %d removals", mn.Stats, removed)
	}
	// With no sacred nodes, the triangle needs the general fold.
	tri := Reduce(hypergraph.Triangle(), bitset.Set{})
	if tri.Stats.GeneralRemovals == 0 {
		t.Fatalf("triangle fold must use the general path: %+v", tri.Stats)
	}
}

// BenchmarkMinimizeFastPathAblation measures the value of the pinned-first
// design choice: Minimize tries removing each row with all other rows held
// fixed before it falls back to the general multi-row fold search.
func BenchmarkMinimizeFastPathAblation(b *testing.B) {
	for _, m := range []int{8, 16, 32} {
		h := gen.RandomAcyclic(rand.New(rand.NewSource(int64(m))), gen.RandomSpec{Edges: m, MinArity: 2, MaxArity: 4})
		x := gen.RandomNodeSubset(rand.New(rand.NewSource(1)), h, 0.2)
		for _, opt := range []struct {
			name string
			o    Options
		}{
			{"fastpath", Options{}},
			{"general-only", Options{DisableFastPath: true}},
		} {
			b.Run(fmt.Sprintf("%s/m=%d", opt.name, m), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					New(h, x).MinimizeOpt(opt.o)
				}
			})
		}
	}
}
