package engine

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/hypergraph"
)

// TestClassifyRaceHammer hammers the Spectrum facet from many goroutines on
// a shared engine memo across several GOMAXPROCS widths: every caller must
// observe the same verdicts per schema, and the spectrum facet must compute
// at most once per identity (the latch contract under contention). Run
// under -race in CI, this is the concurrency pin for the spectrum facet.
func TestClassifyRaceHammer(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	schemas := []*hypergraph.Hypergraph{
		gen.PathGraph(6),
		gen.CycleGraph(5),
		hypergraph.New([][]string{{"a", "b"}, {"b", "c"}, {"a", "b", "c"}}),
		gen.GammaAcyclic(rng, 40, 30),
		gen.Random(rng, gen.RandomSpec{Nodes: 12, Edges: 10, MinArity: 2, MaxArity: 4}),
	}
	for _, gmp := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("gomaxprocs=%d", gmp), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(gmp)
			defer runtime.GOMAXPROCS(prev)
			e := New()
			want := make([]string, len(schemas))
			for i, h := range schemas {
				want[i] = e.Analyze(h).Spectrum().String()
			}
			var wg sync.WaitGroup
			const hammers = 16
			errs := make(chan error, hammers)
			for g := 0; g < hammers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for iter := 0; iter < 50; iter++ {
						i := (g + iter) % len(schemas)
						if got := e.Analyze(schemas[i]).Spectrum().String(); got != want[i] {
							errs <- fmt.Errorf("schema %d: got %s, want %s", i, got, want[i])
							return
						}
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			for i, h := range schemas {
				if runs := e.Analyze(h).Stats().HierarchyRuns; runs != 1 {
					t.Errorf("schema %d: spectrum ran %d times, want 1", i, runs)
				}
			}
		})
	}
}
