package analysis

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/spectrum"
)

// TestSpectrumFacet pins the facet's contracts: the certificates pass the
// independent checkers, and the whole spectrum computes exactly once per
// handle however often it is asked.
func TestSpectrumFacet(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	schemas := []struct {
		name string
		a    *Analysis
	}{
		{"gamma", New(gen.GammaAcyclic(rng, 30, 20))},
		{"cyclic", New(gen.CycleGraph(5))},
		{"path", New(gen.PathGraph(8))},
		{"random", New(gen.Random(rng, gen.RandomSpec{Nodes: 10, Edges: 8, MinArity: 2, MaxArity: 4}))},
	}
	for _, tc := range schemas {
		r := tc.a.Spectrum()
		if err := spectrum.VerifyBeta(tc.a.Hypergraph(), r.Beta); err != nil {
			t.Errorf("%s: beta certificate rejected: %v", tc.name, err)
		}
		if err := spectrum.VerifyGamma(tc.a.Hypergraph(), r.Gamma); err != nil {
			t.Errorf("%s: gamma certificate rejected: %v", tc.name, err)
		}
		tc.a.Spectrum()
		if _, err := tc.a.SpectrumCtx(context.Background()); err != nil {
			t.Errorf("%s: SpectrumCtx: %v", tc.name, err)
		}
		if runs := tc.a.Stats().HierarchyRuns; runs != 1 {
			t.Errorf("%s: spectrum ran %d times, want 1", tc.name, runs)
		}
	}
}

// TestSpectrumFacetCancellation checks that a cancelled spectrum run leaves
// the facet uncomputed for a later retry instead of poisoning it.
func TestSpectrumFacetCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	a := New(gen.GammaAcyclic(rng, 4000, 3000))
	ctx, cancel := context.WithCancel(context.Background())
	// Let the MCS facet land first so the cancellation hits the spectrum
	// latch itself.
	if _, err := a.VerdictCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := a.SpectrumCtx(ctx); err == nil {
		t.Fatal("cancelled SpectrumCtx returned no error")
	}
	if runs := a.Stats().HierarchyRuns; runs != 0 {
		t.Fatalf("cancelled run counted: HierarchyRuns=%d", runs)
	}
	if _, err := a.SpectrumCtx(context.Background()); err != nil {
		t.Fatalf("retry after cancellation failed: %v", err)
	}
	if runs := a.Stats().HierarchyRuns; runs != 1 {
		t.Fatalf("retry did not latch: HierarchyRuns=%d", runs)
	}
}
