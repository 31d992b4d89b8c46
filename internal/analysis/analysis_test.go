package analysis

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/acyclic"
	"repro/internal/bitset"
	"repro/internal/gen"
	"repro/internal/gendb"
	"repro/internal/gyo"
	"repro/internal/hypergraph"
	"repro/internal/jointree"
	"repro/internal/mcs"
)

// corpus returns the differential instances: the paper fixtures plus the
// generator families the free functions are already pinned against.
func corpus() []*hypergraph.Hypergraph {
	hs := []*hypergraph.Hypergraph{
		hypergraph.Fig1(),
		hypergraph.Fig1MinusACE(),
		hypergraph.Fig5(),
		hypergraph.Triangle(),
		hypergraph.CyclicCounterexample(),
	}
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		hs = append(hs,
			gen.RandomAcyclic(rng, gen.RandomSpec{Edges: 12, MinArity: 2, MaxArity: 4}),
			gen.Random(rng, gen.RandomSpec{Nodes: 12, Edges: 10, MinArity: 2, MaxArity: 4}),
		)
	}
	hs = append(hs,
		gen.AcyclicChain(40, 3, 1),
		gen.Star(9),
		gen.CycleGraph(8),
		gen.Grid(3, 3),
		gen.HyperRing(6),
	)
	return hs
}

// TestFacetsMatchFreeFunctions: every Analysis facet must equal its direct
// free-function twin on every corpus instance.
func TestFacetsMatchFreeFunctions(t *testing.T) {
	for i, h := range corpus() {
		a := New(h)

		want := mcs.Run(h)
		if a.Verdict() != want.Acyclic {
			t.Fatalf("instance %d: Verdict=%v, mcs.Run=%v", i, a.Verdict(), want.Acyclic)
		}
		got := a.MCS()
		if got.Acyclic != want.Acyclic ||
			!reflect.DeepEqual(got.EdgeOrder, want.EdgeOrder) ||
			!reflect.DeepEqual(got.Parent, want.Parent) {
			t.Fatalf("instance %d: MCS facet diverges from mcs.Run", i)
		}

		jt, err := a.JoinTree()
		wantJT, ok := jointree.BuildMCS(h)
		if ok != (err == nil) {
			t.Fatalf("instance %d: JoinTree err=%v but BuildMCS ok=%v", i, err, ok)
		}
		if ok && !reflect.DeepEqual(jt.Parent, wantJT.Parent) {
			t.Fatalf("instance %d: JoinTree parents %v != %v", i, jt.Parent, wantJT.Parent)
		}
		if !ok && !errors.Is(err, hypergraph.ErrCyclic) {
			t.Fatalf("instance %d: JoinTree err=%v, want ErrCyclic", i, err)
		}

		if h.NumEdges() <= 14 { // the γ test is exponential
			sp, want := a.Spectrum(), acyclic.Classify(h)
			if sp.Alpha != want.Alpha || sp.Beta.Acyclic != want.Beta || sp.Gamma.Acyclic != want.Gamma ||
				sp.Berge != want.Berge || sp.String() != want.String() {
				t.Fatalf("instance %d: Spectrum=%v, acyclic.Classify=%v", i, sp, want)
			}
		}

		gr := a.GrahamTrace()
		wantGR := gyo.Reduce(h, bitset.Set{})
		if !gr.Hypergraph.EqualEdges(wantGR.Hypergraph) || len(gr.Steps) != len(wantGR.Steps) {
			t.Fatalf("instance %d: GrahamTrace diverges from gyo.Reduce", i)
		}
		if gr.Vanished() != a.Verdict() {
			t.Fatalf("instance %d: GYO and MCS verdicts disagree", i)
		}

		fr, err := a.FullReducer()
		if a.Verdict() {
			if err != nil {
				t.Fatalf("instance %d: FullReducer err=%v on acyclic input", i, err)
			}
			if !reflect.DeepEqual(fr, wantJT.FullReducer()) {
				t.Fatalf("instance %d: FullReducer diverges from JoinTree.FullReducer", i)
			}
		} else if !errors.Is(err, hypergraph.ErrCyclicSchema) || !errors.Is(err, hypergraph.ErrCyclic) {
			t.Fatalf("instance %d: FullReducer err=%v, want ErrCyclicSchema", i, err)
		}
	}
}

// TestEachTraversalRunsAtMostOnce: hammering every facet repeatedly must
// leave every underlying traversal counter at <= 1 — and the shared MCS
// root at exactly 1 even though four facets depend on it.
func TestEachTraversalRunsAtMostOnce(t *testing.T) {
	for _, h := range []*hypergraph.Hypergraph{hypergraph.Fig1(), hypergraph.Triangle()} {
		a := New(h, WithVerify())
		for round := 0; round < 3; round++ {
			a.Verdict()
			a.MCS()
			a.JoinTree()
			a.Spectrum()
			a.GrahamTrace()
			a.FullReducer()
		}
		st := a.Stats()
		if st.MCSRuns != 1 {
			t.Fatalf("%v: MCS ran %d times, want exactly 1", h, st.MCSRuns)
		}
		if st.GrahamRuns > 1 || st.HierarchyRuns > 1 || st.VerifyRuns > 1 {
			t.Fatalf("%v: stats %+v exceed one run per traversal", h, st)
		}
	}
}

// TestConcurrentFacetAccess hammers one Analysis from GOMAXPROCS
// goroutines touching every facet; run with -race in CI. Results must be
// consistent and every traversal must still have run at most once.
func TestConcurrentFacetAccess(t *testing.T) {
	for _, h := range []*hypergraph.Hypergraph{
		hypergraph.Fig1(),
		hypergraph.Triangle(),
		gen.RandomAcyclic(rand.New(rand.NewSource(7)), gen.RandomSpec{Edges: 14, MinArity: 2, MaxArity: 4}),
	} {
		a := New(h, WithVerify())
		want := mcs.IsAcyclic(h)
		workers := runtime.GOMAXPROCS(0)
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for round := 0; round < 20; round++ {
					if a.Verdict() != want {
						t.Error("verdict mismatch")
						return
					}
					jt, err := a.JoinTree()
					if (err == nil) != want || (want && jt == nil) {
						t.Error("join tree mismatch")
						return
					}
					if a.Spectrum().Alpha != want {
						t.Error("spectrum mismatch")
						return
					}
					if a.GrahamTrace().Vanished() != want {
						t.Error("graham mismatch")
						return
					}
					if _, err := a.FullReducer(); (err == nil) != want {
						t.Error("full reducer mismatch")
						return
					}
				}
			}()
		}
		wg.Wait()
		st := a.Stats()
		if st.MCSRuns != 1 || st.GrahamRuns > 1 || st.HierarchyRuns > 1 || st.VerifyRuns > 1 {
			t.Fatalf("concurrent stats %+v exceed one run per traversal", st)
		}
	}
}

// TestGrahamTraceCtx: a cancelled context leaves the facet uncomputed (a
// later live call retries and succeeds), and the ctx-less wrapper agrees
// with the free function.
func TestGrahamTraceCtx(t *testing.T) {
	h := gen.AcyclicChain(2000, 3, 1)
	a := New(h)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := a.GrahamTraceCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled GrahamTraceCtx: err = %v, want context.Canceled", err)
	}
	r, err := a.GrahamTraceCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Vanished() {
		t.Fatal("acyclic chain must vanish under Graham reduction")
	}
	if got := a.Stats().GrahamRuns; got != 1 {
		t.Fatalf("GrahamRuns = %d, want 1 (cancelled attempts are uncounted)", got)
	}
	if a.GrahamTrace() != r {
		t.Fatal("GrahamTrace must return the cached successful run")
	}
}

// TestSettledSessionSkipsMCS: a session seeded with a settled verdict and
// join tree answers every derived facet like a from-scratch session without
// running the maximum cardinality search; MCS alone runs the real search,
// once, and returns the complete result.
func TestSettledSessionSkipsMCS(t *testing.T) {
	ctx := context.Background()
	for i, h := range corpus() {
		ref := mcs.Run(h)
		s, fresh := NewSettled(h, ref.Acyclic, ref.Parent), New(h)
		jt, err := s.JoinTree()
		wantJT, wantErr := fresh.JoinTree()
		if !errors.Is(err, wantErr) || (err == nil && !reflect.DeepEqual(jt.Parent, wantJT.Parent)) {
			t.Fatalf("instance %d: JoinTree = %v, %v; fresh session %v, %v", i, jt, err, wantJT, wantErr)
		}
		fr, err := s.FullReducer()
		wantFR, wantErr := fresh.FullReducer()
		if !errors.Is(err, wantErr) || !reflect.DeepEqual(fr, wantFR) {
			t.Fatalf("instance %d: FullReducer diverges (err %v vs %v)", i, err, wantErr)
		}
		if sp, err := s.SpectrumCtx(ctx); err != nil || sp.String() != fresh.Spectrum().String() || sp.Degree != fresh.Spectrum().Degree {
			t.Fatalf("instance %d: spectrum %v (%v), fresh %v", i, sp, err, fresh.Spectrum())
		}
		if st := s.Stats(); st.MCSRuns != 0 {
			t.Fatalf("instance %d: seeded session ran MCS %d times", i, st.MCSRuns)
		}
		if got := s.MCS(); !reflect.DeepEqual(got, ref) {
			t.Fatalf("instance %d: seeded MCS() = %+v, want the full search result %+v", i, got, ref)
		}
		s.MCS()
		if st := s.Stats(); st.MCSRuns != 1 {
			t.Fatalf("instance %d: MCS ran %d times, want 1", i, st.MCSRuns)
		}
	}

	// The exec facets run on the seeded tree, still without a search.
	rng := rand.New(rand.NewSource(3))
	schema, d := gendb.Chain(rng, 6, 2, 1, gen.InstanceSpec{Rows: 60, DomainSize: 8})
	ref := mcs.Run(schema)
	s := NewSettled(schema, ref.Acyclic, ref.Parent)
	attrs := schema.Nodes()[:2]
	got, err := s.Eval(ctx, d, attrs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := New(schema).Eval(ctx, d, attrs)
	if err != nil {
		t.Fatal(err)
	}
	if got.Out.NumRows() != want.Out.NumRows() {
		t.Fatalf("seeded Eval: %d rows, fresh session: %d", got.Out.NumRows(), want.Out.NumRows())
	}
	if _, err := s.Reduce(ctx, d); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.MCSRuns != 0 {
		t.Fatalf("seeded Reduce/Eval ran MCS %d times", st.MCSRuns)
	}
}
