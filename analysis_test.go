package repro

import (
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/acyclic"
	"repro/internal/jointree"
)

// facadeCorpus: paper fixtures exercising both verdicts through the facade.
func facadeCorpus() []*Hypergraph {
	return []*Hypergraph{
		Fig1(),
		Fig5(),
		NewHypergraph([][]string{{"A", "B"}, {"B", "C"}, {"C", "A"}}),
		NewHypergraph([][]string{{"A", "B"}, {"A", "C"}, {"B", "C"}, {"A", "D"}}),
		NewHypergraph([][]string{{"A", "B", "C"}, {"C", "D", "E"}, {"A", "E", "F"}}),
		NewHypergraphFromIDs(6, [][]int32{{0, 1, 2}, {2, 3}, {3, 4, 5}}),
	}
}

// TestAnalysisFacetsAgree: the facets of one session agree with each other
// and with fresh handles — the verdict with the Graham reduction's, the join
// tree with the MCS parents and with the GYO-built tree's existence, the
// spectrum with the exponential testers, the witness with the verdict
// (Theorem 6.1), the full reducer with the tree.
func TestAnalysisFacetsAgree(t *testing.T) {
	for i, h := range facadeCorpus() {
		a := Analyze(h)
		if a.Verdict() != Analyze(h).GrahamTrace().Vanished() {
			t.Fatalf("instance %d: MCS and GYO verdicts disagree", i)
		}
		if r := Analyze(h).MCS(); r.Acyclic != a.Verdict() || !reflect.DeepEqual(a.MCS().Parent, r.Parent) {
			t.Fatalf("instance %d: MCS mismatch across handles", i)
		}
		jt, err := a.JoinTree()
		_, gyoOK := jointree.Build(h)
		if (err == nil) != a.Verdict() || gyoOK != a.Verdict() {
			t.Fatalf("instance %d: join tree err=%v, GYO tree %v, verdict %v", i, err, gyoOK, a.Verdict())
		}
		if err == nil && (jt.Verify() != nil || !reflect.DeepEqual(jt.Parent, a.MCS().Parent)) {
			t.Fatalf("instance %d: join tree is not the MCS tree or violates RIP", i)
		}
		if sp, want := a.Spectrum(), acyclic.Classify(h); sp.String() != want.String() || sp.Alpha != a.Verdict() {
			t.Fatalf("instance %d: spectrum %v, acyclic.Classify %v, verdict %v", i, sp, want, a.Verdict())
		}
		gr, err := GrahamReductionTrace(h)
		if err != nil {
			t.Fatal(err)
		}
		if a.GrahamTrace().Vanished() != gr.Vanished() {
			t.Fatalf("instance %d: graham trace mismatch", i)
		}
		p, c, found, err := IndependentPathWitness(h)
		if err != nil || found == a.Verdict() {
			t.Fatalf("instance %d: witness found=%v err=%v on verdict %v", i, found, err, a.Verdict())
		}
		if found {
			if verr := p.Validate(c); verr != nil {
				t.Fatalf("instance %d: witness path invalid in its core: %v", i, verr)
			}
			if cert := a.MCS().Cert; cert == nil || cert.Validate(h) != nil {
				t.Fatalf("instance %d: cyclic MCS run lacks a valid certificate", i)
			}
		}
		fr, err := a.FullReducer()
		if a.Verdict() {
			if err != nil || !reflect.DeepEqual(fr, jt.FullReducer()) {
				t.Fatalf("instance %d: full reducer mismatch (err=%v)", i, err)
			}
		} else if !errors.Is(err, ErrCyclicSchema) {
			t.Fatalf("instance %d: full reducer err = %v, want ErrCyclicSchema", i, err)
		}
	}
}

// TestAnalysisComputesOncePerHandle: the acceptance criterion — each
// underlying traversal runs at most once per handle, counted by Stats.
func TestAnalysisComputesOncePerHandle(t *testing.T) {
	a := Analyze(Fig1(), WithVerify())
	for i := 0; i < 5; i++ {
		a.Verdict()
		a.MCS()
		a.JoinTree()
		a.Spectrum()
		a.GrahamTrace()
		a.FullReducer()
	}
	st := a.Stats()
	if st.MCSRuns != 1 {
		t.Fatalf("MCS ran %d times across all facets, want exactly 1", st.MCSRuns)
	}
	if st.GrahamRuns != 1 || st.HierarchyRuns != 1 || st.VerifyRuns != 1 {
		t.Fatalf("stats = %+v, want one run per queried traversal", st)
	}
}

// TestAnalysisConcurrentFacade: GOMAXPROCS goroutines hammer one handle
// (run with -race in CI).
func TestAnalysisConcurrentFacade(t *testing.T) {
	a := Analyze(Fig5())
	var wg sync.WaitGroup
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if !a.Verdict() {
					t.Error("Fig5 must be acyclic")
					return
				}
				if _, err := a.JoinTree(); err != nil {
					t.Error(err)
					return
				}
				if _, err := a.FullReducer(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := a.Stats(); st.MCSRuns != 1 {
		t.Fatalf("concurrent MCS runs = %d, want 1", st.MCSRuns)
	}
}

// TestEngineAnalyzeMemoized: content-equal hypergraphs share one session
// through the engine.
func TestEngineAnalyzeMemoized(t *testing.T) {
	e := NewEngine()
	a1 := e.Analyze(Fig1())
	a2 := e.Analyze(Fig1())
	if a1 != a2 {
		t.Fatal("engine must share one Analysis per identity")
	}
	if !a1.Verdict() {
		t.Fatal("Fig1 is acyclic")
	}
}

// TestStructuredErrors: the taxonomy is matchable with errors.Is/errors.As
// from every facade entry point.
func TestStructuredErrors(t *testing.T) {
	tri := NewHypergraph([][]string{{"A", "B"}, {"B", "C"}, {"C", "A"}})

	if _, err := Analyze(tri).JoinTree(); !errors.Is(err, ErrCyclic) {
		t.Fatalf("JoinTree err = %v, want ErrCyclic", err)
	}
	if _, err := JoinTreeMVDs(tri); !errors.Is(err, ErrCyclicSchema) || !errors.Is(err, ErrCyclic) {
		t.Fatalf("JoinTreeMVDs err = %v, want ErrCyclicSchema wrapping ErrCyclic", err)
	}

	_, err := GrahamReduction(Fig1(), "A", "Z")
	var unknown *ErrUnknownNode
	if !errors.As(err, &unknown) || unknown.Name != "Z" {
		t.Fatalf("GrahamReduction err = %v, want ErrUnknownNode{Z}", err)
	}
	if _, err := NewTableau(Fig1(), "Q"); !errors.As(err, &unknown) || unknown.Name != "Q" {
		t.Fatalf("NewTableau err = %v, want ErrUnknownNode{Q}", err)
	}

	_, _, err = ParseHypergraph("A B\n: C\n")
	var pe *ErrParse
	if !errors.As(err, &pe) || pe.Line != 2 {
		t.Fatalf("ParseHypergraph err = %v, want ErrParse at line 2", err)
	}
}

// TestBuilderFacade: the construction Builder through the facade.
func TestBuilderFacade(t *testing.T) {
	h, err := NewBuilder().
		NamedEdge("R1", "A", "B", "C").
		Edge("C", "D", "E").
		Edge("A", "E", "F").
		Edge("A", "C", "E").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if !h.Equal(Fig1()) {
		t.Fatalf("builder = %v, want Fig1", h)
	}
	if !Analyze(h).Verdict() {
		t.Fatal("Fig1 via builder must be acyclic")
	}
}
