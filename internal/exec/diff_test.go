package exec_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/analysis"
	"repro/internal/db"
	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/gendb"
	"repro/internal/hypergraph"
	"repro/internal/jointree"
	"repro/internal/mcs"
)

// acyclicCorpus collects the schemas the differential suite sweeps: every
// acyclic member of the exhaustive small corpus plus seeded random acyclic
// hypergraphs of growing size.
func acyclicCorpus(tb testing.TB) []*hypergraph.Hypergraph {
	tb.Helper()
	var out []*hypergraph.Hypergraph
	for _, h := range gen.AllConnectedReduced(4) {
		if mcs.IsAcyclic(h) {
			out = append(out, h)
		}
	}
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		out = append(out, gen.RandomAcyclic(rng, gen.RandomSpec{
			Edges:    3 + int(seed)%10,
			MinArity: 2,
			MaxArity: 4,
		}))
	}
	return out
}

// relationalTwin rebuilds d as a string-keyed db.Database so the naive
// internal/relation operators can serve as the reference implementation.
func relationalTwin(tb testing.TB, d *exec.Database) *db.Database {
	tb.Helper()
	twin, err := db.New(d.Schema, d.Relations())
	if err != nil {
		tb.Fatal(err)
	}
	return twin
}

// TestReduceDifferential pins exec.Reduce against the naive
// relation.Semijoin composition (db.ApplyReducer) on randomized databases
// across the corpus, plus a 20-edge γ-acyclic chain whose steps all share
// one column (the dense semijoin kernel's shape): every object of the
// reduced database must equal its naive twin, and the result must be the
// semijoin fixpoint (full reduction).
func TestReduceDifferential(t *testing.T) {
	ctx := context.Background()
	for i, h := range append(acyclicCorpus(t), gen.AcyclicChain(20, 3, 1)) {
		rng := rand.New(rand.NewSource(int64(1000 + i)))
		d := gendb.Random(rng, h, gen.InstanceSpec{Rows: 30, DomainSize: 3})
		jt, ok := jointree.BuildMCS(h)
		if !ok {
			t.Fatalf("corpus schema %d not acyclic", i)
		}
		prog := jt.FullReducer()

		res, err := exec.Reduce(ctx, d, jt, nil)
		if err != nil {
			t.Fatal(err)
		}
		twin := relationalTwin(t, d)
		naive := twin.ApplyReducer(prog)
		for j, r := range res.DB.Relations() {
			if !r.Equal(naive[j]) {
				t.Fatalf("schema %d (%v): reduced object %d differs from naive\nexec:\n%v\nnaive:\n%v",
					i, h, j, r, naive[j])
			}
		}
		if !twin.ReducesFully(prog) {
			t.Fatalf("schema %d: program is not a full reducer on the instance", i)
		}
	}
}

// TestEvalDifferential pins exec.Eval against naive relation evaluation
// (QueryYannakakis, itself pinned against QueryFull in internal/db) for
// randomized attribute sets across the corpus.
func TestEvalDifferential(t *testing.T) {
	ctx := context.Background()
	for i, h := range acyclicCorpus(t) {
		rng := rand.New(rand.NewSource(int64(2000 + i)))
		d := gendb.Random(rng, h, gen.InstanceSpec{Rows: 25, DomainSize: 3})
		jt, ok := jointree.BuildMCS(h)
		if !ok {
			t.Fatalf("corpus schema %d not acyclic", i)
		}
		nodes := h.Nodes()
		for trial := 0; trial < 3; trial++ {
			attrs := []string{nodes[rng.Intn(len(nodes))]}
			for _, n := range nodes {
				if rng.Float64() < 0.3 {
					attrs = append(attrs, n)
				}
			}
			res, err := exec.Eval(ctx, d, jt, attrs, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := relationalTwin(t, d).QueryYannakakis(attrs)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Out.ToRelation().Equal(want) {
				t.Fatalf("schema %d (%v), attrs %v: eval differs\nexec:\n%v\nnaive:\n%v",
					i, h, attrs, res.Out, want)
			}
		}
	}
}

// TestConsistentDatabaseReducesToItself: on a globally consistent instance
// the full reducer removes nothing.
func TestConsistentDatabaseReducesToItself(t *testing.T) {
	ctx := context.Background()
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := gen.RandomAcyclic(rng, gen.RandomSpec{Edges: 6, MinArity: 2, MaxArity: 3})
		d := gendb.Consistent(rng, h, gen.InstanceSpec{Rows: 40, DomainSize: 4})
		jt, _ := jointree.BuildMCS(h)
		res, err := exec.Reduce(ctx, d, jt, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.RowsOut != res.RowsIn {
			t.Fatalf("seed %d: consistent database lost rows: %d -> %d", seed, res.RowsIn, res.RowsOut)
		}
	}
}

// TestAnalysisFacets drives Reduce/Eval through the session API: the facet
// pair must agree with direct exec calls and report structured errors.
func TestAnalysisFacets(t *testing.T) {
	ctx := context.Background()
	h := gen.AcyclicChain(4, 2, 1)
	rng := rand.New(rand.NewSource(7))
	d := gendb.Random(rng, h, gen.InstanceSpec{Rows: 20, DomainSize: 3})
	a := analysis.New(h)

	red, err := a.Reduce(ctx, d)
	if err != nil {
		t.Fatal(err)
	}
	jt, _ := jointree.BuildMCS(h)
	direct, err := exec.Reduce(ctx, d, jt, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range red.DB.Relations() {
		if !r.Equal(direct.DB.Relations()[i]) {
			t.Fatalf("facet Reduce differs from direct exec.Reduce at object %d", i)
		}
	}
	attrs := []string{h.Nodes()[0]}
	ev, err := a.Eval(ctx, d, attrs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := relationalTwin(t, d).QueryYannakakis(attrs)
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Out.ToRelation().Equal(want) {
		t.Fatal("facet Eval differs from naive evaluation")
	}
	if runs := a.Stats().MCSRuns; runs != 1 {
		t.Fatalf("facets ran %d MCS traversals, want 1 (shared with the join tree)", runs)
	}
	if runs := a.Stats().HierarchyRuns; runs != 0 {
		t.Fatalf("Reduce/Eval ran %d spectrum classifications, want 0 (kernels are chosen per step)", runs)
	}

	// A database over a different schema is rejected.
	other := gendb.Random(rng, gen.AcyclicChain(3, 2, 1), gen.InstanceSpec{Rows: 5, DomainSize: 2})
	if _, err := a.Reduce(ctx, other); err == nil {
		t.Error("Reduce accepted a database over a foreign schema")
	}

	// Cyclic schemas report the structured taxonomy.
	tri := hypergraph.Triangle()
	dtri := gendb.Random(rng, tri, gen.InstanceSpec{Rows: 5, DomainSize: 2})
	ca := analysis.New(tri)
	if _, err := ca.Reduce(ctx, dtri); !errors.Is(err, hypergraph.ErrCyclicSchema) {
		t.Errorf("cyclic Reduce: err = %v, want ErrCyclicSchema", err)
	}
	if _, err := ca.Eval(ctx, dtri, []string{"A"}); !errors.Is(err, hypergraph.ErrCyclic) {
		t.Errorf("cyclic Eval: err = %v, want ErrCyclic(Schema)", err)
	}
}
