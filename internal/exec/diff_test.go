package exec_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/analysis"
	"repro/internal/bitset"
	"repro/internal/core"
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

// disjointUnion returns a ⊎ b, with b's node names prefixed so the two
// components share no attribute; a's edges come first.
func disjointUnion(a, b *hypergraph.Hypergraph) *hypergraph.Hypergraph {
	var edges [][]string
	for i := 0; i < a.NumEdges(); i++ {
		edges = append(edges, a.EdgeNodes(i))
	}
	for i := 0; i < b.NumEdges(); i++ {
		e := b.EdgeNodes(i)
		for j := range e {
			e[j] = "b." + e[j]
		}
		edges = append(edges, e)
	}
	return hypergraph.New(edges)
}

// unionCorpus pairs corpus schemas into two-component schemas.
func unionCorpus(tb testing.TB) [][2]*hypergraph.Hypergraph {
	tb.Helper()
	c := acyclicCorpus(tb)
	var out [][2]*hypergraph.Hypergraph
	for i := 0; i < len(c); i += 3 {
		out = append(out, [2]*hypergraph.Hypergraph{c[i], c[len(c)-1-i]})
	}
	return out
}

// evalCase is one query over one instance.
type evalCase struct {
	label string
	d     *exec.Database
	attrs []string
}

// componentCases instantiates a ⊎ b and queries only a's nodes, so b is a
// component without a query attribute. It returns a random query and the
// empty query, each on the random instance and on a copy where one object
// of b is emptied, which empties every answer.
func componentCases(tb testing.TB, rng *rand.Rand, a, b *hypergraph.Hypergraph, spec gen.InstanceSpec) (*jointree.JoinTree, []evalCase) {
	tb.Helper()
	u := disjointUnion(a, b)
	jt, ok := jointree.BuildMCS(u)
	if !ok {
		tb.Fatalf("union %v not acyclic", u)
	}
	d := gendb.Random(rng, u, spec)
	tables := slices.Clone(d.Tables)
	k := a.NumEdges() + rng.Intn(b.NumEdges())
	empty, err := exec.NewTable(d.Dict(), tables[k].Attrs())
	if err != nil {
		tb.Fatal(err)
	}
	tables[k] = empty
	emptied, err := exec.NewDatabase(u, tables)
	if err != nil {
		tb.Fatal(err)
	}
	nodes := a.Nodes()
	attrs := []string{nodes[rng.Intn(len(nodes))]}
	for _, n := range nodes {
		if rng.Float64() < 0.4 {
			attrs = append(attrs, n)
		}
	}
	return jt, []evalCase{
		{"query", d, attrs},
		{"query, object emptied", emptied, attrs},
		{"no attrs", d, []string{}},
		{"no attrs, object emptied", emptied, []string{}},
	}
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

// padDict grows d's dictionary past the database's cell count, so Reduce
// runs every step on the hash kernel instead of the dense one.
func padDict(d *exec.Database) {
	cells := 0
	for _, t := range d.Tables {
		cells += t.NumRows() * t.NumAttrs()
	}
	for i := 0; i <= cells; i++ {
		d.Dict().Intern(fmt.Sprintf("pad-%d", i))
	}
}

// padCases lists each instance's dictionary variants: as generated, and
// padded so that every semijoin step takes the hash kernel.
var padCases = []bool{false, true}

// TestReduceDifferential pins exec.Reduce against the naive
// relation.Semijoin composition (db.ApplyReducer) on randomized databases
// across the corpus, plus a 20-edge γ-acyclic chain whose steps all share
// one column (the dense semijoin kernel's shape): every object of the
// reduced database must equal its naive twin, the result must be the
// semijoin fixpoint (full reduction), and the per-step stats must follow
// the program order. Every instance runs again with a padded dictionary,
// so single-column steps are pinned on both kernels.
func TestReduceDifferential(t *testing.T) {
	ctx := context.Background()
	for i, h := range append(acyclicCorpus(t), gen.AcyclicChain(20, 3, 1)) {
		jt, ok := jointree.BuildMCS(h)
		if !ok {
			t.Fatalf("corpus schema %d not acyclic", i)
		}
		prog := jt.FullReducer()
		for _, pad := range padCases {
			rng := rand.New(rand.NewSource(int64(1000 + i)))
			d := gendb.Random(rng, h, gen.InstanceSpec{Rows: 30, DomainSize: 3})
			if pad {
				padDict(d)
			}
			if exec.DenseFits(d) == pad {
				t.Fatalf("schema %d padded %v: dense kernel allowed = %v", i, pad, !pad)
			}
			res, err := exec.Reduce(ctx, d, jt)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Steps) != len(prog) {
				t.Fatalf("schema %d: %d steps, program has %d", i, len(res.Steps), len(prog))
			}
			for k, st := range res.Steps {
				if st.Step != prog[k] {
					t.Fatalf("schema %d: step %d is %v, program order says %v", i, k, st.Step, prog[k])
				}
			}
			twin := relationalTwin(t, d)
			naive := twin.ApplyReducer(prog)
			for j, r := range res.DB.Relations() {
				if !r.Equal(naive[j]) {
					t.Fatalf("schema %d (%v) padded %v: reduced object %d differs from naive\nexec:\n%v\nnaive:\n%v",
						i, h, pad, j, r, naive[j])
				}
			}
			if !twin.ReducesFully(prog) {
				t.Fatalf("schema %d: program is not a full reducer on the instance", i)
			}
		}
	}
}

// TestEvalDifferential pins exec.Eval against naive relation evaluation
// (QueryYannakakis, itself pinned against QueryFull in internal/db) for
// randomized attribute sets across the corpus (each instance also with a
// padded dictionary, so every semijoin step takes the hash kernel), and
// across two-component schemas whose second component carries no query
// attribute (Eval never joins it), with the empty query too. Emptying an
// object of the unqueried component must empty the answer; the empty query
// answers one empty row exactly when no reduced object is empty.
func TestEvalDifferential(t *testing.T) {
	ctx := context.Background()
	check := func(label string, d *exec.Database, jt *jointree.JoinTree, attrs []string) *exec.EvalResult {
		t.Helper()
		res, err := exec.Eval(ctx, d, jt, attrs)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		want, err := relationalTwin(t, d).QueryYannakakis(attrs)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Out.ToRelation().Equal(want) {
			t.Fatalf("%s (%v), attrs %v: eval differs\nexec:\n%v\nnaive:\n%v", label, jt.H, attrs, res.Out, want)
		}
		return res
	}
	for i, h := range acyclicCorpus(t) {
		jt, ok := jointree.BuildMCS(h)
		if !ok {
			t.Fatalf("corpus schema %d not acyclic", i)
		}
		nodes := h.Nodes()
		for _, pad := range padCases {
			rng := rand.New(rand.NewSource(int64(2000 + i)))
			d := gendb.Random(rng, h, gen.InstanceSpec{Rows: 25, DomainSize: 3})
			if pad {
				padDict(d)
			}
			for trial := 0; trial < 3; trial++ {
				attrs := []string{nodes[rng.Intn(len(nodes))]}
				for _, n := range nodes {
					if rng.Float64() < 0.3 {
						attrs = append(attrs, n)
					}
				}
				check(fmt.Sprintf("schema %d padded %v", i, pad), d, jt, attrs)
			}
		}
	}
	var emptyAnswers, unitAnswers int
	for i, pair := range unionCorpus(t) {
		rng := rand.New(rand.NewSource(int64(5000 + i)))
		jt, cases := componentCases(t, rng, pair[0], pair[1], gen.InstanceSpec{Rows: 25, DomainSize: 3})
		for _, c := range cases {
			label := fmt.Sprintf("union %d %s", i, c.label)
			res := check(label, c.d, jt, c.attrs)
			anyEmpty := slices.ContainsFunc(res.Reduce.DB.Tables, func(t *exec.Table) bool { return t.NumRows() == 0 })
			switch {
			case anyEmpty && res.Out.NumRows() != 0:
				t.Fatalf("%s: %d rows with an empty reduced object", label, res.Out.NumRows())
			case anyEmpty:
				emptyAnswers++
			case len(c.attrs) == 0 && res.Out.NumRows() != 1:
				t.Fatalf("%s: empty query answered %d rows, want 1", label, res.Out.NumRows())
			case len(c.attrs) == 0:
				unitAnswers++
			}
		}
	}
	if emptyAnswers == 0 || unitAnswers == 0 {
		t.Fatalf("union cases answered empty %d times and with one empty row %d times; both must occur",
			emptyAnswers, unitAnswers)
	}
}

// TestEvalJoinsCanonicalConnection pins Eval's join plan against the
// paper: the attributes of the tables the join phase builds for a query on
// X are exactly the nodes of the canonical connection CC(X), computed by
// tableau reduction (core.CCNodes). Pruning only leaves would keep inner
// objects that CC(X) drops, so this needs the contraction rule.
func TestEvalJoinsCanonicalConnection(t *testing.T) {
	schemas := acyclicCorpus(t)
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(700 + seed))
		schemas = append(schemas, gen.RandomAcyclic(rng, gen.RandomSpec{
			Edges:    15 + int(seed)%10,
			MinArity: 2,
			MaxArity: 4,
		}))
	}
	for _, pair := range unionCorpus(t) {
		schemas = append(schemas, disjointUnion(pair[0], pair[1]))
	}
	for i, h := range schemas {
		jt, ok := jointree.BuildMCS(h)
		if !ok {
			t.Fatalf("schema %d not acyclic", i)
		}
		rng := rand.New(rand.NewSource(int64(6000 + i)))
		for trial := 0; trial < 4; trial++ {
			x := bitset.New(h.Universe())
			h.NodeSet().ForEach(func(id int) {
				if rng.Float64() < 0.15 {
					x.Add(id)
				}
			})
			if got, want := exec.JoinedNodes(jt, x), core.CCNodes(h, x); !got.Equal(want) {
				t.Fatalf("schema %d (%v), X = %v: join phase covers %v, CC(X) is %v",
					i, h, h.NodeNames(x), h.NodeNames(got), h.NodeNames(want))
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
		res, err := exec.Reduce(ctx, d, jt)
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
	direct, err := exec.Reduce(ctx, d, jt)
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
