package exec_test

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/gendb"
	"repro/internal/hypergraph"
	"repro/internal/jointree"
)

// benchChain builds the standard benchmark pairing: a binary acyclic chain
// of m edges with rows tuples per object over a domain of rows ids per
// attribute (dense enough that most tuples survive a semijoin, sparse
// enough that reduction does real work).
func benchChain(m, rows int) (*exec.Database, *jointree.JoinTree) {
	rng := rand.New(rand.NewSource(int64(31*m + rows)))
	schema, db := gendb.Chain(rng, m, 2, 1, gen.InstanceSpec{Rows: rows, DomainSize: rows})
	jt, ok := jointree.BuildMCS(schema)
	if !ok {
		panic("chain schema must be acyclic")
	}
	return db, jt
}

// BenchmarkExecReduce runs the two-pass full-reducer program over chain
// databases of growing size; results are recorded in BENCH_exec.json.
func BenchmarkExecReduce(b *testing.B) {
	ctx := context.Background()
	for _, cfg := range []struct{ edges, rows int }{
		{8, 10_000},
		{8, 100_000},
		{64, 10_000},
	} {
		db, jt := benchChain(cfg.edges, cfg.rows)
		b.Run(fmt.Sprintf("edges=%d/rows=%d", cfg.edges, cfg.rows), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := exec.Reduce(ctx, db, jt)
				if err != nil {
					b.Fatal(err)
				}
				if res.RowsOut == 0 {
					b.Fatal("reduction emptied the database")
				}
			}
		})
	}
}

// bushyEdges is the eval-join workload's schema: eight objects in a bushy
// join tree, {A,B,C} with the subtrees {A,D}-{D,G}, {B,E}-{E,H},
// {C,F}-{F,I} and {A,J}.
var bushyEdges = [][]string{
	{"A", "B", "C"}, {"A", "D"}, {"B", "E"}, {"C", "F"},
	{"D", "G"}, {"E", "H"}, {"F", "I"}, {"A", "J"},
}

// bushyTree returns a join tree of the bushy schema h.
func bushyTree(h *hypergraph.Hypergraph) *jointree.JoinTree {
	jt, ok := jointree.BuildMCS(h)
	if !ok {
		panic("bushy schema must be acyclic")
	}
	return jt
}

// benchBushy builds the bushy schema with rows tuples per object over
// domain values per attribute.
func benchBushy(rows, domain int) (*exec.Database, *jointree.JoinTree) {
	h := hypergraph.New(bushyEdges)
	rng := rand.New(rand.NewSource(int64(rows + domain)))
	return gendb.Random(rng, h, gen.InstanceSpec{Rows: rows, DomainSize: domain}), bushyTree(h)
}

// benchEvalJoin builds the join-phase shape of the eval-join workload on
// the bushy schema, as internal/server's evalJoinBody draws it: minRows to
// 1.5×minRows tuples per object, values from a 400-value domain, 12 on the
// leaf attributes G, H, I and J.
func benchEvalJoin(minRows int) (*exec.Database, *jointree.JoinTree) {
	h := hypergraph.New(bushyEdges)
	rng := rand.New(rand.NewSource(int64(minRows)))
	dict := exec.NewDict()
	tables := make([]*exec.Table, h.NumEdges())
	for i := range tables {
		attrs := h.EdgeNodes(i)
		rows := make([][]string, minRows+minRows/2*i/(len(tables)-1))
		for r := range rows {
			rows[r] = make([]string, len(attrs))
			for k, a := range attrs {
				dom := 400
				if strings.Contains("GHIJ", a) {
					dom = 12
				}
				rows[r][k] = "v" + strconv.Itoa(rng.Intn(dom))
			}
		}
		t, err := exec.FromRows(dict, attrs, rows)
		if err != nil {
			panic(err)
		}
		tables[i] = t
	}
	db, err := exec.NewDatabase(h, tables)
	if err != nil {
		panic(err)
	}
	return db, bushyTree(h)
}

// BenchmarkExecEval runs the full Yannakakis pipeline (reduce, then the
// bottom-up join of the canonical connection, each child join emitting only
// distinct projected rows). The chains project onto their two endpoint
// attributes — the query whose naive plan materializes the whole chain
// join. The bushy cases query two leaves, {G, J}, whose canonical
// connection is the path {D,G}-{A,D}-{A,J}: the join phase skips the other
// five objects. bushy/rows=1000 draws every attribute from 30 values;
// evaljoin is the eval-join workload's shape (see benchEvalJoin), where
// the join phase matches tens of thousands of pairs for about 144 rows.
func BenchmarkExecEval(b *testing.B) {
	ctx := context.Background()
	run := func(name string, db *exec.Database, jt *jointree.JoinTree, attrs []string) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := exec.Eval(ctx, db, jt, attrs)
				if err != nil {
					b.Fatal(err)
				}
				_ = res.Out
			}
		})
	}
	for _, cfg := range []struct{ edges, rows int }{
		{8, 10_000},
		{8, 100_000},
		{64, 10_000},
	} {
		db, jt := benchChain(cfg.edges, cfg.rows)
		nodes := db.Schema.Nodes()
		run(fmt.Sprintf("edges=%d/rows=%d", cfg.edges, cfg.rows), db, jt, []string{nodes[0], nodes[len(nodes)-1]})
	}
	db, jt := benchBushy(1000, 30)
	run("bushy/rows=1000", db, jt, []string{"G", "J"})
	db, jt = benchEvalJoin(2000)
	run("evaljoin/rows=2000-3000", db, jt, []string{"G", "J"})
}

// TestExecChain100k is the at-scale acceptance pin: a 10⁵-row acyclic-chain
// database is fully reduced (the result is the semijoin fixpoint: no
// further semijoin between overlapping objects removes anything) and
// evaluated end to end by the columnar engine.
func TestExecChain100k(t *testing.T) {
	if testing.Short() {
		t.Skip("10⁵-row instance")
	}
	ctx := context.Background()
	db, jt := benchChain(8, 12_500) // 8 objects × 12.5k rows = 10⁵ rows
	if db.NumRows() < 99_000 {
		t.Fatalf("instance smaller than intended: %d rows", db.NumRows())
	}
	res, err := exec.Reduce(ctx, db, jt)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsOut == 0 || res.RowsOut >= res.RowsIn {
		t.Fatalf("implausible reduction: %d -> %d rows", res.RowsIn, res.RowsOut)
	}
	// Full reduction = semijoin fixpoint: re-semijoining any pair of
	// overlapping objects must remove nothing.
	edges := db.Schema.Edges()
	for i, ti := range res.DB.Tables {
		for j, tj := range res.DB.Tables {
			if i == j || !edges[i].Intersects(edges[j]) {
				continue
			}
			again, err := exec.Semijoin(ctx, ti, tj)
			if err != nil {
				t.Fatal(err)
			}
			if again.NumRows() != ti.NumRows() {
				t.Fatalf("object %d not fully reduced against %d: %d -> %d rows",
					i, j, ti.NumRows(), again.NumRows())
			}
		}
	}
	nodes := db.Schema.Nodes()
	ev, err := exec.Eval(ctx, db, jt, []string{nodes[0], nodes[len(nodes)-1]})
	if err != nil {
		t.Fatal(err)
	}
	if ev.Out.NumRows() == 0 {
		t.Fatal("evaluation produced no rows")
	}
}
