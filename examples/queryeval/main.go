// Queryeval: the paper's payoff executed over real data — an acyclic
// schema's join tree yields a two-pass semijoin full reducer, and running
// it through the columnar execution layer (repro.ExecDatabase) makes
// Yannakakis join evaluation output-sensitive: dangling tuples die in the
// reduction, and the join phase joins only the canonical connection of the
// query attributes, so it only touches rows that reach the output.
// The demo evaluates the same query naively (full join, then project) and
// through Analysis.Eval, comparing results and work.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"

	"repro"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// A three-object chain schema: enrollments join courses join offices.
	h, err := repro.NewBuilder().
		NamedEdge("Enroll", "student", "course").
		NamedEdge("Course", "course", "prof").
		NamedEdge("Office", "prof", "room").
		Build()
	if err != nil {
		return err
	}
	a := repro.Analyze(h)
	fmt.Fprintln(w, "schema:", h)
	fmt.Fprintln(w, "acyclic:", a.Verdict())
	prog, err := a.FullReducer()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "full reducer:", prog)

	// Hand-sized instance: every object carries one dangling tuple (bob's
	// course has no professor, the logic course has no enrollments, and
	// one office belongs to nobody teaching).
	dict := repro.NewDict()
	mustTable := func(attrs []string, rows ...[]string) *repro.ExecTable {
		t, err := repro.NewExecTable(dict, attrs, rows)
		if err != nil {
			panic(err)
		}
		return t
	}
	enroll := mustTable([]string{"student", "course"},
		[]string{"alice", "db"}, []string{"alice", "ai"}, []string{"bob", "archery"})
	course := mustTable([]string{"course", "prof"},
		[]string{"db", "maier"}, []string{"ai", "ullman"}, []string{"logic", "codd"})
	office := mustTable([]string{"prof", "room"},
		[]string{"maier", "101"}, []string{"ullman", "202"}, []string{"gray", "303"})
	db, err := repro.NewExecDatabase(h, []*repro.ExecTable{enroll, course, office})
	if err != nil {
		return err
	}

	ctx := context.Background()
	red, err := a.Reduce(ctx, db)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nreduction: %d -> %d rows\n", red.RowsIn, red.RowsOut)
	for _, s := range red.Steps {
		fmt.Fprintf(w, "  R%d ⋉= R%d: %d -> %d rows\n", s.Step.Target, s.Step.Source, s.RowsIn, s.RowsOut)
	}

	res, err := a.Eval(ctx, db, []string{"student", "room"})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\nwho sits where — π{student room}(Enroll ⋈ Course ⋈ Office):")
	fmt.Fprint(w, res.Out)

	// The naive plan over the string-keyed relation layer answers the same
	// query by materializing the whole join first; equality is the
	// differential guarantee, the row counts are the paper's point.
	objects := make([]*repro.Relation, h.NumEdges())
	for i, t := range db.Tables {
		objects[i] = t.ToRelation()
	}
	naiveDB, err := repro.NewDatabase(h, objects)
	if err != nil {
		return err
	}
	naive, err := naiveDB.QueryFull([]string{"student", "room"})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "matches naive full-join evaluation:", res.Out.ToRelation().Equal(naive))

	// The same pipeline at synthetic scale: a seeded random instance over a
	// longer chain, where the reduction does real work before the join.
	rng := rand.New(rand.NewSource(1))
	big, err := chainInstance(rng, 6, 5000)
	if err != nil {
		return err
	}
	ba := repro.Analyze(big.Schema)
	nodes := big.Schema.Nodes()
	bres, err := ba.Eval(ctx, big, []string{nodes[0], nodes[len(nodes)-1]})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nsynthetic chain (6 objects × 5000 rows): reduced %d -> %d rows, output %d rows\n",
		bres.Reduce.RowsIn, bres.Reduce.RowsOut, bres.Out.NumRows())
	fmt.Fprintf(w, "join phase matched %d row pairs joining the canonical connection (output-sensitive after reduction)\n",
		bres.JoinRows)
	return nil
}

// chainInstance builds a binary-chain schema of m edges with rows random
// tuples per object.
func chainInstance(rng *rand.Rand, m, rows int) (*repro.ExecDatabase, error) {
	b := repro.NewBuilder()
	for i := 0; i < m; i++ {
		b.Edge(fmt.Sprintf("A%d", i), fmt.Sprintf("A%d", i+1))
	}
	schema, err := b.Build()
	if err != nil {
		return nil, err
	}
	dict := repro.NewDict()
	tables := make([]*repro.ExecTable, schema.NumEdges())
	for i := range tables {
		data := make([][]string, rows)
		for r := range data {
			data[r] = []string{
				fmt.Sprintf("v%d", rng.Intn(rows)),
				fmt.Sprintf("v%d", rng.Intn(rows)),
			}
		}
		t, err := repro.NewExecTable(dict, schema.EdgeNodes(i), data)
		if err != nil {
			return nil, err
		}
		tables[i] = t
	}
	return repro.NewExecDatabase(schema, tables)
}
