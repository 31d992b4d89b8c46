// Command experiments reproduces every figure, worked example, and theorem
// of Maier & Ullman, "Connections in Acyclic Hypergraphs", printing what the
// paper states next to what this implementation computes. The output is
// the record: every line is recomputed on each run, so no copy is kept.
//
// Usage:
//
//	experiments            # run everything
//	experiments -run fig5  # run one experiment (see -list)
//	experiments -list      # list experiment ids
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"repro/internal/acyclic"
	"repro/internal/bitset"
	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/gen"
	"repro/internal/gyo"
	"repro/internal/hypergraph"
	"repro/internal/jointree"
	"repro/internal/relation"
	"repro/internal/report"
	"repro/internal/tableau"
)

type experiment struct {
	id    string
	title string
	run   func(w io.Writer) error
}

var experiments = []experiment{
	{"fig1", "Figure 1: the canonical acyclic hypergraph", runFig1},
	{"example22", "Example 2.2: Graham reduction GR(H, {A,D})", runExample22},
	{"fig2", "Figure 2: the tableau for Figure 1", runFig2},
	{"fig3", "Figure 3 / Example 3.3: the reduced tableau and TR(H, {A,D})", runFig3},
	{"theorem35", "Theorem 3.5: GR = TR on acyclic hypergraphs (+ cyclic counterexample)", runTheorem35},
	{"lemma36", "Lemma 3.6 / Corollary 3.7: TR is node-generated and preserves acyclicity", runLemma36},
	{"lemma38", "Lemma 3.8: monotonicity of TR in the sacred set", runLemma38},
	{"lemma39", "Lemma 3.9: eliminated nodes", runLemma39},
	{"lemma310", "Lemma 3.10: articulation sets exclude unsacred components", runLemma310},
	{"lemma41", "Lemma 4.1: rings of edges force cyclicity", runLemma41},
	{"lemma42", "Lemma 4.2 (Figure 4): articulation sets of TR come from H", runLemma42},
	{"fig5", "Figure 5: two apparent paths, one canonical connection", runFig5},
	{"example51", "Figure 6 / Example 5.1: an independent tree", runExample51},
	{"lemma52", "Lemma 5.2: independent tree => independent path", runLemma52},
	{"theorem61", "Theorem 6.1 (Figures 7, 8): acyclic <=> no independent path", runTheorem61},
	{"corollary62", "Corollary 6.2: acyclic <=> no independent tree", runCorollary62},
	{"blocks", "Abstract: blocks generalize articulation-point-free subgraphs", runBlocks},
	{"database", "Section 7: the universal-relation interpretation", runDatabase},
	{"dependencies", "Section 7 context: acyclic JDs are equivalent to their join-tree MVDs (chase)", runDependencies},
	{"maximalobjects", "Section 7 follow-up [8]: maximal-object semantics for cyclic schemas", runMaximalObjects},
}

func main() {
	runID := flag.String("run", "all", "experiment id to run, or 'all'")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()
	if *list {
		for _, e := range experiments {
			fmt.Printf("%-12s %s\n", e.id, e.title)
		}
		return
	}
	failed := 0
	for _, e := range experiments {
		if *runID != "all" && e.id != *runID {
			continue
		}
		report.Section(os.Stdout, fmt.Sprintf("[%s] %s", e.id, e.title))
		if err := e.run(os.Stdout); err != nil {
			fmt.Fprintf(os.Stdout, "FAIL: %v\n", err)
			failed++
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "%d experiment(s) failed\n", failed)
		os.Exit(1)
	}
}

func verdict(w io.Writer, claim string, ok bool) error {
	mark := "PASS"
	if !ok {
		mark = "FAIL"
	}
	fmt.Fprintf(w, "%s  %s\n", mark, claim)
	if !ok {
		return fmt.Errorf("%s", claim)
	}
	return nil
}

func runFig1(w io.Writer) error {
	h := hypergraph.Fig1()
	fmt.Fprintf(w, "H1 = %v\n", h)
	def, err := acyclic.IsAcyclicByDefinition(h)
	if err != nil {
		return err
	}
	t := report.NewTable("test", "paper", "measured")
	t.Add("acyclic via Graham reduction", true, gyo.IsAcyclic(h))
	t.Add("acyclic via the §1 definition", true, def)
	t.Add("Berge-acyclic", false, acyclic.IsBergeAcyclic(h))
	t.Render(w)
	arts := h.ArticulationSets()
	fmt.Fprintf(w, "articulation sets: ")
	for i, a := range arts {
		if i > 0 {
			fmt.Fprint(w, ", ")
		}
		fmt.Fprintf(w, "{%s}", join(h.NodeNames(a)))
	}
	fmt.Fprintln(w)
	ok := gyo.IsAcyclic(h) && def && !acyclic.IsBergeAcyclic(h) && len(arts) > 0
	return verdict(w, "Figure 1 is acyclic in the paper's sense but Berge-cyclic", ok)
}

func runExample22(w io.Writer) error {
	h := hypergraph.Fig1()
	r := gyo.Reduce(h, h.MustSet("A", "D"))
	fmt.Fprintf(w, "GR(H1, {A,D}) trace:\n%s", r.Trace())
	fmt.Fprintf(w, "result: %v\n", r.Hypergraph)
	want := hypergraph.New([][]string{{"A", "C", "E"}, {"C", "D", "E"}})
	return verdict(w, "GR(H1, {A,D}) = {{A,C,E}, {C,D,E}} (paper Example 2.2)",
		r.Hypergraph.EqualEdges(want))
}

func runFig2(w io.Writer) error {
	h := hypergraph.Fig1()
	tab := tableau.New(h, h.MustSet("A", "D"))
	fmt.Fprint(w, tab.String())
	aID, _ := h.NodeID("A")
	bID, _ := h.NodeID("B")
	ok := tab.IsDistinguished(aID) && !tab.IsDistinguished(bID) &&
		tab.SpecialOccurrences(aID) == 3 && tab.SpecialOccurrences(bID) == 1
	return verdict(w, "tableau has distinguished a, d; special symbols match edge membership", ok)
}

func runFig3(w io.Writer) error {
	h := hypergraph.Fig1()
	mn := tableau.Reduce(h, h.MustSet("A", "D"))
	fmt.Fprint(w, mn.String())
	fmt.Fprintf(w, "minimal rows (0-based): %v  — paper: rows 2 and 4 (1-based)\n", mn.Rows)
	fmt.Fprintf(w, "row mapping: %v  — paper: h sends rows 1,3,4 to 4 and 2 to 2\n", mn.Mapping)
	tr := mn.Hypergraph()
	fmt.Fprintf(w, "TR(H1, {A,D}) = %v\n", tr)
	want := hypergraph.New([][]string{{"C", "D", "E"}, {"A", "C", "E"}})
	return verdict(w, "TR(H1, {A,D}) = {{C,D,E}, {A,C,E}} (paper Example 3.3)", tr.EqualEdges(want))
}

func runTheorem35(w io.Writer) error {
	// Exhaustive corpus check.
	checked, graphs := 0, 0
	for n := 1; n <= 4; n++ {
		for _, h := range gen.AllConnectedReduced(n) {
			if !gyo.IsAcyclic(h) {
				continue
			}
			graphs++
			ids := h.NodeSet().Elems()
			for mask := 0; mask < 1<<len(ids); mask++ {
				var x bitset.Set
				for b := range ids {
					if mask&(1<<b) != 0 {
						x.Add(ids[b])
					}
				}
				if !gyo.Reduce(h, x).Hypergraph.EqualEdges(tableau.TR(h, x)) {
					return verdict(w, "GR = TR on acyclic corpus", false)
				}
				checked++
			}
		}
	}
	fmt.Fprintf(w, "checked GR(H,X) = TR(H,X) on %d acyclic hypergraphs × every sacred set = %d cases\n",
		graphs, checked)
	// The cyclic counterexample.
	h := hypergraph.CyclicCounterexample()
	d := h.MustSet("D")
	gr := gyo.Reduce(h, d).Hypergraph
	tr := tableau.TR(h, d)
	fmt.Fprintf(w, "cyclic counterexample %v with D sacred:\n  GR = %v (stuck)\n  TR = %v (collapses)\n", h, gr, tr)
	ok := gr.EqualEdges(h) && tr.EqualEdges(hypergraph.New([][]string{{"D"}}))
	return verdict(w, "Theorem 3.5 holds on acyclic inputs and fails on the cyclic counterexample", ok)
}

func runLemma36(w io.Writer) error {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		h := gen.Random(rng, gen.RandomSpec{Nodes: 7, Edges: 5, MinArity: 2, MaxArity: 4})
		x := gen.RandomNodeSubset(rng, h, 0.3)
		tr := tableau.TR(h, x)
		if !tr.EqualEdges(h.NodeGenerated(tr.CoveredNodes())) {
			return verdict(w, "TR(H,X) is node-generated", false)
		}
	}
	rng = rand.New(rand.NewSource(2))
	for i := 0; i < 50; i++ {
		h := gen.RandomAcyclic(rng, gen.RandomSpec{Edges: 7, MinArity: 2, MaxArity: 4})
		if !gyo.IsAcyclic(tableau.TR(h, gen.RandomNodeSubset(rng, h, 0.3))) {
			return verdict(w, "TR preserves acyclicity", false)
		}
	}
	fmt.Fprintln(w, "100 random instances: TR(H,X) node-generated (any H); TR acyclic for acyclic H")
	return verdict(w, "Lemma 3.6 and Corollary 3.7 hold on randomized instances", true)
}

func runLemma38(w io.Writer) error {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 60; i++ {
		h := gen.Random(rng, gen.RandomSpec{Nodes: 7, Edges: 5, MinArity: 2, MaxArity: 4})
		y := gen.RandomNodeSubset(rng, h, 0.5)
		x := y.And(gen.RandomNodeSubset(rng, h, 0.5))
		trX, trY := tableau.TR(h, x), tableau.TR(h, y)
		for _, e := range trX.Edges() {
			if trY.EdgeContaining(e) < 0 {
				return verdict(w, "TR monotone in sacred set", false)
			}
		}
	}
	fmt.Fprintln(w, "60 random (H, X ⊆ Y): every edge of TR(H,X) inside an edge of TR(H,Y)")
	return verdict(w, "Lemma 3.8 holds on randomized instances", true)
}

func runLemma39(w io.Writer) error {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 60; i++ {
		h := gen.Random(rng, gen.RandomSpec{Nodes: 7, Edges: 5, MinArity: 2, MaxArity: 4})
		x := gen.RandomNodeSubset(rng, h, 0.3)
		mn := tableau.Reduce(h, x)
		trNodes := mn.Hypergraph().CoveredNodes()
		bad := false
		edges := h.Edges()
		h.NodeSet().ForEach(func(n int) {
			for r, e := range edges {
				if e.Contains(n) && !edges[mn.Mapping[r]].Contains(n) && trNodes.Contains(n) {
					bad = true
				}
			}
		})
		if bad {
			return verdict(w, "Lemma 3.9", false)
		}
	}
	fmt.Fprintln(w, "60 random instances: nodes mapped away by the row mapping never survive in TR")
	return verdict(w, "Lemma 3.9 holds on randomized instances", true)
}

func runLemma310(w io.Writer) error {
	rng := rand.New(rand.NewSource(5))
	tested := 0
	for i := 0; i < 300 && tested < 60; i++ {
		h := gen.Random(rng, gen.RandomSpec{Nodes: 8, Edges: 6, MinArity: 2, MaxArity: 3})
		arts := h.ArticulationSets()
		if len(arts) == 0 {
			continue
		}
		y := arts[rng.Intn(len(arts))]
		comps := h.RemoveNodes(y).Components()
		if len(comps) < 2 {
			continue
		}
		n := comps[rng.Intn(len(comps))]
		x := gen.RandomNodeSubset(rng, h, 0.4).AndNot(n)
		if tableau.TR(h, x).CoveredNodes().Intersects(n) {
			return verdict(w, "Lemma 3.10", false)
		}
		tested++
	}
	fmt.Fprintf(w, "%d articulation-set configurations: TR(H,X) avoids components disjoint from X\n", tested)
	return verdict(w, "Lemma 3.10 holds on randomized instances", tested >= 30)
}

func runLemma41(w io.Writer) error {
	t := report.NewTable("hypergraph", "ring found", "acyclic", "consistent")
	rows := []struct {
		name string
		h    *hypergraph.Hypergraph
	}{
		{"triangle", hypergraph.Triangle()},
		{"Fig. 1", hypergraph.Fig1()},
		{"Fig. 1 − {A,C,E}", hypergraph.Fig1MinusACE()},
		{"cycle C5", gen.CycleGraph(5)},
		{"hyper-ring k=4", gen.HyperRing(4)},
		{"path P5", gen.PathGraph(5)},
	}
	allOK := true
	for _, r := range rows {
		_, found := core.FindRing(r.h, 0)
		acyc := gyo.IsAcyclic(r.h)
		consistent := !found || !acyc // ring => cyclic
		allOK = allOK && consistent
		t.Add(r.name, found, acyc, consistent)
	}
	t.Render(w)
	// Corpus sweep.
	for n := 3; n <= 4; n++ {
		for _, h := range gen.AllConnectedReduced(n) {
			if _, found := core.FindRing(h, 0); found && gyo.IsAcyclic(h) {
				return verdict(w, "Lemma 4.1 on corpus", false)
			}
		}
	}
	fmt.Fprintln(w, "corpus sweep (n ≤ 4): every singleton ring lives in a cyclic hypergraph")
	fmt.Fprintln(w, "note: Fig. 1's ring {A,B,C},{C,D,E},{A,E,F} is disarmed by edge {A,C,E} (three intersections)")
	return verdict(w, "Lemma 4.1 holds: rings force cyclicity", allOK)
}

func runLemma42(w io.Writer) error {
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 60; i++ {
		h := gen.RandomAcyclic(rng, gen.RandomSpec{Edges: 8, MinArity: 2, MaxArity: 4})
		x := gen.RandomNodeSubset(rng, h, 0.35)
		if err := core.CheckLemma42(h, x); err != nil {
			return err
		}
	}
	fmt.Fprintln(w, "60 random acyclic (H, X): articulation sets of TR(H,X) are edge intersections of H")
	fmt.Fprintln(w, "and separate the same components (Figure 4's configuration)")
	return verdict(w, "Lemma 4.2 holds on randomized instances", true)
}

func runFig5(w io.Writer) error {
	h := hypergraph.Fig5()
	fmt.Fprintf(w, "H5 = %v (reconstructed from the properties the paper states)\n", h)
	// Two apparent paths: dropping edge 1 or edge 2 keeps A connected to F.
	drop := func(skip int) *hypergraph.Hypergraph {
		var edges [][]string
		for i := 0; i < h.NumEdges(); i++ {
			if i != skip {
				edges = append(edges, h.EdgeNodes(i))
			}
		}
		return hypergraph.New(edges)
	}
	ok := gyo.IsAcyclic(h)
	for _, skip := range []int{1, 2} {
		g := drop(skip)
		connected := g.IsConnected()
		fmt.Fprintf(w, "drop edge #%d -> %v, still connected: %v\n", skip, g, connected)
		ok = ok && connected
	}
	cc := tableau.TR(h, h.MustSet("A", "F"))
	fmt.Fprintf(w, "CC({A,F}) = %v\n", cc)
	ok = ok && cc.EqualEdges(h)
	// The closing footnote: subsets of the canonical connection can still
	// connect the nodes — but the canonical connection is the unique one.
	conns, err := core.MinimalConnectors(h, h.MustSet("A", "F"))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "minimal connectors between A and F: %v (footnote: subsets of CC suffice to connect)\n", conns)
	ok = ok && len(conns) == 2
	return verdict(w, "Figure 5: acyclic, two apparent paths (= two minimal connectors), CC({A,F}) holds all four edges", ok)
}

func runExample51(w io.Writer) error {
	h := hypergraph.Fig1MinusACE()
	cc := tableau.TR(h, h.MustSet("A", "C"))
	fmt.Fprintf(w, "H = %v (Fig. 1 minus {A,C,E})\n", h)
	fmt.Fprintf(w, "CC({A,C}) = %v — paper: the single partial edge {A,C}\n", cc)
	tree := &core.Tree{
		Sets:  []bitset.Set{h.MustSet("A"), h.MustSet("E"), h.MustSet("C")},
		Edges: [][2]int{{0, 1}, {1, 2}},
	}
	err1 := tree.Validate(h)
	ind, witness := tree.IsIndependent(h)
	fmt.Fprintf(w, "tree {A}-{E}-{C} (Fig. 6): valid=%v independent=%v witness=set#%d ({E})\n",
		err1 == nil, ind, witness)
	// Restore {A,C,E}: the tree stops being a connecting tree.
	full := hypergraph.Fig1()
	tree2 := &core.Tree{
		Sets:  []bitset.Set{full.MustSet("A"), full.MustSet("E"), full.MustSet("C")},
		Edges: [][2]int{{0, 1}, {1, 2}},
	}
	err2 := tree2.Validate(full)
	fmt.Fprintf(w, "same tree in full Fig. 1: valid=%v (%v)\n", err2 == nil, err2)
	ok := cc.EqualEdges(hypergraph.New([][]string{{"A", "C"}})) &&
		err1 == nil && ind && witness == 1 && err2 != nil
	return verdict(w, "Example 5.1: {{A},{E},{C}} is independent without {A,C,E}, dies with it", ok)
}

func runLemma52(w io.Writer) error {
	h := hypergraph.Fig1MinusACE()
	tree := &core.Tree{
		Sets:  []bitset.Set{h.MustSet("A"), h.MustSet("E"), h.MustSet("C")},
		Edges: [][2]int{{0, 1}, {1, 2}},
	}
	p, err := core.PathFromTree(h, tree)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "independent tree -> independent path: %s\n", p.String(h))
	ind, _ := p.IsIndependent(h)
	return verdict(w, "Lemma 5.2: the derived path is an independent path", ind)
}

func runTheorem61(w io.Writer) error {
	cyclicCount, acyclicCount := 0, 0
	for n := 1; n <= 4; n++ {
		for _, h := range gen.AllConnectedReduced(n) {
			acyc := gyo.IsAcyclic(h)
			_, found := core.FindIndependentPathExhaustive(h, 0)
			if found == acyc {
				return fmt.Errorf("Theorem 6.1 violated on %v", h)
			}
			if acyc {
				acyclicCount++
			} else {
				cyclicCount++
			}
		}
	}
	fmt.Fprintf(w, "exhaustive corpus: %d acyclic hypergraphs -> no independent path; %d cyclic -> path found\n",
		acyclicCount, cyclicCount)
	t := report.NewTable("cyclic family", "witness path (in its cyclic core)")
	for _, f := range []struct {
		name string
		h    *hypergraph.Hypergraph
	}{
		{"triangle", hypergraph.Triangle()},
		{"counterexample {AB,AC,BC,AD}", hypergraph.CyclicCounterexample()},
		{"Fig. 1 − {A,C,E}", hypergraph.Fig1MinusACE()},
		{"cycle C6", gen.CycleGraph(6)},
		{"hyper-ring k=5", gen.HyperRing(5)},
		{"grid 3×3", gen.Grid(3, 3)},
	} {
		p, fCore, found, err := core.IndependentPathWitness(f.h)
		if err != nil || !found {
			return fmt.Errorf("%s: witness extraction failed: %v", f.name, err)
		}
		t.Add(f.name, p.String(fCore))
	}
	t.Render(w)
	return verdict(w, "Theorem 6.1: acyclic <=> no independent path (both directions)", true)
}

func runCorollary62(w io.Writer) error {
	h := hypergraph.Fig1MinusACE()
	p, found := core.FindIndependentPathExhaustive(h, 0)
	if !found {
		return fmt.Errorf("no path on cyclic input")
	}
	tree := &core.Tree{Sets: p.Sets}
	for i := 0; i+1 < len(p.Sets); i++ {
		tree.Edges = append(tree.Edges, [2]int{i, i + 1})
	}
	ind, _ := tree.IsIndependent(h)
	fmt.Fprintf(w, "independent path %s doubles as an independent tree\n", p.String(h))
	// Acyclic side: no independent path exists (Theorem 6.1), and by
	// Lemma 5.2 an independent tree would produce one.
	_, foundAcyclic := core.FindIndependentPathExhaustive(hypergraph.Fig1(), 0)
	return verdict(w, "Corollary 6.2: independent trees exist exactly for cyclic hypergraphs",
		ind && !foundAcyclic)
}

func runBlocks(w io.Writer) error {
	t := report.NewTable("hypergraph", "blocks")
	ok := true
	for _, f := range []struct {
		name string
		h    *hypergraph.Hypergraph
	}{
		{"Fig. 1 (acyclic)", hypergraph.Fig1()},
		{"counterexample", hypergraph.CyclicCounterexample()},
		{"triangle", hypergraph.Triangle()},
	} {
		blocks := core.Blocks(f.h)
		desc := ""
		for i, b := range blocks {
			if i > 0 {
				desc += " | "
			}
			desc += b.String()
		}
		t.Add(f.name, desc)
		multi := 0
		for _, b := range blocks {
			if b.NumEdges() > 1 {
				multi++
			}
		}
		if gyo.IsAcyclic(f.h) && multi > 0 {
			ok = false
		}
		if !gyo.IsAcyclic(f.h) && multi == 0 {
			ok = false
		}
	}
	t.Render(w)
	return verdict(w, "acyclic hypergraphs shatter into single edges; cyclic ones keep a multi-edge block", ok)
}

func runDatabase(w io.Writer) error {
	// Acyclic schema: CC query == full query on consistent data.
	schema := hypergraph.New([][]string{
		{"Course", "Teacher"},
		{"Course", "Student", "Grade"},
		{"Student", "Dept"},
	})
	u := relation.MustNew(
		[]string{"Course", "Teacher", "Student", "Grade", "Dept"},
		[]string{"db", "ullman", "alice", "A", "cs"},
		[]string{"db", "ullman", "bob", "B", "cs"},
		[]string{"ai", "maier", "alice", "B", "cs"},
		[]string{"ai", "maier", "carol", "A", "math"},
	)
	d, err := db.FromUniversal(schema, u)
	if err != nil {
		return err
	}
	objs, _ := d.ConnectionObjects([]string{"Teacher", "Dept"})
	fmt.Fprintf(w, "university schema %v\n", schema)
	fmt.Fprintf(w, "query {Teacher, Dept}: canonical connection joins objects %v of %d\n",
		objs, schema.NumEdges())
	full, _ := d.QueryFull([]string{"Teacher", "Dept"})
	cc, _ := d.QueryCC([]string{"Teacher", "Dept"})
	yan, _ := d.QueryYannakakis([]string{"Teacher", "Dept"})
	fmt.Fprintf(w, "answer (%d tuples):\n%s", cc.Card(), cc.String())
	ok := full.Equal(cc) && full.Equal(yan)

	// Cyclic warning: triangle instance, pairwise consistent, empty join.
	tri, objects := gen.TriangleWitnessInstance()
	td, err := db.New(tri, objects)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "cyclic triangle instance: pairwise consistent=%v globally consistent=%v full join=%d tuples\n",
		td.IsPairwiseConsistent(), td.IsGloballyConsistent(), td.FullJoin().Card())
	ok = ok && td.IsPairwiseConsistent() && !td.IsGloballyConsistent() && td.FullJoin().Card() == 0

	// JD acyclicity.
	jd := db.JD{Schema: schema}
	tjd := db.JD{Schema: tri}
	fmt.Fprintf(w, "JD over university schema acyclic: %v; JD over triangle acyclic: %v\n",
		jd.IsAcyclic(), tjd.IsAcyclic())
	ok = ok && jd.IsAcyclic() && !tjd.IsAcyclic()

	// Join tree + full reducer for the acyclic schema.
	jt, jok := jointree.Build(schema)
	if !jok {
		return fmt.Errorf("join tree must exist")
	}
	fmt.Fprintf(w, "join tree: %v\nfull reducer:", jt)
	for _, s := range jt.FullReducer() {
		fmt.Fprintf(w, " %v;", s)
	}
	fmt.Fprintln(w)
	return verdict(w, "§7: acyclic schemas answer connection queries via CC; cyclic schemas need extra care", ok)
}

func runDependencies(w io.Writer) error {
	// Acyclic: the JD and its join-tree MVD basis imply each other.
	schemas := []*hypergraph.Hypergraph{
		hypergraph.Fig1(),
		hypergraph.New([][]string{{"Course", "Teacher"}, {"Course", "Student", "Grade"}, {"Student", "Dept"}}),
	}
	for _, h := range schemas {
		jt, ok := jointree.Build(h)
		if !ok {
			return fmt.Errorf("%v must be acyclic", h)
		}
		mvds, err := chase.JoinTreeMVDs(h, jt.Parent)
		if err != nil {
			return err
		}
		jd := chase.FromHypergraph(h)
		fwd, err := chase.Implies(mvds, jd, h.Nodes(), 200000)
		if err != nil {
			return err
		}
		backAll := true
		for _, m := range mvds {
			back, err := chase.Implies([]chase.JD{jd}, m, h.Nodes(), 200000)
			if err != nil {
				return err
			}
			backAll = backAll && back
		}
		fmt.Fprintf(w, "%v: MVDs => JD: %v; JD => each MVD: %v\n", h, fwd, backAll)
		if !fwd || !backAll {
			return verdict(w, "acyclic JD equivalent to join-tree MVDs", false)
		}
	}
	// Cyclic: one direction survives, the other fails.
	tri := hypergraph.Triangle()
	mvds, err := chase.JoinTreeMVDs(tri, []int{-1, 0, 1})
	if err != nil {
		return err
	}
	jd := chase.FromHypergraph(tri)
	fwd, _ := chase.Implies(mvds, jd, tri.Nodes(), 100000)
	nontrivial := chase.MVD([]string{"C"}, []string{"A", "C"}, tri.Nodes())
	back, _ := chase.Implies([]chase.JD{jd}, nontrivial, tri.Nodes(), 100000)
	fmt.Fprintf(w, "triangle: spanning-tree MVDs => JD: %v; JD => MVD C→→A: %v\n", fwd, back)
	return verdict(w, "BFMY equivalence holds for acyclic JDs and breaks (one direction) for the triangle",
		fwd && !back)
}

func runMaximalObjects(w io.Writer) error {
	schema, objects := gen.TriangleWitnessInstance()
	d, err := db.New(schema, objects)
	if err != nil {
		return err
	}
	mos, err := db.MaximalObjects(d)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "triangle maximal objects: %v\n", mos)
	naive, _ := d.QueryFull([]string{"A", "C"})
	mo, err := d.QueryMaximalObjects([]string{"A", "C"})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "query {A,C}: naive=%d tuples, maximal-object semantics=%d tuples\n",
		naive.Card(), mo.Card())
	ok := len(mos) == 3 && naive.Card() == 0 && mo.Card() > 0
	return verdict(w, "maximal objects recover answers the empty full join loses on cyclic schemas", ok)
}

func join(names []string) string {
	out := ""
	for i, n := range names {
		if i > 0 {
			out += " "
		}
		out += n
	}
	return out
}
