package repro

import (
	"testing"
)

func TestFacadeFig1Flow(t *testing.T) {
	h := Fig1()
	if !Analyze(h).Verdict() {
		t.Fatal("Fig1 is acyclic")
	}
	gr, err := GrahamReduction(h, "A", "D")
	if err != nil {
		t.Fatal(err)
	}
	cc, err := CanonicalConnection(h, "A", "D")
	if err != nil {
		t.Fatal(err)
	}
	if !gr.EqualEdges(cc) {
		t.Fatalf("Theorem 3.5 through the facade: GR=%v CC=%v", gr, cc)
	}
	want := NewHypergraph([][]string{{"A", "C", "E"}, {"C", "D", "E"}})
	if !gr.EqualEdges(want) {
		t.Fatalf("GR = %v", gr)
	}
}

func TestFacadeTrace(t *testing.T) {
	r, err := GrahamReductionTrace(Fig1(), "A", "D")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Steps) == 0 || r.Vanished() {
		t.Fatalf("trace = %v, vanished = %v", r.Steps, r.Vanished())
	}
	if _, err := GrahamReductionTrace(Fig1(), "Z"); err == nil {
		t.Fatal("unknown sacred node must fail")
	}
}

func TestFacadeTableau(t *testing.T) {
	tab, err := NewTableau(Fig1(), "A", "D")
	if err != nil {
		t.Fatal(err)
	}
	mn := tab.Minimize()
	if len(mn.Rows) != 2 {
		t.Fatalf("minimal rows = %v", mn.Rows)
	}
	if _, err := NewTableau(Fig1(), "Z"); err == nil {
		t.Fatal("unknown node must fail")
	}
	if _, err := TableauReduction(Fig1(), "Z"); err == nil {
		t.Fatal("unknown node must fail")
	}
}

func TestFacadeWitness(t *testing.T) {
	tri := NewHypergraph([][]string{{"A", "B"}, {"B", "C"}, {"C", "A"}})
	if !HasIndependentPath(tri) {
		t.Fatal("triangle must have an independent path")
	}
	p, coreGraph, found, err := IndependentPathWitness(tri)
	if err != nil || !found {
		t.Fatalf("witness: found=%v err=%v", found, err)
	}
	if err := p.Validate(coreGraph); err != nil {
		t.Fatal(err)
	}
	if _, _, found, _ := IndependentPathWitness(Fig1()); found {
		t.Fatal("acyclic hypergraph has no witness")
	}
}

func TestFacadeJoinTreeAndBlocks(t *testing.T) {
	jt, err := Analyze(Fig1()).JoinTree()
	if err != nil || jt.Verify() != nil {
		t.Fatal("join tree must exist for Fig1")
	}
	if len(Blocks(Fig1())) == 0 {
		t.Fatal("blocks must not be empty")
	}
	if _, ok := FindRing(Fig1()); ok {
		t.Fatal("Fig1 has no Lemma 4.1 ring")
	}
	c := Analyze(Fig1()).Spectrum()
	if !c.Alpha || c.Berge {
		t.Fatalf("spectrum = %v", c)
	}
}

func TestFacadeDatabase(t *testing.T) {
	schema := NewHypergraph([][]string{{"A", "B"}, {"B", "C"}})
	u, err := NewRelation([]string{"A", "B", "C"},
		[]string{"1", "x", "p"},
		[]string{"2", "x", "p"},
	)
	if err != nil {
		t.Fatal(err)
	}
	d, err := DatabaseFromUniversal(schema, u)
	if err != nil {
		t.Fatal(err)
	}
	full, err := d.QueryFull([]string{"A", "C"})
	if err != nil {
		t.Fatal(err)
	}
	cc, err := d.QueryCC([]string{"A", "C"})
	if err != nil {
		t.Fatal(err)
	}
	if !full.Equal(cc) {
		t.Fatal("CC query must agree with full query on consistent acyclic data")
	}
	if _, err := NewDatabase(schema, nil); err == nil {
		t.Fatal("wrong object count must fail")
	}
}

func TestFacadeDependencies(t *testing.T) {
	schema := NewHypergraph([][]string{{"A", "B"}, {"B", "C"}})
	mvds, err := JoinTreeMVDs(schema)
	if err != nil {
		t.Fatal(err)
	}
	jd := JoinDependency(schema)
	ok, err := JDImplies(mvds, jd, schema.Nodes(), 10000)
	if err != nil || !ok {
		t.Fatalf("MVDs must imply the acyclic JD: %v %v", ok, err)
	}
	tri := NewHypergraph([][]string{{"A", "B"}, {"B", "C"}, {"C", "A"}})
	if _, err := JoinTreeMVDs(tri); err == nil {
		t.Fatal("cyclic schema must have no join-tree MVDs")
	}
}

func TestFacadeMinimalConnectors(t *testing.T) {
	conns, err := MinimalConnectors(Fig5(), "A", "F")
	if err != nil {
		t.Fatal(err)
	}
	if len(conns) != 2 {
		t.Fatalf("connectors = %v, want two (the footnote's two apparent paths)", conns)
	}
	if _, err := MinimalConnectors(Fig5(), "Z"); err == nil {
		t.Fatal("unknown node must fail")
	}
}

func TestFacadeMCSAndEngine(t *testing.T) {
	tri := NewHypergraph([][]string{{"A", "B"}, {"B", "C"}, {"C", "A"}})
	if !Analyze(Fig1()).Verdict() || Analyze(tri).Verdict() {
		t.Fatal("MCS-backed Verdict broken")
	}
	for _, h := range []*Hypergraph{Fig1(), tri} {
		if Analyze(h).Verdict() != Analyze(h).GrahamTrace().Vanished() {
			t.Fatal("MCS and GYO must agree")
		}
	}
	r := Analyze(Fig1()).MCS()
	if !r.Acyclic || r.Cert != nil || len(r.Parent) != Fig1().NumEdges() {
		t.Fatalf("MCS result = %+v", r)
	}
	if rc := Analyze(tri).MCS(); rc.Acyclic || rc.Cert == nil || rc.Cert.Validate(tri) != nil {
		t.Fatalf("triangle certificate = %+v", rc.Cert)
	}
	jt, err := Analyze(Fig1()).JoinTree()
	if err != nil || jt.Verify() != nil {
		t.Fatal("MCS join tree must exist and verify for Fig1")
	}
	e := NewEngine()
	for i, h := range []*Hypergraph{Fig1(), tri, Fig5()} {
		if got, want := e.Analyze(h).Verdict(), i != 1; got != want {
			t.Fatalf("engine verdict %d = %v, want %v", i, got, want)
		}
	}
	if st := e.Stats(); st.Entries != 3 {
		t.Fatalf("engine stats = %+v", st)
	}
}

func TestFacadeParse(t *testing.T) {
	h, names, err := ParseHypergraph("R1: A B\nB C\n")
	if err != nil {
		t.Fatal(err)
	}
	if h.NumEdges() != 2 || names[0] != "R1" {
		t.Fatalf("parse: %v %v", h, names)
	}
	if !Fig5().IsConnected() {
		t.Fatal("Fig5 fixture broken")
	}
}
