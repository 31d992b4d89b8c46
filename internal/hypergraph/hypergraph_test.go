package hypergraph

import (
	"reflect"
	"strings"
	"testing"
)

func TestNewInternsSortedUniverse(t *testing.T) {
	h := New([][]string{{"C", "A"}, {"B", "A"}})
	if got := h.Nodes(); !reflect.DeepEqual(got, []string{"A", "B", "C"}) {
		t.Fatalf("Nodes = %v", got)
	}
	if h.NumNodes() != 3 || h.NumEdges() != 2 {
		t.Fatalf("NumNodes=%d NumEdges=%d", h.NumNodes(), h.NumEdges())
	}
	id, ok := h.NodeID("B")
	if !ok || h.NodeName(id) != "B" {
		t.Fatalf("NodeID/NodeName roundtrip failed")
	}
	if _, ok := h.NodeID("Z"); ok {
		t.Fatal("NodeID of unknown name should fail")
	}
}

func TestEdgeAccessors(t *testing.T) {
	h := Fig1()
	if got := h.EdgeNodes(0); !reflect.DeepEqual(got, []string{"A", "B", "C"}) {
		t.Fatalf("EdgeNodes(0) = %v", got)
	}
	lists := h.EdgeLists()
	if len(lists) != 4 || !reflect.DeepEqual(lists[3], []string{"A", "C", "E"}) {
		t.Fatalf("EdgeLists = %v", lists)
	}
	if h.FindEdge(h.MustSet("A", "C", "E")) != 3 {
		t.Fatal("FindEdge failed")
	}
	if h.FindEdge(h.MustSet("A", "B")) != -1 {
		t.Fatal("FindEdge should return -1 for a non-edge")
	}
}

func TestDuplicateNodeInEdgeCollapses(t *testing.T) {
	h := New([][]string{{"A", "A", "B"}})
	if got := h.EdgeNodes(0); !reflect.DeepEqual(got, []string{"A", "B"}) {
		t.Fatalf("edge = %v", got)
	}
}

func TestIsPartialEdge(t *testing.T) {
	h := Fig1()
	if !h.IsPartialEdge(h.MustSet("A", "C")) {
		t.Fatal("{A,C} is a partial edge of Fig1")
	}
	if !h.IsPartialEdge(h.MustSet()) {
		t.Fatal("empty set is a partial edge")
	}
	if h.IsPartialEdge(h.MustSet("B", "D")) {
		t.Fatal("{B,D} is not a partial edge of Fig1")
	}
}

func TestReduce(t *testing.T) {
	h := New([][]string{
		{"A", "B", "C"},
		{"A", "B"},      // subset, removed
		{"C", "D"},      //
		{"C", "D"},      // duplicate, removed
		{"E"},           //
		{"C", "D", "E"}, // absorbs C,D and E
	})
	r := h.Reduce()
	want := New([][]string{{"A", "B", "C"}, {"C", "D", "E"}})
	if !r.EqualEdges(want) {
		t.Fatalf("Reduce = %v, want %v", r, want)
	}
	if !r.IsReduced() {
		t.Fatal("Reduce result should be reduced")
	}
	if r.NumNodes() != h.NumNodes() {
		t.Fatal("Reduce must not change the node set")
	}
}

func TestIsReduced(t *testing.T) {
	if !Fig1().IsReduced() {
		t.Fatal("Fig1 is reduced")
	}
	if New([][]string{{"A", "B"}, {"A"}}).IsReduced() {
		t.Fatal("subset edge not detected")
	}
	if New([][]string{{"A"}, {"A"}}).IsReduced() {
		t.Fatal("duplicate edge not detected")
	}
}

func TestReduceKeepsLoneEmptyEdge(t *testing.T) {
	h := New([][]string{{"A"}}).RemoveNodes(New([][]string{{"A"}}).MustSet("A"))
	// RemoveNodes drops the now-empty edge entirely.
	if h.NumEdges() != 0 {
		t.Fatalf("NumEdges = %d, want 0", h.NumEdges())
	}
}

func TestComponents(t *testing.T) {
	h := New([][]string{{"A", "B"}, {"B", "C"}, {"D", "E"}})
	comps := h.Components()
	if len(comps) != 2 {
		t.Fatalf("components = %d, want 2", len(comps))
	}
	if got := h.NodeNames(comps[0]); !reflect.DeepEqual(got, []string{"A", "B", "C"}) {
		t.Fatalf("comp0 = %v", got)
	}
	if got := h.NodeNames(comps[1]); !reflect.DeepEqual(got, []string{"D", "E"}) {
		t.Fatalf("comp1 = %v", got)
	}
	if h.IsConnected() {
		t.Fatal("should be disconnected")
	}
	if !Fig1().IsConnected() {
		t.Fatal("Fig1 is connected")
	}
}

func TestIsolatedNodesAreComponents(t *testing.T) {
	h := New([][]string{{"A", "B"}})
	sub := h.RemoveNodes(h.MustSet("B"))
	// A remains in an edge remnant {A}; no isolated nodes here.
	if sub.ComponentCount() != 1 {
		t.Fatalf("count = %d, want 1", sub.ComponentCount())
	}
	// NodeGenerated with a node in no edge leaves it isolated.
	g := New([][]string{{"A", "B"}, {"C", "D"}})
	ng := g.NodeGenerated(g.MustSet("A", "C", "D"))
	if ng.ComponentCount() != 2 {
		t.Fatalf("count = %d, want 2 ({A} and {C D})", ng.ComponentCount())
	}
}

func TestNodeGenerated(t *testing.T) {
	h := Fig1()
	// N = {A, C, D}: edges cut down to {A,C}, {C,D}, {A}, {A,C} -> reduced {A,C},{C,D}
	ng := h.NodeGenerated(h.MustSet("A", "C", "D"))
	want := New([][]string{{"A", "C"}, {"C", "D"}})
	if !ng.EqualEdges(want) {
		t.Fatalf("NodeGenerated = %v, want %v", ng, want)
	}
	if ng.NumNodes() != 3 {
		t.Fatalf("node set should be N; got %v", ng.Nodes())
	}
	if !ng.IsReduced() {
		t.Fatal("NodeGenerated must return a reduced hypergraph")
	}
}

func TestNodeGeneratedFullSetIsReduction(t *testing.T) {
	h := New([][]string{{"A", "B"}, {"A"}})
	ng := h.NodeGenerated(h.NodeSet())
	if !ng.EqualEdges(New([][]string{{"A", "B"}})) {
		t.Fatalf("NodeGenerated(all) = %v", ng)
	}
}

func TestRemoveNodes(t *testing.T) {
	h := Fig1()
	r := h.RemoveNodes(h.MustSet("A", "C"))
	// Edges become {B}, {D,E}, {E,F}, {E}; none empty, node set {B,D,E,F}.
	if r.NumNodes() != 4 {
		t.Fatalf("NumNodes = %d", r.NumNodes())
	}
	if r.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d (unreduced expected)", r.NumEdges())
	}
	if r.ComponentCount() != 2 {
		t.Fatalf("components = %d, want 2 ({B} and {D E F})", r.ComponentCount())
	}
}

func TestArticulationSets(t *testing.T) {
	h := Fig1()
	arts := h.ArticulationSets()
	keys := map[string]bool{}
	for _, a := range arts {
		keys[strings.Join(h.NodeNames(a), " ")] = true
	}
	// From the paper: {A,C} = ABC∩ACE, {C,E} = CDE∩ACE, {A,E} = AEF∩ACE all
	// disconnect Fig. 1.
	for _, want := range []string{"A C", "C E", "A E"} {
		if !keys[want] {
			t.Errorf("expected articulation set {%s}; got %v", want, keys)
		}
	}
	if !h.HasArticulationSet() {
		t.Fatal("Fig1 has articulation sets")
	}
	if !h.IsArticulationSet(h.MustSet("A", "C")) {
		t.Fatal("{A,C} is an articulation set")
	}
	if h.IsArticulationSet(h.MustSet("A", "B")) {
		t.Fatal("{A,B} is not an edge intersection")
	}
}

func TestTriangleHasNoArticulationSet(t *testing.T) {
	h := Triangle()
	if h.HasArticulationSet() {
		t.Fatalf("triangle should have none; got %v", h.ArticulationSets())
	}
}

func TestEmptyIntersectionIsNotArticulationInConnected(t *testing.T) {
	// Two disjoint edges bridged by a third: AB ∩ CD = ∅; removing ∅ cannot
	// increase the component count.
	h := New([][]string{{"A", "B"}, {"C", "D"}, {"B", "C"}})
	if h.IsArticulationSet(h.MustSet()) {
		t.Fatal("empty set must not be an articulation set of a connected hypergraph")
	}
	// But {B,C}∩... singleton sets: AB∩BC = {B} separates A from C,D.
	if !h.IsArticulationSet(h.MustSet("B")) {
		t.Fatal("{B} should be an articulation set")
	}
}

func TestEqualAndCanonicalString(t *testing.T) {
	a := New([][]string{{"A", "B"}, {"B", "C"}})
	b := New([][]string{{"C", "B"}, {"B", "A"}})
	if !a.Equal(b) || !a.EqualEdges(b) {
		t.Fatal("edge order and node order must not affect equality")
	}
	if a.CanonicalString() != b.CanonicalString() {
		t.Fatal("canonical strings must agree")
	}
	c := New([][]string{{"A", "B"}})
	if a.Equal(c) {
		t.Fatal("different hypergraphs must not be Equal")
	}
}

func TestCloneAndDeriveIndependence(t *testing.T) {
	h := Fig1()
	c := h.Clone()
	if !h.Equal(c) {
		t.Fatal("clone should be equal")
	}
	d := h.Derive(h.MustSet("A", "B"), h.Edges()[:1])
	if d.NumNodes() != 2 || d.NumEdges() != 1 {
		t.Fatalf("Derive: nodes=%d edges=%d", d.NumNodes(), d.NumEdges())
	}
}

func TestEdgesTouchingAndContaining(t *testing.T) {
	h := Fig1()
	if got := h.EdgesTouching(h.MustSet("B")); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("EdgesTouching(B) = %v", got)
	}
	aID, _ := h.NodeID("A")
	if got := h.Incidence().Edges(aID); !reflect.DeepEqual(got, []int32{0, 2, 3}) {
		t.Fatalf("Incidence().Edges(A) = %v", got)
	}
	if got := h.EdgeContaining(h.MustSet("C", "E")); got != 1 {
		t.Fatalf("EdgeContaining({C,E}) = %d, want 1", got)
	}
	if got := h.EdgeContaining(h.MustSet("B", "F")); got != -1 {
		t.Fatalf("EdgeContaining({B,F}) = %d, want -1", got)
	}
}

func TestParse(t *testing.T) {
	h, names, err := Parse(`
# Figure 1
R1: A B C
R2: C, D, E
A E F
A C E
`)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Equal(Fig1()) {
		t.Fatalf("parsed %v, want Fig1", h)
	}
	if !reflect.DeepEqual(names, []string{"R1", "R2", "", ""}) {
		t.Fatalf("names = %v", names)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"",         // no edges
		"# only",   // no edges
		": A B",    // empty name
		"R1:",      // no nodes
		"R1:   \t", // no nodes after name
	} {
		if _, _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestFormatRoundtrip(t *testing.T) {
	h := Fig1()
	g, _, err := Parse(h.Format())
	if err != nil {
		t.Fatal(err)
	}
	if !h.Equal(g) {
		t.Fatal("Format/Parse roundtrip changed the hypergraph")
	}
}

func TestDOT(t *testing.T) {
	dot := Fig1().DOT("fig1")
	for _, want := range []string{"graph fig1 {", `"A"`, "shape=box", `{A B C}`, "--"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q", want)
		}
	}
	if !strings.Contains(New([][]string{{"X"}}).DOT(""), "graph H {") {
		t.Error("default graph name not applied")
	}
}

func TestNamedExamples(t *testing.T) {
	if Fig1().NumEdges() != 4 || Fig1MinusACE().NumEdges() != 3 {
		t.Fatal("fixture sizes wrong")
	}
	if Fig5().NumEdges() != 4 || CyclicCounterexample().NumEdges() != 4 || Triangle().NumEdges() != 3 {
		t.Fatal("fixture sizes wrong")
	}
	for _, h := range []*Hypergraph{Fig1(), Fig1MinusACE(), Fig5(), CyclicCounterexample(), Triangle()} {
		if !h.IsReduced() || !h.IsConnected() {
			t.Fatalf("fixture %v must be reduced and connected", h)
		}
	}
}

func TestSetErrors(t *testing.T) {
	h := Fig1()
	if _, err := h.Set("A", "nope"); err == nil {
		t.Fatal("Set with unknown node should fail")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustSet should panic on unknown node")
		}
	}()
	h.MustSet("nope")
}
