package core

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bitset"
	"repro/internal/gen"
	"repro/internal/gyo"
	"repro/internal/hypergraph"
	"repro/internal/mcs"
)

func TestCCExample51(t *testing.T) {
	// Example 5.1: CC({A,C}) in Fig1-minus-ACE is the single partial edge
	// {A,C}.
	h := hypergraph.Fig1MinusACE()
	cc := CC(h, h.MustSet("A", "C"))
	if !cc.EqualEdges(hypergraph.New([][]string{{"A", "C"}})) {
		t.Fatalf("CC({A,C}) = %v", cc)
	}
}

func TestExample51IndependentTree(t *testing.T) {
	// The tree {{A},{E},{C}} with tree edges (A-E via {A,E,F}) and
	// (E-C via {C,D,E}) is independent in Fig1-minus-ACE: {E} is not inside
	// CC({A,C}) = {{A,C}}.
	h := hypergraph.Fig1MinusACE()
	tree := &Tree{
		Sets:  []bitset.Set{h.MustSet("A"), h.MustSet("E"), h.MustSet("C")},
		Edges: [][2]int{{0, 1}, {1, 2}},
	}
	if err := tree.Validate(h); err != nil {
		t.Fatalf("tree invalid: %v", err)
	}
	ind, w := tree.IsIndependent(h)
	if !ind || w != 1 {
		t.Fatalf("independence = %v, witness = %d (want true, 1)", ind, w)
	}
}

func TestExample51TreeDiesWithACE(t *testing.T) {
	// With the edge {A,C,E} restored (full Fig. 1), the same tree is no
	// longer a valid connecting tree: {A,C,E} contains all three tree nodes.
	h := hypergraph.Fig1()
	tree := &Tree{
		Sets:  []bitset.Set{h.MustSet("A"), h.MustSet("E"), h.MustSet("C")},
		Edges: [][2]int{{0, 1}, {1, 2}},
	}
	err := tree.Validate(h)
	if err == nil || !strings.Contains(err.Error(), "three tree nodes") {
		t.Fatalf("expected three-tree-nodes violation, got %v", err)
	}
}

func TestLemma52PathFromTree(t *testing.T) {
	h := hypergraph.Fig1MinusACE()
	tree := &Tree{
		Sets:  []bitset.Set{h.MustSet("A"), h.MustSet("E"), h.MustSet("C")},
		Edges: [][2]int{{0, 1}, {1, 2}},
	}
	p, err := PathFromTree(h, tree)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Sets) != 3 {
		t.Fatalf("path = %s", p.String(h))
	}
	if ok, _ := p.IsIndependent(h); !ok {
		t.Fatal("derived path must be independent")
	}
}

func TestPathFromTreeRejectsDependentTree(t *testing.T) {
	// In the acyclic Fig. 5 every connecting tree is dependent
	// (Corollary 6.2); PathFromTree must refuse.
	h := hypergraph.Fig5()
	tree := &Tree{
		Sets:  []bitset.Set{h.MustSet("A"), h.MustSet("B", "C"), h.MustSet("E"), h.MustSet("F")},
		Edges: [][2]int{{0, 1}, {1, 2}, {2, 3}},
	}
	if err := tree.Validate(h); err != nil {
		t.Fatalf("tree should be structurally valid: %v", err)
	}
	if _, err := PathFromTree(h, tree); err == nil {
		t.Fatal("dependent tree must be rejected")
	}
}

func TestPathValidate(t *testing.T) {
	h := hypergraph.Fig1MinusACE()
	good := &Path{Sets: []bitset.Set{h.MustSet("A"), h.MustSet("E"), h.MustSet("C")}}
	if err := good.Validate(h); err != nil {
		t.Fatalf("valid path rejected: %v", err)
	}
	short := &Path{Sets: []bitset.Set{h.MustSet("A")}}
	if err := short.Validate(h); err == nil {
		t.Fatal("single-set path must be invalid")
	}
	empty := &Path{Sets: []bitset.Set{h.MustSet("A"), {}}}
	if err := empty.Validate(h); err == nil {
		t.Fatal("empty set must be invalid")
	}
	dup := &Path{Sets: []bitset.Set{h.MustSet("A"), h.MustSet("E"), h.MustSet("A")}}
	if err := dup.Validate(h); err == nil {
		t.Fatal("duplicate sets must be invalid")
	}
	disjoint := &Path{Sets: []bitset.Set{h.MustSet("A"), h.MustSet("D")}}
	if err := disjoint.Validate(h); err == nil {
		t.Fatal("non-co-edge consecutive pair must be invalid")
	}
}

func TestTreeValidateStructure(t *testing.T) {
	h := hypergraph.Fig1MinusACE()
	a, e, c := h.MustSet("A"), h.MustSet("E"), h.MustSet("C")
	broken := &Tree{Sets: []bitset.Set{a, e, c}, Edges: [][2]int{{0, 1}}}
	if err := broken.Validate(h); err == nil {
		t.Fatal("wrong edge count must fail")
	}
	cyclic := &Tree{Sets: []bitset.Set{a, e, c}, Edges: [][2]int{{0, 1}, {0, 1}}}
	if err := cyclic.Validate(h); err == nil {
		t.Fatal("non-tree structure must fail")
	}
	selfLoop := &Tree{Sets: []bitset.Set{a, e}, Edges: [][2]int{{0, 0}}}
	if err := selfLoop.Validate(h); err == nil {
		t.Fatal("self-loop must fail")
	}
}

// TestTheorem61OnCorpus checks both directions of the main theorem on the
// exhaustive corpus: a hypergraph is cyclic iff the exhaustive search finds
// an independent path.
func TestTheorem61OnCorpus(t *testing.T) {
	for n := 1; n <= 4; n++ {
		for _, h := range gen.AllConnectedReduced(n) {
			acyc := gyo.IsAcyclic(h)
			p, found := FindIndependentPathExhaustive(h, 0)
			if found == acyc {
				t.Fatalf("Theorem 6.1 violated on %v: acyclic=%v, independent path found=%v (%v)",
					h, acyc, found, p)
			}
			if found {
				if err := p.Validate(h); err != nil {
					t.Fatalf("found path invalid on %v: %v", h, err)
				}
				if ok, _ := p.IsIndependent(h); !ok {
					t.Fatalf("found path not independent on %v", h)
				}
			}
		}
	}
}

// TestWitnessOnFamilies: the constructive witness works on classic cyclic
// families of varying size.
func TestWitnessOnFamilies(t *testing.T) {
	graphs := []*hypergraph.Hypergraph{
		hypergraph.Triangle(),
		hypergraph.CyclicCounterexample(),
		hypergraph.Fig1MinusACE(),
		gen.CycleGraph(4),
		gen.CycleGraph(7),
		gen.HyperRing(3),
		gen.HyperRing(5),
		gen.Grid(3, 3),
		gen.CliqueGraph(5),
	}
	for _, h := range graphs {
		p, f, found, err := IndependentPathWitness(h)
		if err != nil {
			t.Fatalf("%v: %v", h, err)
		}
		if !found {
			t.Fatalf("%v: witness must exist for cyclic hypergraph", h)
		}
		if err := p.Validate(f); err != nil {
			t.Fatalf("%v: witness path invalid in core %v: %v", h, f, err)
		}
		if ok, _ := p.IsIndependent(f); !ok {
			t.Fatalf("%v: witness path not independent", h)
		}
	}
}

func TestWitnessAbsentForAcyclic(t *testing.T) {
	for _, h := range []*hypergraph.Hypergraph{
		hypergraph.Fig1(), hypergraph.Fig5(), gen.PathGraph(6), gen.Star(5),
	} {
		if _, _, found, _ := IndependentPathWitness(h); found {
			t.Fatalf("%v: acyclic hypergraph must have no witness", h)
		}
		if HasIndependentPath(h) {
			t.Fatalf("%v: HasIndependentPath must be false", h)
		}
	}
	if !HasIndependentPath(hypergraph.Triangle()) {
		t.Fatal("triangle must have an independent path")
	}
}

// TestWitnessOnRandomCyclic stresses the constructive extractor.
func TestWitnessOnRandomCyclic(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	tested := 0
	for i := 0; i < 120 && tested < 40; i++ {
		h := gen.Random(rng, gen.RandomSpec{Nodes: 9, Edges: 7, MinArity: 2, MaxArity: 4})
		if gyo.IsAcyclic(h) {
			continue
		}
		p, f, found, err := IndependentPathWitness(h)
		if err != nil || !found {
			t.Fatalf("%v: witness extraction failed: found=%v err=%v", h, found, err)
		}
		if err := p.Validate(f); err != nil {
			t.Fatalf("%v: invalid witness: %v", h, err)
		}
		if ok, _ := p.IsIndependent(f); !ok {
			t.Fatalf("%v: dependent witness", h)
		}
		tested++
	}
	if tested < 20 {
		t.Fatalf("only %d cyclic graphs exercised", tested)
	}
}

// TestWitnessFoundIffCyclic is Theorem 6.1 on the paper fixtures and the
// generator families, against the linear-time verdict: the witness exists
// exactly when mcs rejects, and a found path is an independent path of the
// core it is returned with.
func TestWitnessFoundIffCyclic(t *testing.T) {
	hs := []*hypergraph.Hypergraph{
		hypergraph.Fig1(),
		hypergraph.Fig1MinusACE(),
		hypergraph.Fig5(),
		hypergraph.Triangle(),
		hypergraph.CyclicCounterexample(),
		gen.AcyclicChain(40, 3, 1),
		gen.Star(9),
		gen.CycleGraph(8),
		gen.Grid(3, 3),
		gen.HyperRing(6),
	}
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		hs = append(hs,
			gen.RandomAcyclic(rng, gen.RandomSpec{Edges: 12, MinArity: 2, MaxArity: 4}),
			gen.Random(rng, gen.RandomSpec{Nodes: 12, Edges: 10, MinArity: 2, MaxArity: 4}),
		)
	}
	for i, h := range hs {
		cyclic := !mcs.Run(h).Acyclic
		p, f, found, err := IndependentPathWitness(h)
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		if found != cyclic {
			t.Fatalf("instance %d: witness found=%v, mcs cyclic=%v on %v", i, found, cyclic, h)
		}
		if !found {
			if p != nil || f != nil {
				t.Fatalf("instance %d: acyclic input returned a path or core", i)
			}
			continue
		}
		if err := p.Validate(f); err != nil {
			t.Fatalf("instance %d: witness path invalid in its core %v: %v", i, f, err)
		}
		if ok, _ := p.IsIndependent(f); !ok {
			t.Fatalf("instance %d: witness path not independent in its core", i)
		}
	}
}

func TestMinimalCyclicCore(t *testing.T) {
	h := hypergraph.CyclicCounterexample() // {AB,AC,BC,AD}: the core is the triangle
	n, found := MinimalCyclicCore(h)
	if !found {
		t.Fatal("core must exist")
	}
	f := h.NodeGenerated(n)
	if !f.EqualEdges(hypergraph.Triangle()) {
		t.Fatalf("core = %v, want the triangle", f)
	}
	if f.HasArticulationSet() {
		t.Fatal("core must have no articulation set")
	}
	if _, found := MinimalCyclicCore(hypergraph.Fig1()); found {
		t.Fatal("acyclic hypergraph has no cyclic core")
	}
}

func TestBlocksAcyclicGiveSingleEdges(t *testing.T) {
	for _, h := range []*hypergraph.Hypergraph{hypergraph.Fig1(), hypergraph.Fig5(), gen.PathGraph(5)} {
		for _, b := range Blocks(h) {
			if b.NumEdges() > 1 {
				t.Fatalf("%v: acyclic hypergraph decomposed into multi-edge block %v", h, b)
			}
		}
	}
}

func TestBlocksCyclicRetainCore(t *testing.T) {
	h := hypergraph.CyclicCounterexample()
	blocks := Blocks(h)
	foundTriangle := false
	for _, b := range blocks {
		if b.EqualEdges(hypergraph.Triangle()) {
			foundTriangle = true
		}
		if b.NumEdges() > 1 && b.HasArticulationSet() {
			t.Fatalf("block %v still has an articulation set", b)
		}
	}
	if !foundTriangle {
		t.Fatalf("triangle block missing from %v", blocks)
	}
}

func TestBlocksDisconnected(t *testing.T) {
	h := hypergraph.New([][]string{{"A", "B"}, {"X", "Y"}, {"Y", "Z"}, {"Z", "X"}})
	blocks := Blocks(h)
	if len(blocks) < 2 {
		t.Fatalf("blocks = %v", blocks)
	}
}

func TestRingLemma41(t *testing.T) {
	// Triangle: the canonical singleton ring.
	h := hypergraph.Triangle()
	r, found := FindRing(h, 0)
	if !found {
		t.Fatal("triangle must contain a ring")
	}
	if err := r.Validate(h); err != nil {
		t.Fatal(err)
	}
	if len(r.Sets) != 3 {
		t.Fatalf("ring size = %d", len(r.Sets))
	}
	// Fig. 1: the edges {A,B,C}, {C,D,E}, {A,E,F} "form a ring", but the
	// edge {A,C,E} contains the three intersections — no valid Lemma 4.1
	// ring exists, consistent with Fig. 1 being acyclic.
	if _, found := FindRing(hypergraph.Fig1(), 0); found {
		t.Fatal("Fig. 1 must have no Lemma 4.1 ring")
	}
	// But removing {A,C,E} re-enables the ring.
	if _, found := FindRing(hypergraph.Fig1MinusACE(), 0); !found {
		t.Fatal("Fig. 1 minus {A,C,E} must have a ring")
	}
}

// TestLemma41RingImpliesCyclic: on the corpus, wherever a singleton ring is
// found the hypergraph must be cyclic.
func TestLemma41RingImpliesCyclic(t *testing.T) {
	for n := 3; n <= 4; n++ {
		for _, h := range gen.AllConnectedReduced(n) {
			if r, found := FindRing(h, 0); found {
				if err := r.Validate(h); err != nil {
					t.Fatalf("%v: found ring invalid: %v", h, err)
				}
				if gyo.IsAcyclic(h) {
					t.Fatalf("Lemma 4.1 violated: %v has ring %v but is acyclic", h, r)
				}
			}
		}
	}
}

func TestRingValidateRejects(t *testing.T) {
	h := hypergraph.Triangle()
	a, b, c := h.MustSet("A"), h.MustSet("B"), h.MustSet("C")
	if err := (&Ring{Sets: []bitset.Set{a, b}, Edges: []int{0, 1}}).Validate(h); err == nil {
		t.Fatal("k=2 must fail")
	}
	if err := (&Ring{Sets: []bitset.Set{a, b, a.Or(b)}, Edges: []int{0, 1, 2}}).Validate(h); err == nil {
		t.Fatal("overlapping sets must fail")
	}
	if err := (&Ring{Sets: []bitset.Set{a, b, c}, Edges: []int{0, 0, 0}}).Validate(h); err == nil {
		t.Fatal("wrong edges must fail")
	}
}

// TestLemma42 on random acyclic hypergraphs.
func TestLemma42(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 30; i++ {
		h := gen.RandomAcyclic(rng, gen.RandomSpec{Edges: 8, MinArity: 2, MaxArity: 4})
		x := gen.RandomNodeSubset(rng, h, 0.35)
		if err := CheckLemma42(h, x); err != nil {
			t.Fatalf("%v, X=%v: %v", h, h.NodeNames(x), err)
		}
	}
	if err := CheckLemma42(hypergraph.Fig1(), hypergraph.Fig1().MustSet("A", "D")); err != nil {
		t.Fatal(err)
	}
}

// TestCorollary62 via trees: on acyclic corpus members no exhaustive path
// exists, and PathFromTree refuses everything; on cyclic ones the witness
// path can be reshaped into a 2-leaf tree that is independent.
func TestCorollary62(t *testing.T) {
	h := hypergraph.Fig1MinusACE()
	p, found := FindIndependentPathExhaustive(h, 0)
	if !found {
		t.Fatal("want path on cyclic hypergraph")
	}
	// A path is a tree whose leaves are its endpoints.
	tree := &Tree{Sets: p.Sets}
	for i := 0; i+1 < len(p.Sets); i++ {
		tree.Edges = append(tree.Edges, [2]int{i, i + 1})
	}
	if err := tree.Validate(h); err != nil {
		t.Fatal(err)
	}
	if ok, _ := tree.IsIndependent(h); !ok {
		t.Fatal("path-as-tree must be independent")
	}
}

func TestPathString(t *testing.T) {
	h := hypergraph.Fig1MinusACE()
	p := &Path{Sets: []bitset.Set{h.MustSet("A"), h.MustSet("E"), h.MustSet("C")}}
	if got := p.String(h); got != "{A} - {E} - {C}" {
		t.Fatalf("String = %q", got)
	}
}

func TestCCNodesContainSacred(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 20; i++ {
		h := gen.Random(rng, gen.RandomSpec{Nodes: 7, Edges: 5, MinArity: 2, MaxArity: 4})
		x := gen.RandomNodeSubset(rng, h, 0.4).And(h.CoveredNodes())
		if !x.IsSubset(CCNodes(h, x)) {
			t.Fatalf("%v: CC nodes must contain the sacred set", h)
		}
	}
}
