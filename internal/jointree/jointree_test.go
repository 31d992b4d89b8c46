package jointree

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/gyo"
	"repro/internal/hypergraph"
)

func TestBuildFig1(t *testing.T) {
	h := hypergraph.Fig1()
	jt, ok := Build(h)
	if !ok {
		t.Fatal("Fig1 is acyclic; join tree must exist")
	}
	if err := jt.Verify(); err != nil {
		t.Fatal(err)
	}
	if len(jt.Roots()) != 1 {
		t.Fatalf("roots = %v, want one", jt.Roots())
	}
	if len(jt.PostOrder()) != 4 {
		t.Fatalf("postorder = %v", jt.PostOrder())
	}
}

func TestBuildCtxObservesCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := BuildCtx(ctx, hypergraph.Fig1()); err != context.Canceled {
		t.Fatalf("BuildCtx on dead context: err = %v, want context.Canceled", err)
	}
	// And the ctx-less wrapper still works on the same input.
	if _, ok := Build(hypergraph.Fig1()); !ok {
		t.Fatal("Build(Fig1) must succeed")
	}
}

func TestBuildFailsOnCyclic(t *testing.T) {
	for _, h := range []*hypergraph.Hypergraph{
		hypergraph.Triangle(), hypergraph.CyclicCounterexample(), gen.CycleGraph(5),
	} {
		if _, ok := Build(h); ok {
			t.Errorf("%v: cyclic hypergraph must have no join tree", h)
		}
		if _, ok := BuildMST(h); ok {
			t.Errorf("%v: MST construction must fail on cyclic hypergraph", h)
		}
	}
}

func TestBuildMSTAgreesWithGYOOnCorpus(t *testing.T) {
	for n := 1; n <= 4; n++ {
		for _, h := range gen.AllConnectedReduced(n) {
			_, gyoOK := Build(h)
			_, mstOK := BuildMST(h)
			acyc := gyo.IsAcyclic(h)
			if gyoOK != acyc || mstOK != acyc {
				t.Fatalf("%v: acyclic=%v but Build=%v BuildMST=%v", h, acyc, gyoOK, mstOK)
			}
		}
	}
}

func TestBuildRandomAcyclic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		h := gen.RandomAcyclic(rng, gen.RandomSpec{Edges: 15, MinArity: 2, MaxArity: 5})
		jt, ok := Build(h)
		if !ok {
			t.Fatalf("%v: join tree must exist", h)
		}
		if err := jt.Verify(); err != nil {
			t.Fatalf("%v: %v", h, err)
		}
		mst, ok := BuildMST(h)
		if !ok {
			t.Fatalf("%v: MST join tree must exist", h)
		}
		if err := mst.Verify(); err != nil {
			t.Fatalf("%v: %v", h, err)
		}
	}
}

func TestDisconnectedForest(t *testing.T) {
	h := hypergraph.New([][]string{{"A", "B"}, {"B", "C"}, {"X", "Y"}})
	jt, ok := Build(h)
	if !ok {
		t.Fatal("disconnected acyclic hypergraph must have a join forest")
	}
	if len(jt.Roots()) != 2 {
		t.Fatalf("roots = %v, want two (one per component)", jt.Roots())
	}
	if err := jt.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyCatchesBadTree(t *testing.T) {
	// Path A-B, B-C, C-D arranged so that B's holders are disconnected:
	// make edge 0 ({A,B}) a child of edge 2 ({C,D}).
	h := gen.PathGraph(4)
	bad := &JoinTree{H: h, Parent: []int{2, -1, 1}}
	if err := bad.Verify(); err == nil {
		t.Fatal("running-intersection violation not caught")
	}
	short := &JoinTree{H: h, Parent: []int{-1}}
	if err := short.Verify(); err == nil {
		t.Fatal("size mismatch not caught")
	}
	self := &JoinTree{H: h, Parent: []int{0, -1, 1}}
	if err := self.Verify(); err == nil {
		t.Fatal("self-parent not caught")
	}
	cycle := &JoinTree{H: h, Parent: []int{1, 2, 0}}
	if err := cycle.Verify(); err == nil {
		t.Fatal("rootless cycle not caught")
	}
}

// naiveVerify is the seed's per-node holder BFS, kept as the reference the
// single-sweep Verify is pinned against. It reports only the RIP verdict
// (structural errors are covered by TestVerifyCatchesBadTree).
func naiveVerify(t *JoinTree) bool {
	m := t.H.NumEdges()
	adj := make([][]int, m)
	for i, p := range t.Parent {
		if p >= 0 {
			adj[i] = append(adj[i], p)
			adj[p] = append(adj[p], i)
		}
	}
	ok := true
	x := t.H.Incidence()
	t.H.CoveredNodes().ForEach(func(n int) {
		holders := x.Edges(n)
		if len(holders) <= 1 {
			return
		}
		in := map[int]bool{}
		for _, e := range holders {
			in[int(e)] = true
		}
		seen := map[int]bool{int(holders[0]): true}
		queue := []int{int(holders[0])}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range adj[v] {
				if in[w] && !seen[w] {
					seen[w] = true
					queue = append(queue, w)
				}
			}
		}
		if len(seen) != len(holders) {
			ok = false
		}
	})
	return ok
}

// isForest reports whether every edge reaches a root through parent links.
func isForest(parent []int) bool {
	for i := range parent {
		v, steps := i, 0
		for parent[v] >= 0 {
			v = parent[v]
			if steps++; steps > len(parent) {
				return false
			}
		}
	}
	return true
}

// TestVerifyMatchesNaiveDifferential: on random acyclic instances, the
// MCS-built tree and randomly corrupted variants of it must get the same
// verdict from the sweep-based Verify and the per-node BFS reference.
func TestVerifyMatchesNaiveDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		h := gen.RandomAcyclic(rng, gen.RandomSpec{Edges: 3 + rng.Intn(20), MinArity: 2, MaxArity: 5})
		jt, ok := BuildMCS(h)
		if !ok {
			t.Fatalf("trial %d: acyclic instance rejected", trial)
		}
		if err := jt.Verify(); err != nil {
			t.Fatalf("trial %d: valid tree rejected: %v", trial, err)
		}
		if !naiveVerify(jt) {
			t.Fatalf("trial %d: reference rejects the MCS tree", trial)
		}
		// Corrupt a parent link (keeping the structure a rooted forest) and
		// compare verdicts.
		m := h.NumEdges()
		if m < 3 {
			continue
		}
		bad := &JoinTree{H: h, Parent: append([]int{}, jt.Parent...)}
		for k := 0; k < 3; k++ {
			i := rng.Intn(m)
			p := rng.Intn(m)
			if p != i {
				bad.Parent[i] = p
			}
		}
		gotErr := bad.Verify()
		if !isForest(bad.Parent) {
			// Reparenting may close a parent cycle; the sweep must reject it
			// (the undirected reference cannot see link direction, so no
			// verdict comparison is meaningful here).
			if gotErr == nil {
				t.Fatalf("trial %d: cyclic parent links accepted\n parent=%v", trial, bad.Parent)
			}
			continue
		}
		want := naiveVerify(bad)
		if (gotErr == nil) != want {
			t.Fatalf("trial %d: Verify=%v reference=%v\n h=%v\n parent=%v", trial, gotErr, want, h, bad.Parent)
		}
	}
}

func TestFullReducerShape(t *testing.T) {
	h := gen.PathGraph(4) // edges AB, BC, CD
	jt, ok := Build(h)
	if !ok {
		t.Fatal("path must be acyclic")
	}
	prog := jt.FullReducer()
	// Two passes over m-1 tree edges each.
	if len(prog) != 2*(h.NumEdges()-1) {
		t.Fatalf("program length = %d, want %d", len(prog), 2*(h.NumEdges()-1))
	}
	// Upward pass first: each step's target is the parent of its source;
	// downward pass mirrors it.
	for i := 0; i < len(prog)/2; i++ {
		if jt.Parent[prog[i].Source] != prog[i].Target {
			t.Fatalf("upward step %d: %v is not child->parent", i, prog[i])
		}
	}
	for i := len(prog) / 2; i < len(prog); i++ {
		if jt.Parent[prog[i].Target] != prog[i].Source {
			t.Fatalf("downward step %d: %v is not parent->child", i, prog[i])
		}
	}
	if !strings.Contains(prog[0].String(), "⋉=") {
		t.Fatalf("step rendering: %q", prog[0].String())
	}
}

func TestStringRendering(t *testing.T) {
	h := gen.PathGraph(3)
	jt, _ := Build(h)
	s := jt.String()
	if !strings.Contains(s, "root") {
		t.Fatalf("String = %q", s)
	}
}
