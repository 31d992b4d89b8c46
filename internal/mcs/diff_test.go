package mcs_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/gyo"
	"repro/internal/hypergraph"
	"repro/internal/jointree"
	"repro/internal/mcs"
)

// The differential harness: MCS is a second, independent implementation of
// α-acyclicity, so every verdict is cross-checked against Graham reduction
// (gyo.IsAcyclic), every accepted instance must yield a join tree satisfying
// the running-intersection property, and a sample of rejections is
// cross-checked against the constructive Theorem 6.1 witness.

// checkOne verifies one instance and returns the MCS verdict.
func checkOne(t *testing.T, tag string, h *hypergraph.Hypergraph) bool {
	t.Helper()
	r := mcs.Run(h)
	want := gyo.IsAcyclic(h)
	if r.Acyclic != want {
		t.Fatalf("%s: MCS=%v GYO=%v on %v", tag, r.Acyclic, want, h)
	}
	if r.Acyclic {
		jt := &jointree.JoinTree{H: h, Parent: r.Parent}
		if err := jt.Verify(); err != nil {
			t.Fatalf("%s: join tree violates running intersection: %v on %v", tag, err, h)
		}
	} else {
		if r.Cert == nil {
			t.Fatalf("%s: rejection without certificate on %v", tag, h)
		}
		if err := r.Cert.Validate(h); err != nil {
			t.Fatalf("%s: bad certificate: %v on %v", tag, err, h)
		}
	}
	return r.Acyclic
}

// TestDiffExhaustiveSmall: every reduced connected hypergraph on up to 4
// nodes, with the definitive ground truth.
func TestDiffExhaustiveSmall(t *testing.T) {
	total := 0
	for n := 1; n <= 4; n++ {
		for i, h := range gen.AllConnectedReduced(n) {
			checkOne(t, fmt.Sprintf("exhaustive n=%d #%d", n, i), h)
			total++
		}
	}
	if total < 80 { // 1 + 1 + 5 + 84 reduced connected hypergraphs on 1..4 nodes
		t.Fatalf("exhaustive corpus unexpectedly small: %d", total)
	}
}

// TestDiffRandom: seeded random hypergraphs (mixed verdicts) across a sweep
// of sizes and arities. Together with the other differential tests this
// crosses the 10,000-instance bar.
func TestDiffRandom(t *testing.T) {
	specs := []gen.RandomSpec{
		{Nodes: 6, Edges: 5, MinArity: 2, MaxArity: 3},
		{Nodes: 8, Edges: 7, MinArity: 2, MaxArity: 4},
		{Nodes: 12, Edges: 10, MinArity: 2, MaxArity: 5},
		{Nodes: 16, Edges: 14, MinArity: 3, MaxArity: 6},
		{Nodes: 24, Edges: 18, MinArity: 2, MaxArity: 4},
	}
	perSpec := 1600
	if testing.Short() {
		perSpec = 150
	}
	acy := 0
	for si, spec := range specs {
		for seed := 0; seed < perSpec; seed++ {
			rng := rand.New(rand.NewSource(int64(1000*si + seed)))
			h := gen.Random(rng, spec)
			if checkOne(t, fmt.Sprintf("random spec=%d seed=%d", si, seed), h) {
				acy++
			}
		}
	}
	if acy == 0 || acy == len(specs)*perSpec {
		t.Fatalf("degenerate verdict mix: %d acyclic of %d", acy, len(specs)*perSpec)
	}
}

// TestDiffRandomAcyclic: guaranteed-acyclic instances must always be
// accepted with a valid join tree.
func TestDiffRandomAcyclic(t *testing.T) {
	per := 1500
	if testing.Short() {
		per = 200
	}
	for seed := 0; seed < per; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		spec := gen.RandomSpec{Edges: 4 + rng.Intn(28), MinArity: 2, MaxArity: 2 + rng.Intn(4)}
		h := gen.RandomAcyclic(rng, spec)
		if !checkOne(t, fmt.Sprintf("random-acyclic seed=%d", seed), h) {
			t.Fatalf("seed %d: RandomAcyclic instance rejected", seed)
		}
	}
}

// TestDiffUnreduced: MCS must agree with GYO on unreduced inputs too —
// duplicate edges and subset edges injected into random instances.
func TestDiffUnreduced(t *testing.T) {
	per := 800
	if testing.Short() {
		per = 100
	}
	for seed := 0; seed < per; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		base := gen.Random(rng, gen.RandomSpec{Nodes: 8, Edges: 6, MinArity: 2, MaxArity: 4})
		lists := base.EdgeLists()
		lists = append(lists, lists[rng.Intn(len(lists))]) // duplicate
		if len(lists[0]) > 1 {
			lists = append(lists, lists[0][:len(lists[0])-1]) // proper subset
		}
		h := hypergraph.New(lists)
		checkOne(t, fmt.Sprintf("unreduced seed=%d", seed), h)
	}
}

// TestDiffRejectWitness: on a sample of rejected instances the constructive
// Theorem 6.1 machinery must produce an independent path, and on accepted
// instances it must not — the certificate cross-check demanded by the
// harness (witness extraction is polynomial but far from free, hence the
// sample).
func TestDiffRejectWitness(t *testing.T) {
	per := 60
	if testing.Short() {
		per = 10
	}
	checked := 0
	for seed := 0; checked < per && seed < 50*per; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		h := gen.Random(rng, gen.RandomSpec{Nodes: 7, Edges: 6, MinArity: 2, MaxArity: 3})
		r := mcs.Run(h)
		path, f, found, err := core.IndependentPathWitness(h)
		if err != nil {
			t.Fatalf("seed %d: witness error: %v", seed, err)
		}
		if found == r.Acyclic {
			t.Fatalf("seed %d: MCS acyclic=%v but independent path found=%v on %v", seed, r.Acyclic, found, h)
		}
		if !r.Acyclic {
			if err := r.Cert.Validate(h); err != nil {
				t.Fatalf("seed %d: certificate: %v", seed, err)
			}
			if err := path.Validate(f); err != nil {
				t.Fatalf("seed %d: path does not validate in core: %v", seed, err)
			}
			checked++
		}
	}
	if checked < per {
		t.Fatalf("only %d cyclic samples found, want %d", checked, per)
	}
}

// TestDiffMCSTreeMatchesGYOTreeSemantics: on acyclic instances, the GYO
// join tree and the MCS join tree may differ in shape but both must verify;
// this pins the two constructions to the same acceptance set.
func TestDiffMCSTreeMatchesGYOTreeSemantics(t *testing.T) {
	per := 400
	if testing.Short() {
		per = 50
	}
	for seed := 0; seed < per; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		h := gen.RandomAcyclic(rng, gen.RandomSpec{Edges: 12, MinArity: 2, MaxArity: 4})
		gyoTree, ok := jointree.Build(h)
		if !ok {
			t.Fatalf("seed %d: GYO rejected an acyclic instance", seed)
		}
		r := mcs.Run(h)
		if !r.Acyclic {
			t.Fatalf("seed %d: MCS rejected an acyclic instance", seed)
		}
		mcsTree := &jointree.JoinTree{H: h, Parent: r.Parent}
		if err := gyoTree.Verify(); err != nil {
			t.Fatalf("seed %d: GYO tree: %v", seed, err)
		}
		if err := mcsTree.Verify(); err != nil {
			t.Fatalf("seed %d: MCS tree: %v", seed, err)
		}
	}
}
