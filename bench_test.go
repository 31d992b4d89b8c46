package repro

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/acyclic"
	"repro/internal/bitset"
	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/gyo"
	"repro/internal/hypergraph"
	"repro/internal/jointree"
	"repro/internal/mcs"
	"repro/internal/spectrum"
	"repro/internal/tableau"
)

// Each benchmark times one experiment of `go run ./cmd/experiments` (the
// E-* tags name them); `go run ./cmd/benchtab` prints the same data as
// shaped tables.

// BenchmarkFig1Acyclicity — E-F1: the Figure 1 acyclicity test.
func BenchmarkFig1Acyclicity(b *testing.B) {
	h := hypergraph.Fig1()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !gyo.IsAcyclic(h) {
			b.Fatal("fig1 must be acyclic")
		}
	}
}

// BenchmarkGrahamReductionExample22 — E-EX22.
func BenchmarkGrahamReductionExample22(b *testing.B) {
	h := hypergraph.Fig1()
	x := h.MustSet("A", "D")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		gyo.Reduce(h, x)
	}
}

// BenchmarkTableauReduceFig1 — E-F2/E-F3: build + minimize the Fig. 1
// tableau.
func BenchmarkTableauReduceFig1(b *testing.B) {
	h := hypergraph.Fig1()
	x := h.MustSet("A", "D")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tableau.Reduce(h, x)
	}
}

// BenchmarkGRvsTR — E-T35: the two reductions side by side on random
// acyclic hypergraphs of growing size.
func BenchmarkGRvsTR(b *testing.B) {
	for _, m := range []int{8, 16, 32} {
		h := gen.RandomAcyclic(rand.New(rand.NewSource(int64(m))), gen.RandomSpec{Edges: m, MinArity: 2, MaxArity: 4})
		x := gen.RandomNodeSubset(rand.New(rand.NewSource(99)), h, 0.2)
		b.Run(fmt.Sprintf("GR/m=%d", m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				gyo.Reduce(h, x)
			}
		})
		b.Run(fmt.Sprintf("TR/m=%d", m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tableau.TR(h, x)
			}
		})
	}
}

// BenchmarkGYO — P-GYO: Graham reduction scaling on acyclic chains.
func BenchmarkGYO(b *testing.B) {
	for _, m := range []int{50, 200, 800} {
		h := gen.AcyclicChain(m, 3, 1)
		b.Run(fmt.Sprintf("chain/m=%d", m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !gyo.Reduce(h, bitset.Set{}).Vanished() {
					b.Fatal("chain must vanish")
				}
			}
		})
	}
}

// BenchmarkAcyclicityTests compares the three acyclicity deciders on the
// same small input (the definition-based one is exponential by design).
func BenchmarkAcyclicityTests(b *testing.B) {
	h := hypergraph.Fig1()
	b.Run("gyo", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			gyo.IsAcyclic(h)
		}
	})
	b.Run("definition", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if ok, err := acyclic.IsAcyclicByDefinition(h); err != nil || !ok {
				b.Fatal("fig1 must be acyclic")
			}
		}
	})
	b.Run("jointree-mst", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := jointree.BuildMST(h); !ok {
				b.Fatal("fig1 must have a join tree")
			}
		}
	})
	b.Run("mcs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !mcs.IsAcyclic(h) {
				b.Fatal("fig1 must be acyclic")
			}
		}
	})
}

// largeFamilies builds the 10⁴–10⁵-edge benchmark instances. The
// name-interned AcyclicChain historically stopped at 10⁴ edges because the
// dense bitset representation charged universe/64 words per edge (~2.5 GB
// at 10⁵); storing edges as sorted id runs removed that wall — see
// BenchmarkSparseMillionEdges for the unbounded-universe tier — and these
// families are kept for the name-interning construction path.
func largeFamilies() []struct {
	name string
	h    *hypergraph.Hypergraph
} {
	rng := rand.New(rand.NewSource(42))
	return []struct {
		name string
		h    *hypergraph.Hypergraph
	}{
		{"chain/m=10000", gen.AcyclicChain(10_000, 3, 1)},
		{"blocks/m=10000", gen.AcyclicBlocks(rng, 10_000, 16, 256)},
		{"blocks/m=100000", gen.AcyclicBlocks(rng, 100_000, 16, 256)},
		{"randomraw/m=10000", gen.RandomRaw(rng, gen.RandomSpec{Nodes: 2048, Edges: 10_000, MinArity: 2, MaxArity: 5})},
		{"randomraw/m=100000", gen.RandomRaw(rng, gen.RandomSpec{Nodes: 2048, Edges: 100_000, MinArity: 2, MaxArity: 5})},
	}
}

// BenchmarkAcyclicityTestsLarge — the MCS-vs-GYO scaling race at production
// sizes: guaranteed-acyclic families (accept path, join-tree emitted) and
// raw random instances (reject path) at 10⁴–10⁵ edges. Per-op time divided
// by edge count exhibits MCS's linear scaling.
func BenchmarkAcyclicityTestsLarge(b *testing.B) {
	for _, f := range largeFamilies() {
		want := mcs.IsAcyclic(f.h)
		b.Run("mcs/"+f.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if mcs.IsAcyclic(f.h) != want {
					b.Fatal("verdict mismatch")
				}
			}
		})
		b.Run("gyo/"+f.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if gyo.IsAcyclic(f.h) != want {
					b.Fatal("verdict mismatch")
				}
			}
		})
	}
}

// BenchmarkJoinTreeLarge — join-tree construction at scale from the MCS
// ordering (the GYO-trace Build runs a quadratic-ish Verify pass and is not
// usable at these sizes, which is exactly why BuildMCS skips it).
func BenchmarkJoinTreeLarge(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	for _, f := range []struct {
		name string
		h    *hypergraph.Hypergraph
	}{
		{"chain/m=10000", gen.AcyclicChain(10_000, 3, 1)},
		{"blocks/m=100000", gen.AcyclicBlocks(rng, 100_000, 16, 256)},
	} {
		b.Run("mcs/"+f.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok := jointree.BuildMCS(f.h); !ok {
					b.Fatal("family must be acyclic")
				}
			}
		})
	}
}

// BenchmarkSparseMillionEdges — the representation-layer headline: a
// 10⁶-edge unbounded-universe chain (≈2·10⁶ nodes), the family the dense
// representation capped near 10⁵ edges (universe/64 words per edge ≈ 250 KB,
// ≈250 GB total at this size). Stored as one flat member list the whole
// instance costs ~edge-size memory and every stage — construction,
// MCS verdict, join-tree build, running-intersection verification — runs in
// well under a second on commodity hardware.
func BenchmarkSparseMillionEdges(b *testing.B) {
	const m = 1_000_000
	h := gen.AcyclicChainIDs(m, 3, 1)
	b.Run("construct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			gen.AcyclicChainIDs(m, 3, 1)
		}
	})
	b.Run("mcs-verdict", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !mcs.IsAcyclic(h) {
				b.Fatal("chain must be acyclic")
			}
		}
	})
	b.Run("jointree-build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := jointree.BuildMCS(h); !ok {
				b.Fatal("chain must be acyclic")
			}
		}
	})
	jt, _ := jointree.BuildMCS(h)
	b.Run("verify", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := jt.Verify(); err != nil {
				b.Fatal(err)
			}
		}
	})
	reject := gen.RandomRawIDs(rand.New(rand.NewSource(42)),
		gen.RandomSpec{Nodes: 1 << 16, Edges: m, MinArity: 2, MaxArity: 5})
	b.Run("mcs-reject", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if mcs.IsAcyclic(reject) {
				b.Fatal("random raw instance should be cyclic")
			}
		}
	})
}

// BenchmarkReduceScaling — the linearized hypergraph.Reduce from 10⁴ to 10⁵
// edges on subset-heavy block families whose block count scales with m (so
// per-block subset populations stay bounded). ns/op divided by edge count
// staying flat is the superlinear→linear evidence; the seed's all-pairs
// subset scan grew quadratically here.
func BenchmarkReduceScaling(b *testing.B) {
	for _, m := range []int{10_000, 100_000} {
		rng := rand.New(rand.NewSource(int64(m)))
		h := gen.AcyclicBlocksIDs(rng, m, m/625, 256)
		b.Run(fmt.Sprintf("blocks/m=%d", m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h.Reduce()
			}
		})
	}
}

// BenchmarkJoinTreeVerifyScaling — the single-sweep JoinTree.Verify from
// 10⁴ to 10⁵ edges; the seed's per-node holder BFS was the quadratic hot
// spot on families where node degree grows with m.
func BenchmarkJoinTreeVerifyScaling(b *testing.B) {
	for _, m := range []int{10_000, 100_000} {
		h := gen.AcyclicChainIDs(m, 3, 1)
		jt, ok := jointree.BuildMCS(h)
		if !ok {
			b.Fatal("chain must be acyclic")
		}
		b.Run(fmt.Sprintf("chain/m=%d", m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := jt.Verify(); err != nil {
					b.Fatal(err)
				}
			}
		})
		rng := rand.New(rand.NewSource(int64(m)))
		hb := gen.AcyclicBlocksIDs(rng, m, m/625, 256)
		jtb, ok := jointree.BuildMCS(hb)
		if !ok {
			b.Fatal("blocks must be acyclic")
		}
		b.Run(fmt.Sprintf("blocks/m=%d", m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := jtb.Verify(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineMemo — the memoizing engine against plain GYO and MCS
// loops on a mixed workload, cold and warm. The memo turns repeat traffic
// into map probes.
func BenchmarkEngineMemo(b *testing.B) {
	const n = 256
	hs := make([]*hypergraph.Hypergraph, n)
	for i := range hs {
		rng := rand.New(rand.NewSource(int64(i)))
		if i%2 == 0 {
			hs[i] = gen.RandomAcyclic(rng, gen.RandomSpec{Edges: 400, MinArity: 2, MaxArity: 4})
		} else {
			hs[i] = gen.Random(rng, gen.RandomSpec{Nodes: 300, Edges: 400, MinArity: 2, MaxArity: 4})
		}
	}
	b.Run("serial-gyo", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, h := range hs {
				gyo.IsAcyclic(h)
			}
		}
	})
	b.Run("serial-mcs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, h := range hs {
				mcs.IsAcyclic(h)
			}
		}
	})
	verdicts := func(e *engine.Engine) {
		for _, h := range hs {
			e.Analyze(h).Verdict()
		}
	}
	b.Run("engine-cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			e := engine.New() // fresh memo: every query misses
			b.StartTimer()
			verdicts(e)
		}
	})
	b.Run("engine-warm", func(b *testing.B) {
		e := engine.New()
		verdicts(e)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			verdicts(e)
		}
	})
}

// BenchmarkFingerprint — the streaming 128-bit memo key against the
// canonical-string route it replaced. The warm engine path pays exactly one
// fingerprint per query, so the "string" vs "streaming128" gap is the
// warm-path win; "engine-warm-single" measures the end-to-end repeat query
// (fingerprint + shard probe) on a 10⁵-edge schema. The streaming digest is
// cached on the hypergraph at first use, so "streaming128" on a warmed
// hypergraph is a field read; "streaming128-cold" clones first to measure
// the digest computation itself.
func BenchmarkFingerprint(b *testing.B) {
	h := gen.AcyclicChainIDs(100_000, 3, 1)
	named := gen.AcyclicChain(10_000, 3, 1)
	b.Run("string/ids-m=100000", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Fingerprint()
		}
	})
	b.Run("streaming128-cold/ids-m=100000", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			c := h.Clone() // fresh handle: digest not yet cached
			b.StartTimer()
			c.Fingerprint128()
		}
	})
	b.Run("streaming128-warm/ids-m=100000", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Fingerprint128()
		}
	})
	b.Run("string/names-m=10000", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			named.Fingerprint()
		}
	})
	b.Run("streaming128-cold/names-m=10000", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			c := named.Clone()
			b.StartTimer()
			c.Fingerprint128()
		}
	})
	e := engine.New()
	e.Analyze(h).Verdict()
	b.Run("engine-warm-single/ids-m=100000", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !e.Analyze(h).Verdict() {
				b.Fatal("chain must be acyclic")
			}
		}
	})
}

// BenchmarkCC — P-CC: canonical connection queries across families.
func BenchmarkCC(b *testing.B) {
	fams := []struct {
		name string
		h    *hypergraph.Hypergraph
	}{
		{"chain16", gen.AcyclicChain(16, 3, 1)},
		{"chain64", gen.AcyclicChain(64, 3, 1)},
		{"star24", gen.Star(24)},
	}
	for _, f := range fams {
		x := gen.RandomNodeSubset(rand.New(rand.NewSource(5)), f.h, 0.15)
		b.Run(f.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				core.CC(f.h, x)
			}
		})
	}
}

// BenchmarkIndependentPathWitness — E-T61/P-WIT: constructive witness
// extraction on cyclic families.
func BenchmarkIndependentPathWitness(b *testing.B) {
	fams := []struct {
		name string
		h    *hypergraph.Hypergraph
	}{
		{"cycle8", gen.CycleGraph(8)},
		{"hyperring8", gen.HyperRing(8)},
		{"grid3x3", gen.Grid(3, 3)},
	}
	for _, f := range fams {
		b.Run(f.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, found, err := core.IndependentPathWitness(f.h); err != nil || !found {
					b.Fatalf("witness failed: %v", err)
				}
			}
		})
	}
}

// BenchmarkExhaustivePathSearch — E-T61: the exhaustive search used for the
// corpus validation of Theorem 6.1.
func BenchmarkExhaustivePathSearch(b *testing.B) {
	h := hypergraph.Fig1MinusACE()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, found := core.FindIndependentPathExhaustive(h, 0); !found {
			b.Fatal("path must exist")
		}
	}
}

// BenchmarkCCQueryVsFullJoin — E-DB: the §7 query strategies.
func BenchmarkCCQueryVsFullJoin(b *testing.B) {
	schema := gen.AcyclicChain(6, 2, 1)
	rng := rand.New(rand.NewSource(8))
	u := gen.UniversalRelation(rng, schema, gen.InstanceSpec{Rows: 200, DomainSize: 8})
	d, err := db.FromUniversal(schema, u)
	if err != nil {
		b.Fatal(err)
	}
	attrs := []string{schema.Nodes()[0]}
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := d.QueryFull(attrs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := d.QueryCC(attrs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("yannakakis", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := d.QueryYannakakis(attrs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkYannakakis — P-YAN: chain-length sweep of both strategies.
func BenchmarkYannakakis(b *testing.B) {
	for _, m := range []int{4, 6} {
		schema := gen.AcyclicChain(m, 2, 1)
		rng := rand.New(rand.NewSource(int64(m)))
		u := gen.UniversalRelation(rng, schema, gen.InstanceSpec{Rows: 120, DomainSize: 8})
		d, err := db.FromUniversal(schema, u)
		if err != nil {
			b.Fatal(err)
		}
		attrs := []string{schema.Nodes()[0]}
		b.Run(fmt.Sprintf("naive/m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := d.QueryFull(attrs); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("yannakakis/m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := d.QueryYannakakis(attrs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBlocks — abstract: the block decomposition.
func BenchmarkBlocks(b *testing.B) {
	h := hypergraph.CyclicCounterexample()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		core.Blocks(h)
	}
}

// BenchmarkFullReducer — §7 substrate: deriving and applying a semijoin
// program.
func BenchmarkFullReducer(b *testing.B) {
	schema := gen.AcyclicChain(8, 2, 1)
	jt, ok := jointree.Build(schema)
	if !ok {
		b.Fatal("chain must be acyclic")
	}
	rng := rand.New(rand.NewSource(3))
	u := gen.UniversalRelation(rng, schema, gen.InstanceSpec{Rows: 150, DomainSize: 6})
	d, err := db.FromUniversal(schema, u)
	if err != nil {
		b.Fatal(err)
	}
	prog := jt.FullReducer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.ApplyReducer(prog)
	}
}

// BenchmarkChaseImplication — E-DEP: deciding the BFMY equivalence by chase.
func BenchmarkChaseImplication(b *testing.B) {
	h := hypergraph.Fig1()
	jt, ok := jointree.Build(h)
	if !ok {
		b.Fatal("fig1 must be acyclic")
	}
	mvds, err := chase.JoinTreeMVDs(h, jt.Parent)
	if err != nil {
		b.Fatal(err)
	}
	jd := chase.FromHypergraph(h)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ok, err := chase.Implies(mvds, jd, h.Nodes(), 200000)
		if err != nil || !ok {
			b.Fatalf("implication failed: %v", err)
		}
	}
}

// BenchmarkMaximalObjects — E-MO: maximal-object enumeration.
func BenchmarkMaximalObjects(b *testing.B) {
	schema, objects := gen.TriangleWitnessInstance()
	d, err := db.New(schema, objects)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := db.MaximalObjects(d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSemijoinFixpoint — the brute-force reducer against the
// join-tree program (jointree.FullReducer) on the same instance.
func BenchmarkSemijoinFixpoint(b *testing.B) {
	schema := gen.AcyclicChain(8, 2, 1)
	rng := rand.New(rand.NewSource(4))
	u := gen.UniversalRelation(rng, schema, gen.InstanceSpec{Rows: 150, DomainSize: 6})
	d, err := db.FromUniversal(schema, u)
	if err != nil {
		b.Fatal(err)
	}
	jt, _ := jointree.Build(schema)
	prog := jt.FullReducer()
	b.Run("fixpoint", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d.SemijoinFixpoint()
		}
	})
	b.Run("jointree-program", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d.ApplyReducer(prog)
		}
	})
}

// BenchmarkRingSearch — E-L41: the Lemma 4.1 singleton-ring finder.
func BenchmarkRingSearch(b *testing.B) {
	h := gen.CycleGraph(10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, found := core.FindRing(h, 0); !found {
			b.Fatal("cycle must contain a ring")
		}
	}
}

// BenchmarkWorkspaceEdit — the dynamic-layer headline: a component-local
// edit on a 10⁶-edge multi-component schema (1000 disjoint chain components
// of 1000 edges each). "edit+analyze" alternates adding and removing one
// edge that extends a single chain and re-reads the incrementally
// maintained verdict — the edge is an ear, hung on the settled chain and
// dropped again with no re-analysis. "settle+analyze" does the same with
// an edge that is no ear ({n0, n1, n2} overlaps the chain in three nodes no
// one member holds), so every op re-analyzes that component (~10³ of 10⁶
// edges). "scratch-analyze" is the from-scratch baseline the acceptance
// criterion compares against: one full MCS traversal of the same 10⁶-edge
// snapshot per op (not even counting the snapshot rebuild an immutable
// client would also pay after every edit). Recorded in BENCH_dynamic.json.
func BenchmarkWorkspaceEdit(b *testing.B) {
	const comps, edgesPer = 1000, 1000
	ws := NewWorkspace()
	name := func(c, i int) string { return "c" + strconv.Itoa(c) + "n" + strconv.Itoa(i) }
	for c := 0; c < comps; c++ {
		for i := 0; i < edgesPer; i++ {
			if _, err := ws.AddEdge(name(c, i), name(c, i+1)); err != nil {
				b.Fatal(err)
			}
		}
	}
	if !ws.Analysis().Verdict() { // settle every component once
		b.Fatal("chains must be acyclic")
	}
	edits := []struct {
		name  string
		nodes []string
	}{
		{"edit+analyze/m=1000000", []string{name(0, edgesPer), name(0, edgesPer+1)}},
		{"settle+analyze/m=1000000", []string{name(0, 0), name(0, 1), name(0, 2)}},
	}
	for _, e := range edits {
		b.Run(e.name, func(b *testing.B) {
			b.ReportAllocs()
			extra := -1
			for i := 0; i < b.N; i++ {
				if extra < 0 {
					id, err := ws.AddEdge(e.nodes...)
					if err != nil {
						b.Fatal(err)
					}
					extra = id
				} else {
					if err := ws.RemoveEdge(extra); err != nil {
						b.Fatal(err)
					}
					extra = -1
				}
				if !ws.Analysis().Verdict() {
					b.Fatal("chains must stay acyclic")
				}
			}
			if extra >= 0 {
				if err := ws.RemoveEdge(extra); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	snap := ws.Snapshot()
	b.Run("scratch-analyze/m=1000000", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !Analyze(snap).Verdict() {
				b.Fatal("snapshot must be acyclic")
			}
		}
	})
}

// BenchmarkWorkspaceJoinTreeRead — the read side of a workspace edit, on
// the shape of perfbench's workspace-edit sessions: 31 six-edge chains plus
// one 3000-edge random acyclic component. Each op adds an edge inside a
// uniformly chosen component (two nodes of one of its edges plus a fresh
// node, so the epoch stays acyclic), reads the new epoch, and removes the
// edge again. The jointree read is the full JoinTree — settle, snapshot
// and forest assembly; the parent read is the server's jointree query —
// settle and parent links from the settled fragments, with no snapshot.
// Both reads run the same edit sequence.
func BenchmarkWorkspaceJoinTreeRead(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var comps [][][]string
	for k := 0; k < 31; k++ {
		var comp [][]string
		for j := 0; j < 6; j++ {
			c := func(i int) string { return "c" + strconv.Itoa(k) + "_" + strconv.Itoa(i) }
			comp = append(comp, []string{c(2 * j), c(2*j + 1), c(2*j + 2)})
		}
		comps = append(comps, comp)
	}
	big := gen.RandomAcyclic(rng, gen.RandomSpec{Edges: 3000, MinArity: 2, MaxArity: 4}).EdgeLists()
	for _, e := range big {
		for i := range e {
			e[i] = "b" + e[i]
		}
	}
	comps = append(comps, big)
	ws := NewWorkspace()
	for _, comp := range comps {
		for _, e := range comp {
			if _, err := ws.AddEdge(e...); err != nil {
				b.Fatal(err)
			}
		}
	}
	if _, err := ws.Analysis().JoinTree(); err != nil {
		b.Fatal(err)
	}
	reads := []struct {
		name string
		read func(*WorkspaceAnalysis) error
	}{
		{"jointree", func(a *WorkspaceAnalysis) error { _, err := a.JoinTree(); return err }},
		{"parent", func(a *WorkspaceAnalysis) error { _, err := a.Parent(); return err }},
	}
	for _, r := range reads {
		b.Run(r.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(2)) // both reads see the same edits
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				comp := comps[rng.Intn(len(comps))]
				e := comp[rng.Intn(len(comp))]
				p := rng.Perm(len(e))
				id, err := ws.AddEdge(e[p[0]], e[p[1]], "x"+strconv.Itoa(i))
				if err != nil {
					b.Fatal(err)
				}
				if err := r.read(ws.Analysis()); err != nil {
					b.Fatal(err)
				}
				if err := ws.RemoveEdge(id); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSpectrumClassify — E-SPEC: the polynomial full-spectrum
// classification (α via MCS, β via nest-point elimination, γ via
// leaf/twin reduction, Berge via union-find) at the server-scale sizes the
// retired serving cap used to refuse. The γ-acyclic family exercises the
// accept path of every tester; the random family exercises the reject
// paths (cores instead of elimination orders). The "schema" cases are the
// 500-edge families a schema-mix classify miss runs, timed through
// ClassifyWithAlpha with the α verdict already held, as the session facet
// calls it.
func BenchmarkSpectrumClassify(b *testing.B) {
	ctx := context.Background()
	for _, c := range []struct {
		name string
		h    *hypergraph.Hypergraph
	}{
		{"gamma", gen.GammaAcyclic(rand.New(rand.NewSource(500)), 500, 300)},
		{"alpha", gen.RandomAcyclic(rand.New(rand.NewSource(501)), gen.RandomSpec{Edges: 500, MinArity: 2, MaxArity: 6})},
		{"cyclic", gen.Random(rand.New(rand.NewSource(502)), gen.RandomSpec{Nodes: 400, Edges: 500, MinArity: 2, MaxArity: 6})},
	} {
		alpha := mcs.Run(c.h).Acyclic
		b.Run(fmt.Sprintf("schema-%s/edges=%d", c.name, c.h.NumEdges()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := spectrum.ClassifyWithAlpha(ctx, c.h, alpha); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, m := range []int{10_000, 100_000} {
		h := gen.GammaAcyclic(rand.New(rand.NewSource(int64(m))), m, m*3/5)
		b.Run(fmt.Sprintf("gamma/edges=%d", m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := spectrum.Classify(ctx, h)
				if err != nil {
					b.Fatal(err)
				}
				if !r.Gamma.Acyclic {
					b.Fatal("generated γ-acyclic instance misclassified")
				}
			}
		})
	}
	for _, m := range []int{10_000} {
		h := gen.Random(rand.New(rand.NewSource(int64(m))), gen.RandomSpec{
			Nodes: m / 2, Edges: m, MinArity: 2, MaxArity: 5,
		})
		b.Run(fmt.Sprintf("random/edges=%d", m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := spectrum.Classify(ctx, h); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
