// Command benchtab prints performance-shape tables: scaling of Graham
// reduction and of the linear-time MCS engine, engine memo throughput,
// tableau reduction and canonical connections, Yannakakis vs. naive join
// evaluation, and independent-path witness extraction. The absolute numbers
// depend on the host; the shapes (who wins, how growth behaves) are the
// reproduction target, since the paper itself reports no measurements.
//
// Usage:
//
//	benchtab                 # all tables
//	benchtab -table mcs      # one table: gyo|mcs|engine|sparse|dynamic|exec|spectrum|tr|cc|yannakakis|witness
//	benchtab -quick          # smaller sweeps (CI-friendly)
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"repro/internal/acyclic"
	"repro/internal/analysis"
	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/dynamic"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/gendb"
	"repro/internal/gyo"
	"repro/internal/hypergraph"
	"repro/internal/jointree"
	"repro/internal/mcs"
	"repro/internal/report"
	"repro/internal/spectrum"
	"repro/internal/tableau"
)

var quick bool

func main() {
	table := flag.String("table", "all", "table to print: gyo|mcs|engine|sparse|dynamic|exec|spectrum|tr|cc|yannakakis|witness|all")
	flag.BoolVar(&quick, "quick", false, "smaller sweeps")
	flag.Parse()
	tables := map[string]func(io.Writer){
		"gyo":        gyoTable,
		"mcs":        mcsTable,
		"engine":     engineTable,
		"sparse":     sparseTable,
		"dynamic":    dynamicTable,
		"exec":       execTable,
		"spectrum":   spectrumTable,
		"tr":         trTable,
		"cc":         ccTable,
		"yannakakis": yannakakisTable,
		"witness":    witnessTable,
	}
	order := []string{"gyo", "mcs", "engine", "sparse", "dynamic", "exec", "spectrum", "tr", "cc", "yannakakis", "witness"}
	ran := false
	for _, name := range order {
		if *table == "all" || *table == name {
			tables[name](os.Stdout)
			ran = true
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown table %q\n", *table)
		os.Exit(2)
	}
}

// timeIt runs f repeatedly until ~20ms elapse and returns the mean duration.
func timeIt(f func()) time.Duration {
	n := 0
	start := time.Now()
	for {
		f()
		n++
		if d := time.Since(start); d > 20*time.Millisecond || n >= 1000 {
			return d / time.Duration(n)
		}
	}
}

func sizes(all []int) []int {
	if quick && len(all) > 2 {
		return all[:2]
	}
	return all
}

// gyoTable: P-GYO — Graham reduction scaling in edges and arity.
func gyoTable(w io.Writer) {
	report.Section(w, "P-GYO: Graham reduction scaling (acyclic chains)")
	t := report.NewTable("edges", "arity", "nodes", "GR time", "steps", "vanished")
	for _, m := range sizes([]int{50, 200, 800, 3200}) {
		for _, arity := range []int{3, 6} {
			h := gen.AcyclicChain(m, arity, arity/2)
			var r *gyo.Result
			d := timeIt(func() { r = gyo.Reduce(h, bitset.Set{}) })
			t.Add(m, arity, h.NumNodes(), d, len(r.Steps), r.Vanished())
		}
	}
	t.Render(w)
	fmt.Fprintln(w, "shape: time grows roughly linearly in total edge volume; every acyclic input vanishes")
}

// mcsTable: P-MCS — the Tarjan–Yannakakis linear-time test against Graham
// reduction on large accept- and reject-path instances.
func mcsTable(w io.Writer) {
	report.Section(w, "P-MCS: maximum cardinality search vs Graham reduction (large instances)")
	t := report.NewTable("family", "edges", "nodes", "MCS time", "GYO time", "GYO/MCS", "acyclic")
	rng := rand.New(rand.NewSource(42))
	type fam struct {
		name string
		h    *hypergraph.Hypergraph
	}
	fams := []fam{
		{"chain", gen.AcyclicChain(2000, 3, 1)},
		{"blocks", gen.AcyclicBlocks(rng, 10000, 16, 256)},
		{"random-raw", gen.RandomRaw(rng, gen.RandomSpec{Nodes: 2048, Edges: 10000, MinArity: 2, MaxArity: 5})},
	}
	if !quick {
		fams = append(fams,
			fam{"blocks", gen.AcyclicBlocks(rng, 100000, 16, 256)},
			fam{"random-raw", gen.RandomRaw(rng, gen.RandomSpec{Nodes: 2048, Edges: 100000, MinArity: 2, MaxArity: 5})},
		)
	}
	for _, f := range fams {
		var verdict bool
		dMCS := timeIt(func() { verdict = mcs.IsAcyclic(f.h) })
		dGYO := timeIt(func() { gyo.IsAcyclic(f.h) })
		t.Add(f.name, f.h.NumEdges(), f.h.NumNodes(), dMCS, dGYO, float64(dGYO)/float64(dMCS), verdict)
	}
	t.Render(w)
	fmt.Fprintln(w, "shape: MCS time tracks total edge size on both accept and reject paths; the GYO gap")
	fmt.Fprintln(w, "widens with instance size since its subset scans revisit occurrence lists")
}

// engineTable: P-ENG — the memoizing engine against a plain MCS loop, cold
// memo and warm memo, each a serial loop over Analyze(h).Verdict().
func engineTable(w io.Writer) {
	report.Section(w, "P-ENG: engine memo throughput (serial loop)")
	t := report.NewTable("graphs", "edges/graph", "mcs loop", "engine cold", "engine warm", "cold speedup", "warm speedup")
	sizesAll := []int{128, 512}
	if quick {
		sizesAll = sizesAll[:1]
	}
	for _, n := range sizesAll {
		hs := make([]*hypergraph.Hypergraph, n)
		for i := range hs {
			r := rand.New(rand.NewSource(int64(i)))
			if i%2 == 0 {
				hs[i] = gen.RandomAcyclic(r, gen.RandomSpec{Edges: 200, MinArity: 2, MaxArity: 4})
			} else {
				hs[i] = gen.Random(r, gen.RandomSpec{Nodes: 150, Edges: 200, MinArity: 2, MaxArity: 4})
			}
		}
		dSerial := timeIt(func() {
			for _, h := range hs {
				mcs.IsAcyclic(h)
			}
		})
		verdicts := func(e *engine.Engine) {
			for _, h := range hs {
				e.Analyze(h).Verdict()
			}
		}
		dCold := timeIt(func() { verdicts(engine.New()) })
		warm := engine.New()
		verdicts(warm)
		dWarm := timeIt(func() { verdicts(warm) })
		t.Add(n, 200, dSerial, dCold, dWarm,
			float64(dSerial)/float64(dCold), float64(dSerial)/float64(dWarm))
	}
	t.Render(w)
	fmt.Fprintln(w, "shape: the warm memo answers repeat traffic at digest-read-plus-map-probe cost")
	fmt.Fprintln(w, "(the streaming 128-bit fingerprint is cached on the hypergraph), independent of")
	fmt.Fprintln(w, "instance hardness")
}

// sparseTable: P-SPARSE — the representation layer at scale: unbounded-
// universe chains (the family dense bitset edges capped near 10⁵ edges),
// stored as one flat member list, through construction, MCS verdict,
// join-tree build, and the single-sweep Verify, plus the linearized Reduce
// on subset-heavy blocks.
func sparseTable(w io.Writer) {
	report.Section(w, "P-SPARSE: flat member-list scaling (unbounded-universe families)")
	t := report.NewTable("family", "edges", "nodes", "construct", "MCS", "join tree", "verify", "reduce")
	sizesAll := []int{10_000, 100_000, 1_000_000}
	if quick {
		sizesAll = sizesAll[:2]
	}
	for _, m := range sizesAll {
		chain := gen.AcyclicChainIDs(m, 3, 1)
		dBuild := timeIt(func() { gen.AcyclicChainIDs(m, 3, 1) })
		dMCS := timeIt(func() {
			if !mcs.IsAcyclic(chain) {
				panic("chain must be acyclic")
			}
		})
		var jt *jointree.JoinTree
		dTree := timeIt(func() { jt, _ = jointree.BuildMCS(chain) })
		dVerify := timeIt(func() {
			if err := jt.Verify(); err != nil {
				panic(err)
			}
		})
		rng := rand.New(rand.NewSource(int64(m)))
		blocks := gen.AcyclicBlocksIDs(rng, m, m/625, 256)
		dReduce := timeIt(func() { blocks.Reduce() })
		t.Add("chain+blocks", m, chain.NumNodes(), dBuild, dMCS, dTree, dVerify, dReduce)
	}
	t.Render(w)
	fmt.Fprintln(w, "shape: every column grows linearly in edges — dense bitset edges ran out of memory")
	fmt.Fprintln(w, "near 10⁵ edges on this family (universe/64 words per edge); per-edge cost is flat")
}

// dynamicTable: P-DYN — the incremental workspace: a component-local edit
// followed by a verdict read against a from-scratch re-analysis of the same
// snapshot, across multi-component chain schemas. The edit path re-analyzes
// one component; the scratch path traverses everything, so the gap tracks
// the component count.
func dynamicTable(w io.Writer) {
	report.Section(w, "P-DYN: incremental workspace edits vs from-scratch re-analysis (multi-component chains)")
	t := report.NewTable("components", "edges/comp", "total edges", "edit+analyze", "scratch analyze", "speedup")
	type cfg struct{ comps, edgesPer int }
	cfgs := []cfg{{100, 100}, {100, 1000}, {1000, 1000}}
	if quick {
		cfgs = cfgs[:2]
	}
	for _, c := range cfgs {
		ws := dynamic.New()
		name := func(ci, i int) string { return fmt.Sprintf("c%dn%d", ci, i) }
		for ci := 0; ci < c.comps; ci++ {
			for i := 0; i < c.edgesPer; i++ {
				if _, err := ws.AddEdge(name(ci, i), name(ci, i+1)); err != nil {
					panic(err)
				}
			}
		}
		ws.Analysis() // settle every component once
		extra := -1
		dEdit := timeIt(func() {
			if extra < 0 {
				id, err := ws.AddEdge(name(0, c.edgesPer), name(0, c.edgesPer+1))
				if err != nil {
					panic(err)
				}
				extra = id
			} else {
				if err := ws.RemoveEdge(extra); err != nil {
					panic(err)
				}
				extra = -1
			}
			if !ws.Analysis().Verdict() {
				panic("chains must stay acyclic")
			}
		})
		snap := ws.Snapshot()
		dScratch := timeIt(func() {
			if !analysis.New(snap).Verdict() {
				panic("snapshot must be acyclic")
			}
		})
		t.Add(c.comps, c.edgesPer, c.comps*c.edgesPer, dEdit, dScratch, float64(dScratch)/float64(dEdit))
	}
	t.Render(w)
	fmt.Fprintln(w, "shape: the edit path pays for one component (plus O(1) fingerprint folds), so the")
	fmt.Fprintln(w, "speedup tracks the component count; the scratch column is what every edit used to cost")
}

// execTable: P-EXEC — the columnar execution layer: full-reducer programs
// and Yannakakis evaluation over chain databases, against the string-keyed
// relation layer running the identical plan.
func execTable(w io.Writer) {
	report.Section(w, "P-EXEC: columnar reduce/eval vs string-keyed relation layer (chain databases)")
	t := report.NewTable("edges", "rows/object", "reduce", "eval", "out rows", "relation eval", "speedup")
	ctx := context.Background()
	type cfg struct{ edges, rows int }
	cfgs := []cfg{{8, 1_000}, {8, 10_000}, {16, 10_000}}
	if quick {
		cfgs = cfgs[:2]
	}
	for _, c := range cfgs {
		rng := rand.New(rand.NewSource(int64(31*c.edges + c.rows)))
		schema, cdb := gendb.Chain(rng, c.edges, 2, 1, gen.InstanceSpec{Rows: c.rows, DomainSize: c.rows})
		jt, ok := jointree.BuildMCS(schema)
		if !ok {
			panic("chain schema must be acyclic")
		}
		nodes := schema.Nodes()
		attrs := []string{nodes[0], nodes[len(nodes)-1]}
		dReduce := timeIt(func() {
			if _, err := exec.Reduce(ctx, cdb, jt); err != nil {
				panic(err)
			}
		})
		var out *exec.Table
		dEval := timeIt(func() {
			res, err := exec.Eval(ctx, cdb, jt, attrs)
			if err != nil {
				panic(err)
			}
			out = res.Out
		})
		rdb, err := db.New(schema, cdb.Relations())
		if err != nil {
			panic(err)
		}
		dRel := timeIt(func() {
			if _, err := rdb.QueryYannakakis(attrs); err != nil {
				panic(err)
			}
		})
		t.Add(c.edges, c.rows, dReduce, dEval, out.NumRows(), dRel, float64(dRel)/float64(dEval))
	}
	t.Render(w)
	fmt.Fprintln(w, "shape: both layers run the same output-sensitive plan; the columnar kernels win a")
	fmt.Fprintln(w, "constant factor by hashing int32 ids instead of building string row keys")
}

// spectrumTable: P-SPEC — the polynomial full-spectrum classifiers against
// the exponential specification testers on small instances, then
// polynomial-only scaling to the server-size schemas the specs cannot
// touch.
func spectrumTable(w io.Writer) {
	report.Section(w, "P-SPEC: acyclicity spectrum — polynomial testers vs exponential specifications")
	t := report.NewTable("family", "edges", "spectrum", "degree", "spec β+γ", "spec/poly")
	ctx := context.Background()
	small := []struct {
		name string
		h    *hypergraph.Hypergraph
	}{
		{"fig1", hypergraph.Fig1()},
		{"cycle C8", gen.CycleGraph(8)},
		{"chain m=12", gen.AcyclicChain(12, 3, 1)},
		{"gamma m=14", gen.GammaAcyclic(rand.New(rand.NewSource(3)), 14, 10)},
	}
	for _, f := range small {
		var res *spectrum.Result
		dPoly := timeIt(func() {
			var err error
			if res, err = spectrum.Classify(ctx, f.h); err != nil {
				panic(err)
			}
		})
		dSpec := timeIt(func() {
			if _, err := acyclic.IsBetaAcyclicByDefinition(f.h); err != nil {
				panic(err)
			}
			acyclic.IsGammaAcyclic(f.h)
		})
		t.Add(f.name, f.h.NumEdges(), dPoly, res.Degree.String(), dSpec, float64(dSpec)/float64(dPoly))
	}
	large := []int{10_000, 100_000}
	if quick {
		large = large[:1]
	}
	for _, m := range large {
		h := gen.GammaAcyclic(rand.New(rand.NewSource(int64(m))), m, m*3/5)
		var res *spectrum.Result
		dPoly := timeIt(func() {
			var err error
			if res, err = spectrum.Classify(ctx, h); err != nil {
				panic(err)
			}
		})
		t.Add(fmt.Sprintf("gamma m=%d", m), h.NumEdges(), dPoly, res.Degree.String(), "n/a", "n/a")
	}
	t.Render(w)
	fmt.Fprintln(w, "shape: the exponential specs blow up in edge count while the polynomial testers track")
	fmt.Fprintln(w, "total edge volume, holding full-spectrum verdicts with certificates under the serving")
	fmt.Fprintln(w, "deadline at sizes the specs cannot touch")
}

// trTable: P-TR — tableau reduction scaling and the GR-vs-TR runtime gap.
func trTable(w io.Writer) {
	report.Section(w, "P-TR: tableau reduction vs Graham reduction (Theorem 3.5 twins)")
	t := report.NewTable("edges", "sacred", "GR time", "TR time", "TR/GR", "equal")
	rng := rand.New(rand.NewSource(1))
	for _, m := range sizes([]int{8, 16, 32, 64}) {
		h := gen.RandomAcyclic(rand.New(rand.NewSource(int64(m))), gen.RandomSpec{Edges: m, MinArity: 2, MaxArity: 4})
		x := gen.RandomNodeSubset(rng, h, 0.2)
		var gr, tr *hypergraph.Hypergraph
		dGR := timeIt(func() { gr = gyo.Reduce(h, x).Hypergraph })
		dTR := timeIt(func() { tr = tableau.TR(h, x) })
		ratio := float64(dTR) / float64(dGR)
		t.Add(m, x.Len(), dGR, dTR, ratio, gr.EqualEdges(tr))
	}
	t.Render(w)
	fmt.Fprintln(w, "shape: TR pays a polynomial factor over GR for identical results on acyclic inputs —")
	fmt.Fprintln(w, "the practical content of Theorem 3.5 (use GR when the schema is acyclic)")
}

// ccTable: P-CC — canonical connection queries across schema families.
func ccTable(w io.Writer) {
	report.Section(w, "P-CC: canonical connection queries")
	t := report.NewTable("schema", "edges", "|X|", "CC time", "CC edges")
	rng := rand.New(rand.NewSource(2))
	fams := []struct {
		name string
		h    *hypergraph.Hypergraph
	}{
		{"chain m=16", gen.AcyclicChain(16, 3, 1)},
		{"chain m=64", gen.AcyclicChain(64, 3, 1)},
		{"random acyclic m=24", gen.RandomAcyclic(rand.New(rand.NewSource(7)), gen.RandomSpec{Edges: 24, MinArity: 2, MaxArity: 4})},
		{"star n=24", gen.Star(24)},
		{"fig1", hypergraph.Fig1()},
	}
	for _, f := range fams {
		for _, frac := range []float64{0.1, 0.4} {
			x := gen.RandomNodeSubset(rng, f.h, frac)
			var cc *hypergraph.Hypergraph
			d := timeIt(func() { cc = core.CC(f.h, x) })
			t.Add(f.name, f.h.NumEdges(), x.Len(), d, cc.NumEdges())
		}
	}
	t.Render(w)
	fmt.Fprintln(w, "shape: CC size tracks how spread the sacred nodes are; sparse X collapses most of the schema")
}

// yannakakisTable: P-YAN — Yannakakis vs naive full join.
func yannakakisTable(w io.Writer) {
	report.Section(w, "P-YAN: Yannakakis vs naive join-then-project (acyclic schemas)")
	t := report.NewTable("chain edges", "rows/object", "domain", "naive", "yannakakis", "speedup", "equal")
	for _, m := range sizes([]int{3, 4, 5, 6}) {
		for _, domain := range []int{4, 16} {
			schema := gen.AcyclicChain(m, 2, 1) // binary chain R(A0,A1), R(A1,A2)...
			rng := rand.New(rand.NewSource(int64(100*m + domain)))
			u := gen.UniversalRelation(rng, schema, gen.InstanceSpec{Rows: 120, DomainSize: domain})
			d, err := db.FromUniversal(schema, u)
			if err != nil {
				panic(err)
			}
			attrs := []string{schema.Nodes()[0]}
			naiveR, yanR := d.Objects[0], d.Objects[0]
			dNaive := timeIt(func() {
				r, err := d.QueryFull(attrs)
				if err != nil {
					panic(err)
				}
				naiveR = r
			})
			dYan := timeIt(func() {
				r, err := d.QueryYannakakis(attrs)
				if err != nil {
					panic(err)
				}
				yanR = r
			})
			t.Add(m, 120, domain, dNaive, dYan, float64(dNaive)/float64(dYan), naiveR.Equal(yanR))
		}
	}
	t.Render(w)
	fmt.Fprintln(w, "shape: naive intermediate joins grow multiplicatively with chain length and relation size")
	fmt.Fprintln(w, "(domain controls distinct tuples); Yannakakis stays near-linear, so its lead widens with both")
}

// witnessTable: P-WIT — independent-path witness extraction on cyclic families.
func witnessTable(w io.Writer) {
	report.Section(w, "P-WIT: independent-path witness extraction (Theorem 6.1 'if')")
	t := report.NewTable("family", "nodes", "edges", "witness time", "path len")
	fams := []struct {
		name string
		h    *hypergraph.Hypergraph
	}{
		{"cycle C8", gen.CycleGraph(8)},
		{"cycle C16", gen.CycleGraph(16)},
		{"hyper-ring k=8", gen.HyperRing(8)},
		{"grid 3x3", gen.Grid(3, 3)},
		{"grid 4x4", gen.Grid(4, 4)},
		{"clique K7", gen.CliqueGraph(7)},
	}
	if quick {
		fams = fams[:3]
	}
	for _, f := range fams {
		var p *core.Path
		d := timeIt(func() {
			var err error
			var found bool
			p, _, found, err = core.IndependentPathWitness(f.h)
			if err != nil || !found {
				panic(fmt.Sprintf("%s: %v", f.name, err))
			}
		})
		t.Add(f.name, f.h.NumNodes(), f.h.NumEdges(), d, len(p.Sets))
	}
	t.Render(w)
	fmt.Fprintln(w, "shape: witness length tracks the girth of the cyclic core; extraction stays polynomial")
}
