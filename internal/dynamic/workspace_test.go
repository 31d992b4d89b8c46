package dynamic

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/acyclic"
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/gendb"
	"repro/internal/hypergraph"
	"repro/internal/jointree"
)

// TestBasicEdits walks the Fig. 1 lifecycle by hand: build it edge by edge,
// break it, heal it, and check every transition against the frozen API.
func TestBasicEdits(t *testing.T) {
	ws := New()
	if ws.Epoch() != 0 || ws.NumEdges() != 0 {
		t.Fatal("fresh workspace must be empty at epoch 0")
	}
	ids := make([]int, 0, 4)
	for _, e := range [][]string{{"A", "B", "C"}, {"C", "D", "E"}, {"A", "E", "F"}, {"A", "C", "E"}} {
		id, err := ws.AddEdge(e...)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if !ws.Analysis().Verdict() {
		t.Fatal("Fig. 1 must be acyclic")
	}
	if got := ws.NumComponents(); got != 1 {
		t.Fatalf("Fig. 1 has 1 component, got %d", got)
	}
	if !ws.Snapshot().Equal(hypergraph.Fig1()) {
		t.Fatalf("snapshot %v must equal Fig. 1", ws.Snapshot())
	}
	// Removing {A,C,E} leaves the cyclic Fig1MinusACE.
	if err := ws.RemoveEdge(ids[3]); err != nil {
		t.Fatal(err)
	}
	if ws.Analysis().Verdict() {
		t.Fatal("Fig. 1 minus {A,C,E} must be cyclic")
	}
	if _, _, found, err := core.IndependentPathWitness(ws.Snapshot()); err != nil || !found {
		t.Fatalf("cyclic epoch must yield a witness (found=%v, err=%v)", found, err)
	}
	// Healing: put the articulation edge back.
	if _, err := ws.AddEdge("A", "C", "E"); err != nil {
		t.Fatal(err)
	}
	a := ws.Analysis()
	if !a.Verdict() {
		t.Fatal("healed hypergraph must be acyclic again")
	}
	jt, err := a.JoinTree()
	if err != nil {
		t.Fatal(err)
	}
	if err := jt.Verify(); err != nil {
		t.Fatalf("assembled forest violates RIP: %v", err)
	}
	if ws.Epoch() != 6 {
		t.Fatalf("epoch = %d after 6 edits, want 6", ws.Epoch())
	}
}

// TestComponentLocality: edits must dirty only the touched component — the
// others keep their settled state (observed through the engine memo: a
// second Analysis() after a component-local edit that is no ear interns
// exactly one component) — and an ear edit dirties nothing at all: it
// neither probes nor fills the memo.
func TestComponentLocality(t *testing.T) {
	e := engine.New(engine.WithShards(1))
	ws := New(WithEngine(e))
	// Three disjoint chain components of 4 edges each.
	for c := 0; c < 3; c++ {
		for i := 0; i < 4; i++ {
			if _, err := ws.AddEdge(fmt.Sprintf("c%dn%d", c, i), fmt.Sprintf("c%dn%d", c, i+1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := ws.NumComponents(); got != 3 {
		t.Fatalf("components = %d, want 3", got)
	}
	ws.Analysis()
	base := e.Stats()
	if base.Components != 3 {
		t.Fatalf("3 components must be interned, got %+v", base)
	}
	// An ear: extending chain 1 by one edge overlaps it in c1n4 alone,
	// which its last edge holds. Settling must re-intern nothing.
	if _, err := ws.AddEdge("c1n4", "c1n5"); err != nil {
		t.Fatal(err)
	}
	if !ws.Analysis().Verdict() {
		t.Fatal("chains must stay acyclic")
	}
	if after := e.Stats(); after != base {
		t.Fatalf("an ear edit touched the memo: %+v -> %+v", base, after)
	}
	// A component-local edit that is no ear: {c1n1, c1n2, c1n3} overlaps
	// chain 1 in three nodes no one member holds. Settling must intern
	// exactly one new component identity (the edited one) — misses grow
	// by 1.
	if _, err := ws.AddEdge("c1n1", "c1n2", "c1n3"); err != nil {
		t.Fatal(err)
	}
	if !ws.Analysis().Verdict() {
		t.Fatal("chains must stay acyclic")
	}
	after := e.Stats()
	if after.Misses != base.Misses+1 {
		t.Fatalf("component-local edit re-interned %d components, want 1", after.Misses-base.Misses)
	}
}

// TestCrossWorkspaceMemoSharing: two unrelated workspaces holding the same
// component content through different edit histories and node-id orders
// must hit the same engine memo entry.
func TestCrossWorkspaceMemoSharing(t *testing.T) {
	e := engine.New()
	w1 := New(WithEngine(e))
	w1.AddEdge("A", "B")
	w1.AddEdge("B", "C")
	w1.Analysis()
	base := e.Stats()

	w2 := New(WithEngine(e))
	// Different insertion order and an extra edge later removed: the final
	// content matches w1's single component.
	w2.AddEdge("B", "C")
	id, _ := w2.AddEdge("X", "Y")
	w2.AddEdge("A", "B")
	if err := w2.RemoveEdge(id); err != nil {
		t.Fatal(err)
	}
	if !w2.Analysis().Verdict() {
		t.Fatal("chain must be acyclic")
	}
	after := e.Stats()
	if after.Hits <= base.Hits {
		t.Fatalf("tenant 2 must hit tenant 1's component entry: %+v -> %+v", base, after)
	}
	if after.Components != base.Components {
		t.Fatalf("no new component identity expected: %+v -> %+v", base, after)
	}

	// Reverse name order: single-node edges claim ids for F, E, …, A first
	// and are removed once Fig. 1 covers those nodes, so this workspace's
	// node ids run against name order. It must hit the entry a name-ordered
	// workspace left, and the fragment it reads back must give the parent
	// links a workspace without an engine computes on its own.
	fig1 := [][]string{{"A", "B", "C"}, {"C", "D", "E"}, {"A", "E", "F"}, {"A", "C", "E"}}
	addAll := func(ws *Workspace, edges [][]string) []int {
		var ids []int
		for _, edge := range edges {
			id, err := ws.AddEdge(edge...)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		return ids
	}
	first := New(WithEngine(e))
	addAll(first, fig1)
	first.Analysis()
	base = e.Stats()
	rev := New(WithEngine(e))
	claims := addAll(rev, [][]string{{"F"}, {"E"}, {"D"}, {"C"}, {"B"}, {"A"}})
	addAll(rev, fig1)
	for _, id := range claims {
		if err := rev.RemoveEdge(id); err != nil {
			t.Fatal(err)
		}
	}
	got, err := rev.Analysis().Parent()
	if err != nil {
		t.Fatal(err)
	}
	after = e.Stats()
	if after.Hits <= base.Hits || after.Components != base.Components {
		t.Fatalf("reverse-interned Fig. 1 must hit the name-ordered entry: %+v -> %+v", base, after)
	}
	alone := New()
	addAll(alone, fig1)
	want, err := alone.Analysis().Parent()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("reverse-interned Fig. 1 parent %v, a workspace without an engine %v", got, want)
	}
}

// TestStaleEpoch: derived facets of a handle must refuse with a structured
// *ErrStaleEpoch once the workspace moves on, while the epoch-bound verdict
// and already-materialized values stay readable.
func TestStaleEpoch(t *testing.T) {
	ws := New()
	ws.AddEdge("A", "B")
	ws.AddEdge("B", "C")
	a := ws.Analysis()
	jt, err := a.JoinTree() // materialized while current
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ws.AddEdge("C", "D"); err != nil {
		t.Fatal(err)
	}
	if !a.Verdict() {
		t.Fatal("the epoch-bound verdict must stay readable")
	}
	var stale *ErrStaleEpoch
	if _, err := a.Snapshot(); !errors.As(err, &stale) {
		t.Fatalf("Snapshot on a stale handle: err = %v, want *ErrStaleEpoch", err)
	}
	if stale.Handle != a.Epoch() || stale.Current != ws.Epoch() {
		t.Fatalf("stale epochs = %+v, want handle %d current %d", stale, a.Epoch(), ws.Epoch())
	}
	if _, err := a.FullReducer(); !errors.As(err, &stale) {
		t.Fatalf("FullReducer on a stale handle: err = %v", err)
	}
	if _, err := a.Spectrum(context.Background()); !errors.As(err, &stale) {
		t.Fatalf("Spectrum on a stale handle: err = %v", err)
	}
	if _, err := a.GrahamTrace(context.Background()); !errors.As(err, &stale) {
		t.Fatalf("GrahamTrace on a stale handle: err = %v", err)
	}
	// The tree materialized at the old epoch remains a valid value...
	if err := jt.Verify(); err != nil {
		t.Fatal(err)
	}
	// ...but the facet refuses to re-serve it: staleness beats the cache.
	if _, err := a.JoinTree(); !errors.As(err, &stale) {
		t.Fatalf("JoinTree on a stale handle: err = %v, want *ErrStaleEpoch", err)
	}
	// A fresh handle recovers.
	b := ws.Analysis()
	if _, err := b.JoinTree(); err != nil {
		t.Fatal(err)
	}
	if a == b || b.Epoch() != ws.Epoch() {
		t.Fatal("Analysis must rebind to the current epoch")
	}
}

// TestStructuredEditErrors pins the error taxonomy of the edit surface.
func TestStructuredEditErrors(t *testing.T) {
	ws := New()
	id, _ := ws.AddEdge("A", "B")
	var unknownEdge *ErrUnknownEdge
	if err := ws.RemoveEdge(99); !errors.As(err, &unknownEdge) || unknownEdge.ID != 99 {
		t.Fatalf("RemoveEdge(99): err = %v", err)
	}
	if err := ws.RemoveEdge(id); err != nil {
		t.Fatal(err)
	}
	if err := ws.RemoveEdge(id); !errors.As(err, &unknownEdge) {
		t.Fatalf("double remove: err = %v", err)
	}
	if _, err := ws.AddEdge(); err == nil {
		t.Fatal("empty AddEdge must fail")
	}
	ws.AddEdge("A", "B")
	var unknownNode *hypergraph.ErrUnknownNode
	if err := ws.RenameNode("Z", "Q"); !errors.As(err, &unknownNode) || unknownNode.Name != "Z" {
		t.Fatalf("renaming an unknown node: err = %v", err)
	}
	var exists *ErrNodeExists
	if err := ws.RenameNode("A", "B"); !errors.As(err, &exists) || exists.Name != "B" {
		t.Fatalf("renaming onto a taken name: err = %v", err)
	}
	epoch := ws.Epoch()
	if err := ws.RenameNode("A", "A"); err != nil || ws.Epoch() != epoch {
		t.Fatalf("self-rename must be a no-op (err=%v, epoch %d->%d)", err, epoch, ws.Epoch())
	}
	if err := ws.RenameNode("A", "A2"); err != nil {
		t.Fatal(err)
	}
	if _, err := ws.Snapshot().Set("A2"); err != nil {
		t.Fatalf("renamed node must resolve in the snapshot: %v", err)
	}
}

// editScript drives one randomized differential run: nOps random edits on a
// workspace, asserting after every op that the incremental analysis agrees
// with a from-scratch analysis.Analysis of the snapshot.
func editScript(t *testing.T, seed int64, nOps, poolSize int, eng *engine.Engine, classifyEvery int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var opts []Option
	if eng != nil {
		opts = append(opts, WithEngine(eng))
	}
	ws := New(opts...)
	pool := make([]string, poolSize)
	for i := range pool {
		pool[i] = fmt.Sprintf("n%02d", i)
	}
	var alive []int
	renames := 0
	maxAlive := 3 * poolSize // size pressure keeps per-op scratch checks cheap
	for op := 0; op < nOps; op++ {
		r := rng.Float64()
		pAdd := 0.55
		if len(alive) >= maxAlive {
			pAdd = 0.25
		}
		switch {
		case len(alive) == 0 || r < pAdd:
			arity := 1 + rng.Intn(3)
			nodes := make([]string, arity)
			for i := range nodes {
				nodes[i] = pool[rng.Intn(len(pool))]
			}
			id, err := ws.AddEdge(nodes...)
			if err != nil {
				t.Fatalf("op %d AddEdge(%v): %v", op, nodes, err)
			}
			alive = append(alive, id)
		case r < 0.95:
			i := rng.Intn(len(alive))
			if err := ws.RemoveEdge(alive[i]); err != nil {
				t.Fatalf("op %d RemoveEdge(%d): %v", op, alive[i], err)
			}
			alive[i] = alive[len(alive)-1]
			alive = alive[:len(alive)-1]
		default:
			// Rename a random current node to a fresh name. The old name
			// is released, so later adds from the pool re-intern it as a
			// new node — which exercises the recycling rule too.
			nodes := ws.Snapshot().Nodes()
			if len(nodes) == 0 {
				continue
			}
			oldName := nodes[rng.Intn(len(nodes))]
			tmp := fmt.Sprintf("r%04d", renames)
			renames++
			if err := ws.RenameNode(oldName, tmp); err != nil {
				t.Fatalf("op %d RenameNode(%s, %s): %v", op, oldName, tmp, err)
			}
		}
		checkAgainstScratch(t, ws, op, classifyEvery > 0 && op%classifyEvery == 0)
	}
}

// checkAgainstScratch asserts incremental == from-scratch for the verdict,
// the join forest, and (optionally) the classification, at the workspace's
// current epoch.
func checkAgainstScratch(t *testing.T, ws *Workspace, op int, classify bool) {
	t.Helper()
	snap := ws.Snapshot()
	a := ws.Analysis()
	ref := analysis.New(snap)
	if a.Verdict() != ref.Verdict() {
		t.Fatalf("op %d: incremental verdict %v != from-scratch %v on %v",
			op, a.Verdict(), ref.Verdict(), snap)
	}
	if a.NumEdges() != snap.NumEdges() || a.NumNodes() != snap.NumNodes() || a.NumComponents() != len(snap.Components()) {
		t.Fatalf("op %d: handle counts %d edges / %d nodes / %d components, snapshot has %d / %d / %d",
			op, a.NumEdges(), a.NumNodes(), a.NumComponents(), snap.NumEdges(), snap.NumNodes(), len(snap.Components()))
	}
	jt, err := a.JoinTree()
	refJT, refErr := ref.JoinTree()
	if (err == nil) != (refErr == nil) {
		t.Fatalf("op %d: JoinTree err %v vs from-scratch %v", op, err, refErr)
	}
	if err == nil {
		if jt.H != snap {
			t.Fatalf("op %d: forest must be assembled over the epoch snapshot", op)
		}
		if len(jt.Parent) != len(refJT.Parent) {
			t.Fatalf("op %d: forest size %d != %d", op, len(jt.Parent), len(refJT.Parent))
		}
		if verr := jt.Verify(); verr != nil {
			t.Fatalf("op %d: assembled forest violates RIP on %v: %v", op, snap, verr)
		}
	} else if !errors.Is(err, hypergraph.ErrCyclic) {
		t.Fatalf("op %d: cyclic JoinTree error = %v, want ErrCyclic", op, err)
	}
	// γ is exponential in the edge count; classify only compact epochs.
	if classify && snap.NumEdges() <= 12 {
		sp, err := a.Spectrum(context.Background())
		if err != nil {
			t.Fatalf("op %d: Spectrum: %v", op, err)
		}
		want := acyclic.Classify(snap)
		if sp.Alpha != want.Alpha || sp.Beta.Acyclic != want.Beta || sp.Gamma.Acyclic != want.Gamma ||
			sp.Berge != want.Berge || sp.String() != want.String() {
			t.Fatalf("op %d: spectrum %v != acyclic.Classify %v on %v", op, sp, want, snap)
		}
	}
}

// TestDifferentialEditScripts is the headline differential suite: >10⁴
// random AddEdge/RemoveEdge/RenameNode ops (8 scripts × 1300) across seeds
// and pool sizes, each op checked against a from-scratch analysis of the
// snapshot — with and without an attached engine (the memoized intern path
// must not change any answer).
func TestDifferentialEditScripts(t *testing.T) {
	nOps := 1300
	if testing.Short() {
		nOps = 120
	}
	shared := engine.New()
	for seed := int64(0); seed < 8; seed++ {
		var eng *engine.Engine
		if seed%2 == 1 {
			eng = shared // odd seeds share one engine: cross-script warm hits
		}
		poolSize := []int{6, 10, 16, 24}[seed%4]
		t.Run(fmt.Sprintf("seed=%d/pool=%d/engine=%v", seed, poolSize, eng != nil), func(t *testing.T) {
			classifyEvery := 50
			if poolSize > 10 {
				classifyEvery = 0 // γ is exponential; classify only small pools
			}
			editScript(t, seed, nOps, poolSize, eng, classifyEvery)
		})
	}
}

// TestSplitsAndMerges targets the component-maintenance edge cases
// directly: a chain repeatedly cut in the middle and re-joined, checked
// differentially at every step.
func TestSplitsAndMerges(t *testing.T) {
	ws := New()
	const m = 12
	ids := make([]int, m)
	for i := 0; i < m; i++ {
		id, err := ws.AddEdge(fmt.Sprintf("x%d", i), fmt.Sprintf("x%d", i+1))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	if ws.NumComponents() != 1 {
		t.Fatalf("chain components = %d, want 1", ws.NumComponents())
	}
	checkAgainstScratch(t, ws, -1, true)
	// Cut in the middle: two components.
	if err := ws.RemoveEdge(ids[m/2]); err != nil {
		t.Fatal(err)
	}
	if got := ws.NumComponents(); got != 2 {
		t.Fatalf("cut chain components = %d, want 2", got)
	}
	checkAgainstScratch(t, ws, -2, true)
	// Re-join with a bridging edge: back to one.
	if _, err := ws.AddEdge(fmt.Sprintf("x%d", m/2), fmt.Sprintf("x%d", m/2+1)); err != nil {
		t.Fatal(err)
	}
	if got := ws.NumComponents(); got != 1 {
		t.Fatalf("re-joined components = %d, want 1", got)
	}
	checkAgainstScratch(t, ws, -3, true)
	// Shatter: remove every other edge — many singleton components.
	for i := 0; i < m; i += 2 {
		if i == m/2 {
			continue // already removed
		}
		if err := ws.RemoveEdge(ids[i]); err != nil {
			t.Fatal(err)
		}
		checkAgainstScratch(t, ws, -100-i, false)
	}
}

// TestSplitSweepClearsStamps: after every removal of a random edit
// script, whether it split its component or only dirtied it, the sweep's
// edge and node stamps read false again, and the settle's name ranks -1.
func TestSplitSweepClearsStamps(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ws := New()
	var ids []int
	for op := 0; op < 600; op++ {
		if len(ids) > 0 && rng.Intn(3) == 0 {
			k := rng.Intn(len(ids))
			if err := ws.RemoveEdge(ids[k]); err != nil {
				t.Fatal(err)
			}
			ids = slices.Delete(ids, k, k+1)
			if slices.Contains(ws.edgeSeen, true) || slices.Contains(ws.nodeSeen, true) {
				t.Fatalf("op %d: a removal left sweep stamps set", op)
			}
			ws.Analysis() // settles the dirtied components
			if slices.ContainsFunc(ws.compRank, func(r int32) bool { return r != -1 }) {
				t.Fatalf("op %d: a settle left name ranks set", op)
			}
			continue
		}
		id, err := ws.AddEdge(fmt.Sprintf("n%d", rng.Intn(40)), fmt.Sprintf("n%d", rng.Intn(40)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
}

// TestExecFacets: the workspace's Reduce/Eval plans run over a real
// columnar database and match the frozen session's answers; after an edit
// the same handle refuses with *ErrStaleEpoch.
func TestExecFacets(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	schema, db := gendb.Chain(rng, 5, 2, 1, gen.InstanceSpec{Rows: 200, DomainSize: 20})
	ws, err := NewFrom(schema)
	if err != nil {
		t.Fatal(err)
	}
	a := ws.Analysis()
	ctx := context.Background()
	nodes := schema.Nodes()
	attrs := []string{nodes[0], nodes[len(nodes)-1]}

	got, err := a.Eval(ctx, db, attrs)
	if err != nil {
		t.Fatal(err)
	}
	ref := analysis.New(schema)
	want, err := ref.Eval(ctx, db, attrs)
	if err != nil {
		t.Fatal(err)
	}
	if got.Out.NumRows() != want.Out.NumRows() {
		t.Fatalf("workspace Eval: %d rows, frozen session: %d", got.Out.NumRows(), want.Out.NumRows())
	}
	if _, err := a.Reduce(ctx, db); err != nil {
		t.Fatal(err)
	}
	// Any edit invalidates the plans loudly.
	if _, err := ws.AddEdge("zz1", "zz2"); err != nil {
		t.Fatal(err)
	}
	var stale *ErrStaleEpoch
	if _, err := a.Eval(ctx, db, attrs); !errors.As(err, &stale) {
		t.Fatalf("Eval on a stale handle: err = %v, want *ErrStaleEpoch", err)
	}
}

// TestRaceHammer runs GOMAXPROCS writers (random edits on disjoint name
// spaces plus shared ones) against GOMAXPROCS readers (Parent, Analysis
// facets, snapshots) — the -race target for the mutable surface — then
// GOMAXPROCS concurrent classifications of one handle.
func TestRaceHammer(t *testing.T) {
	ws := New(WithEngine(engine.New()))
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 2
	}
	const opsPerWorker = 150
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(2)
		go func(w int) { // writer
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			var mine []int
			for i := 0; i < opsPerWorker; i++ {
				if len(mine) == 0 || rng.Float64() < 0.6 {
					a := fmt.Sprintf("w%dn%d", w, rng.Intn(8))
					b := fmt.Sprintf("shared%d", rng.Intn(4))
					id, err := ws.AddEdge(a, b)
					if err != nil {
						t.Error(err)
						return
					}
					mine = append(mine, id)
				} else {
					j := rng.Intn(len(mine))
					if err := ws.RemoveEdge(mine[j]); err != nil {
						t.Error(err)
						return
					}
					mine[j] = mine[len(mine)-1]
					mine = mine[:len(mine)-1]
				}
			}
		}(w)
		go func(w int) { // reader
			defer wg.Done()
			for i := 0; i < opsPerWorker; i++ {
				a := ws.Analysis()
				_ = a.Verdict()
				if _, err := a.Parent(); err != nil {
					var stale *ErrStaleEpoch
					if !errors.Is(err, hypergraph.ErrCyclic) && !errors.As(err, &stale) {
						t.Errorf("reader: unexpected Parent error %v", err)
						return
					}
				}
				if jt, err := a.JoinTree(); err == nil {
					_ = jt.Parent
				} else {
					var stale *ErrStaleEpoch
					if !errors.Is(err, hypergraph.ErrCyclic) && !errors.As(err, &stale) {
						t.Errorf("reader: unexpected JoinTree error %v", err)
						return
					}
				}
				if i%10 == 0 {
					var stale *ErrStaleEpoch
					if _, err := a.Spectrum(context.Background()); err != nil && !errors.As(err, &stale) {
						t.Errorf("reader: unexpected Spectrum error %v", err)
						return
					}
				}
				_ = ws.Snapshot()
				_ = ws.Epoch()
			}
		}(w)
	}
	wg.Wait()
	// The surviving workspace must still agree with a from-scratch run.
	checkAgainstScratch(t, ws, -1, false)

	// Concurrent classifications of one handle coalesce on its session's
	// spectrum latch: one run, and no maximum cardinality search.
	a := ws.Analysis()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := a.Spectrum(context.Background()); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if st := a.inner.Stats(); st.HierarchyRuns != 1 || st.MCSRuns != 0 {
		t.Fatalf("classification hammer: stats = %+v, want one spectrum run and no MCS", st)
	}
}

// TestForestMatchesBuildMCS cross-checks the assembled multi-component
// forest against jointree.BuildMCS over the same snapshot on a workspace
// with several nontrivial components.
func TestForestMatchesBuildMCS(t *testing.T) {
	ws := New()
	for c := 0; c < 4; c++ {
		for i := 0; i < 5; i++ {
			ws.AddEdge(fmt.Sprintf("c%dx%d", c, i), fmt.Sprintf("c%dx%d", c, i+1), fmt.Sprintf("c%dy%d", c, i))
		}
	}
	a := ws.Analysis()
	jt, err := a.JoinTree()
	if err != nil {
		t.Fatal(err)
	}
	snap := ws.Snapshot()
	ref, ok := jointree.BuildMCS(snap)
	if !ok {
		t.Fatal("snapshot must be acyclic")
	}
	if err := jt.Verify(); err != nil {
		t.Fatal(err)
	}
	if err := ref.Verify(); err != nil {
		t.Fatal(err)
	}
	roots := func(p []int) int {
		n := 0
		for _, x := range p {
			if x == -1 {
				n++
			}
		}
		return n
	}
	if roots(jt.Parent) != roots(ref.Parent) {
		t.Fatalf("forest roots %d != BuildMCS roots %d", roots(jt.Parent), roots(ref.Parent))
	}
}
