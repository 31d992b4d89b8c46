package dynamic

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"testing"

	"repro/internal/engine"
	"repro/internal/hypergraph"
)

// checkParent asserts that the handle's Parent is JoinTree().Parent at the
// handle's epoch — the same links, and the same slice — or, on a cyclic
// epoch, that both report ErrCyclic. Odd ops read Parent first, so the
// session is seeded from the handle's links; even ops read JoinTree first,
// so Parent answers from the links the session was seeded with.
func checkParent(t *testing.T, a *Analysis, op int) {
	t.Helper()
	var p, jtParent []int
	var pErr, jtErr error
	readJT := func() {
		jt, err := a.JoinTree()
		jtErr = err
		if err == nil {
			jtParent = jt.Parent
		}
	}
	if op%2 == 1 {
		p, pErr = a.Parent()
		readJT()
	} else {
		readJT()
		p, pErr = a.Parent()
	}
	if !a.Verdict() {
		if !errors.Is(pErr, hypergraph.ErrCyclic) || !errors.Is(jtErr, hypergraph.ErrCyclic) {
			t.Fatalf("op %d: cyclic epoch: Parent err %v, JoinTree err %v, want ErrCyclic", op, pErr, jtErr)
		}
		return
	}
	if pErr != nil || jtErr != nil {
		t.Fatalf("op %d: Parent err %v, JoinTree err %v", op, pErr, jtErr)
	}
	if p == nil || !slices.Equal(p, jtParent) {
		t.Fatalf("op %d: Parent %v, JoinTree().Parent %v", op, p, jtParent)
	}
	if len(p) != a.NumEdges() {
		t.Fatalf("op %d: Parent has %d links for %d edges", op, len(p), a.NumEdges())
	}
	if len(p) > 0 && &p[0] != &jtParent[0] {
		t.Fatalf("op %d: Parent and the session's join tree hold different slices", op)
	}
	if again, _ := a.Parent(); len(p) > 0 && &again[0] != &p[0] {
		t.Fatalf("op %d: Parent assembled twice on one handle", op)
	}
}

// checkStale asserts that a handle of an edited-away epoch reports the same
// *ErrStaleEpoch from Parent as from JoinTree.
func checkStale(t *testing.T, a *Analysis, op int) {
	t.Helper()
	_, pErr := a.Parent()
	_, jtErr := a.JoinTree()
	var ps, js *ErrStaleEpoch
	if !errors.As(pErr, &ps) || !errors.As(jtErr, &js) || *ps != *js {
		t.Fatalf("op %d: stale handle: Parent err %v, JoinTree err %v, want one *ErrStaleEpoch", op, pErr, jtErr)
	}
}

// TestParentMatchesJoinTree differences the handle's Parent against its
// JoinTree().Parent on every epoch of random edit scripts: adds (some
// closing cycles), removes (some emptying the workspace), and renames,
// with and without an attached engine; and after every edit, the previous
// epoch's handle reports the same *ErrStaleEpoch from both.
func TestParentMatchesJoinTree(t *testing.T) {
	nOps := 400
	if testing.Short() {
		nOps = 100
	}
	shared := engine.New()
	for seed := int64(0); seed < 6; seed++ {
		var opts []Option
		if seed%2 == 1 {
			opts = append(opts, WithEngine(shared))
		}
		poolSize := []int{5, 9, 14}[seed%3]
		t.Run(fmt.Sprintf("seed=%d/pool=%d", seed, poolSize), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			ws := New(opts...)
			prev := ws.Analysis()
			checkParent(t, prev, -1) // the empty workspace
			var alive []int
			cyclic, empty := 0, 0
			for op := 0; op < nOps; op++ {
				switch r := rng.Intn(20); {
				case r < 10 || len(alive) == 0:
					nodes := make([]string, 1+rng.Intn(3))
					for i := range nodes {
						nodes[i] = "n" + strconv.Itoa(rng.Intn(poolSize))
					}
					id, err := ws.AddEdge(nodes...)
					if err != nil {
						t.Fatal(err)
					}
					alive = append(alive, id)
				case r < 18:
					i := rng.Intn(len(alive))
					if err := ws.RemoveEdge(alive[i]); err != nil {
						t.Fatal(err)
					}
					alive = slices.Delete(alive, i, i+1)
				case r < 19:
					// Empty the workspace now and then.
					for _, id := range alive {
						if err := ws.RemoveEdge(id); err != nil {
							t.Fatal(err)
						}
					}
					alive = alive[:0]
				default:
					names, err := ws.EdgeNodes(alive[rng.Intn(len(alive))])
					if err != nil {
						t.Fatal(err)
					}
					var exists *ErrNodeExists
					fresh := "n" + strconv.Itoa(rng.Intn(2*poolSize))
					if err := ws.RenameNode(names[0], fresh); err != nil && !errors.As(err, &exists) {
						t.Fatal(err)
					}
				}
				a := ws.Analysis()
				if a != prev {
					checkStale(t, prev, op)
				}
				checkParent(t, a, op)
				prev = a
				if !a.Verdict() {
					cyclic++
				}
				if a.NumEdges() == 0 {
					empty++
				}
			}
			if cyclic == 0 || cyclic == nOps || empty == 0 {
				t.Fatalf("script reached %d cyclic and %d empty epochs of %d", cyclic, empty, nOps)
			}
		})
	}
}

// TestParentBuildsNoSnapshot pins that Parent reads the settled fragments
// only: the epoch snapshot stays unbuilt until a facet that needs it runs.
func TestParentBuildsNoSnapshot(t *testing.T) {
	ws := New()
	for _, e := range [][]string{{"A", "B", "C"}, {"C", "D", "E"}, {"A", "E", "F"}, {"A", "C", "E"}, {"X", "Y"}} {
		if _, err := ws.AddEdge(e...); err != nil {
			t.Fatal(err)
		}
	}
	a := ws.Analysis()
	if _, err := a.Parent(); err != nil {
		t.Fatal(err)
	}
	ws.mu.Lock()
	snap := ws.snap
	ws.mu.Unlock()
	a.mu.Lock()
	inner := a.inner
	a.mu.Unlock()
	if snap != nil || inner != nil {
		t.Fatalf("Parent built the snapshot (%v) or the session (%v)", snap != nil, inner != nil)
	}
	if _, err := a.JoinTree(); err != nil {
		t.Fatal(err)
	}
	if ws.Snapshot() == nil {
		t.Fatal("JoinTree did not build the snapshot")
	}
}

// TestParentAllocsIndependentOfIdleComponents is the read side's
// locality pin: an edit-and-read cycle on one component — hang an ear
// inside it, read Parent, drop the ear — allocates as many objects with 30
// idle chains beside it as with one. The read reuses the workspace's one
// position scratch, so the only bytes that grow with the idle edges are
// the parent links the read returns: under 9 bytes per idle edge, where a
// per-read position slice would add 4 more.
func TestParentAllocsIndependentOfIdleComponents(t *testing.T) {
	cycle := func(idle int) (allocs, bytes float64, edges int) {
		ws := New()
		for k := 0; k < idle; k++ {
			for j := 0; j < 6; j++ {
				c := func(i int) string { return "c" + strconv.Itoa(k) + "_" + strconv.Itoa(i) }
				if _, err := ws.AddEdge(c(2*j), c(2*j+1), c(2*j+2)); err != nil {
					t.Fatal(err)
				}
			}
		}
		for j := 0; j < 40; j++ {
			if _, err := ws.AddEdge("b"+strconv.Itoa(j), "b"+strconv.Itoa(j+1)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := ws.Analysis().Parent(); err != nil {
			t.Fatal(err)
		}
		scratch := &ws.livePos[0]
		step := func() {
			id, err := ws.AddEdge("b7", "b8", "x")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ws.Analysis().Parent(); err != nil {
				t.Fatal(err)
			}
			if err := ws.RemoveEdge(id); err != nil {
				t.Fatal(err)
			}
		}
		allocs = testing.AllocsPerRun(20, step)
		const runs = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			step()
		}
		runtime.ReadMemStats(&after)
		if &ws.livePos[0] != scratch {
			t.Fatalf("beside %d idle chains: Parent reads replaced the position scratch", idle)
		}
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs, ws.NumEdges()
	}
	oneA, oneB, oneE := cycle(1)
	thirtyA, thirtyB, thirtyE := cycle(30)
	if oneA != thirtyA {
		t.Fatalf("edit-and-read cycle allocates %v objects beside 1 idle chain, %v beside 30", oneA, thirtyA)
	}
	if perEdge := (thirtyB - oneB) / float64(thirtyE-oneE); perEdge >= 9 {
		t.Fatalf("edit-and-read cycle allocates %.0f B beside 1 idle chain, %.0f B beside 30: %.1f B per idle edge, want < 9",
			oneB, thirtyB, perEdge)
	}
}
