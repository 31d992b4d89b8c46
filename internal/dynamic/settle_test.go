package dynamic

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/mcs"
)

// TestBoundedGrowthUnderChurn is the regression test for the workspace
// memory leak: before slot and name recycling, every AddEdge appended a
// fresh edge record forever and every departed node name stayed interned,
// so a long-running add/remove loop grew all backing structures linearly
// in the *history* instead of the live population. 10⁵ churn cycles must
// leave every structure bounded by a small constant.
func TestBoundedGrowthUnderChurn(t *testing.T) {
	cycles := 100000
	if testing.Short() {
		cycles = 5000
	}
	ws := New()
	for i := 0; i < cycles; i++ {
		// Fresh names every cycle: without name recycling the intern table
		// would end up with ~2*cycles entries.
		a := fmt.Sprintf("a%d", i)
		b := fmt.Sprintf("b%d", i)
		id, err := ws.AddEdge(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if err := ws.RemoveEdge(id); err != nil {
			t.Fatal(err)
		}
		if _, err := ws.EdgeNodes(id); err == nil {
			t.Fatalf("cycle %d: removed id %d still resolves", i, id)
		}
	}
	const bound = 8 // live population is 0; a small constant of slack is fine
	if len(ws.edges) > bound {
		t.Fatalf("edge slots grew with history: %d records after %d cycles (live: 0)", len(ws.edges), cycles)
	}
	if len(ws.names) > bound || len(ws.index) > bound {
		t.Fatalf("node intern table grew with history: %d names, %d index entries after %d cycles (live: 0)",
			len(ws.names), len(ws.index), cycles)
	}
	if len(ws.order.touched) > bound || len(ws.order.mark) > bound {
		t.Fatalf("name-order bookkeeping grew with history: touched=%d mark=%d", len(ws.order.touched), len(ws.order.mark))
	}
	if len(ws.inc) > bound || len(ws.nodeComp) > bound {
		t.Fatalf("per-node tables grew with history: inc=%d nodeComp=%d", len(ws.inc), len(ws.nodeComp))
	}
	if len(ws.comps) > bound {
		t.Fatalf("component table grew with history: %d records", len(ws.comps))
	}

	// The workspace is still fully functional after the churn.
	id, err := ws.AddEdge("x", "y")
	if err != nil {
		t.Fatal(err)
	}
	if !ws.Analysis().Verdict() {
		t.Fatal("single-edge workspace must be acyclic after churn")
	}
	if err := ws.RemoveEdge(id); err != nil {
		t.Fatal(err)
	}
}

// TestRemovedIDsStayDead: recycling an edge slot must not resurrect the old
// occupant's id — the generation check rejects every id a slot ever issued
// before its current occupant.
func TestRemovedIDsStayDead(t *testing.T) {
	ws := New()
	id1, _ := ws.AddEdge("A", "B")
	if err := ws.RemoveEdge(id1); err != nil {
		t.Fatal(err)
	}
	id2, err := ws.AddEdge("C", "D") // reuses the slot under a new generation
	if err != nil {
		t.Fatal(err)
	}
	if id1 == id2 {
		t.Fatalf("recycled slot reissued the same public id %d", id1)
	}
	if err := ws.RemoveEdge(id1); err == nil {
		t.Fatal("stale id removed the slot's new occupant")
	}
	if nodes, err := ws.EdgeNodes(id2); err != nil || len(nodes) != 2 {
		t.Fatalf("new occupant unreadable: %v %v", nodes, err)
	}
}

// TestRenameOntoDepartedName: departed names are released, so RenameNode
// may claim one (the pre-recycling workspace reserved them forever).
func TestRenameOntoDepartedName(t *testing.T) {
	ws := New()
	id, _ := ws.AddEdge("gone", "other")
	keep, _ := ws.AddEdge("stay1", "stay2")
	if err := ws.RemoveEdge(id); err != nil {
		t.Fatal(err)
	}
	if err := ws.RenameNode("stay1", "gone"); err != nil {
		t.Fatalf("rename onto departed name: %v", err)
	}
	nodes, err := ws.EdgeNodes(keep)
	if err != nil || nodes[0] != "gone" && nodes[1] != "gone" {
		t.Fatalf("rename did not take: %v %v", nodes, err)
	}
	// Current names still collide.
	if err := ws.RenameNode("stay2", "gone"); err == nil {
		t.Fatal("rename onto a current name must fail")
	}
}

// TestBatchedSettleMatchesScratch runs random edit scripts that settle only
// every fifth op, so each settle recomputes a multi-component dirty set in
// one serial loop; checkAgainstScratch compares every settled epoch against
// a from-scratch analysis of the snapshot.
func TestBatchedSettleMatchesScratch(t *testing.T) {
	nOps := 400
	if testing.Short() {
		nOps = 80
	}
	for _, seed := range []int64{102, 108, 402, 408} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			ws := New()
			var alive []int
			multi := 0 // settles that found more than one dirty component
			for op := 0; op < nOps; op++ {
				if len(alive) == 0 || rng.Float64() < 0.6 {
					arity := 1 + rng.Intn(3)
					nodes := make([]string, arity)
					for i := range nodes {
						nodes[i] = fmt.Sprintf("n%02d", rng.Intn(14))
					}
					id, err := ws.AddEdge(nodes...)
					if err != nil {
						t.Fatal(err)
					}
					alive = append(alive, id)
				} else {
					i := rng.Intn(len(alive))
					if err := ws.RemoveEdge(alive[i]); err != nil {
						t.Fatal(err)
					}
					alive[i] = alive[len(alive)-1]
					alive = alive[:len(alive)-1]
				}
				if op%5 != 0 {
					continue
				}
				if len(ws.dirty) > 1 {
					multi++
				}
				checkAgainstScratch(t, ws, op, false)
			}
			if multi == 0 {
				t.Fatal("no settle saw a multi-component dirty set")
			}
		})
	}
}

// TestColdSettleMatchesMCS: a workspace seeded with many disjoint
// components settles them all on the first Analysis, and the verdict must
// match a from-scratch MCS over the snapshot — with mixed verdicts across
// the components.
func TestColdSettleMatchesMCS(t *testing.T) {
	for _, cyclic := range []bool{false, true} {
		ws := New()
		for c := 0; c < 40; c++ {
			// Component c: a small acyclic chain, closed into a triangle
			// every 10th when the run wants cyclic components.
			p := func(n int) string { return fmt.Sprintf("c%d_n%d", c, n) }
			ws.AddEdge(p(0), p(1))
			ws.AddEdge(p(1), p(2))
			if cyclic && c%10 == 9 {
				ws.AddEdge(p(2), p(0))
			}
		}
		if len(ws.dirty) != 40 || ws.NumComponents() != 40 {
			t.Fatalf("cyclic=%v: %d dirty of %d components, want 40 of 40", cyclic, len(ws.dirty), ws.NumComponents())
		}
		snap := ws.Snapshot()
		if got, want := ws.Analysis().Verdict(), mcs.IsAcyclic(snap); got != want || got == cyclic {
			t.Fatalf("cyclic=%v: cold settle verdict %v, MCS over the snapshot %v", cyclic, got, want)
		}
		if len(ws.dirty) != 0 {
			t.Fatalf("cyclic=%v: %d components left dirty after a cold settle", cyclic, len(ws.dirty))
		}
	}
}

// TestAnalysisCtxCancellation: a cancelled context aborts settling with
// ctx.Err() instead of running the component searches to completion, and a
// later call with a live context recovers.
func TestAnalysisCtxCancellation(t *testing.T) {
	ws := New()
	ws.AddEdge("A", "B")
	ws.AddEdge("B", "C")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ws.AnalysisCtx(ctx); err != context.Canceled {
		t.Fatalf("AnalysisCtx on cancelled ctx: err = %v, want context.Canceled", err)
	}
	a, err := ws.AnalysisCtx(context.Background())
	if err != nil || !a.Verdict() {
		t.Fatalf("recovery failed: %v %v", a, err)
	}
}
