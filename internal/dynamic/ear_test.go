package dynamic

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/engine"
	"repro/internal/hypergraph"
)

// fullSettle returns the fragment a full settle derives for component c as
// it stands, without touching c or the engine memo: recompute runs on a
// scratch component over the same members, with the engine detached.
// Callers hold ws.mu.
func fullSettle(t *testing.T, ws *Workspace, c *component) *component {
	t.Helper()
	ref := &component{edges: c.edges, sum: c.sum}
	eng := ws.eng
	ws.eng = nil
	defer func() { ws.eng = eng }()
	if err := ws.recompute(context.Background(), ref); err != nil {
		t.Fatal(err)
	}
	return ref
}

// checkFullSettle settles ws and differences every component against a
// forced full settle: the same verdict always, and, whenever its ear tail
// is empty, byte-equal order and parent links. Each ear tail must be an
// ear sequence, and an acyclic epoch's forest must pass Verify. It reports
// how many components carried a non-empty tail.
func checkFullSettle(t *testing.T, ws *Workspace, op int) (tailed int) {
	t.Helper()
	a := ws.Analysis()
	if a.Verdict() {
		jt, err := a.JoinTree()
		if err != nil {
			t.Fatalf("op %d: acyclic epoch: JoinTree: %v", op, err)
		}
		if err := jt.Verify(); err != nil {
			t.Fatalf("op %d: forest violates RIP on %v: %v", op, jt.H, err)
		}
	}
	ws.mu.Lock()
	defer ws.mu.Unlock()
	acyclic := true
	for cid, c := range ws.comps {
		if c == nil {
			continue
		}
		ref := fullSettle(t, ws, c)
		if c.acyclic != ref.acyclic {
			t.Fatalf("op %d: component %d acyclic=%v, full settle %v", op, cid, c.acyclic, ref.acyclic)
		}
		acyclic = acyclic && ref.acyclic
		if c.base < len(c.order) {
			tailed++
			checkEarTail(t, ws, c, op)
			continue
		}
		if !slices.Equal(c.order, ref.order) || !slices.Equal(c.parent, ref.parent) {
			t.Fatalf("op %d: component %d with no ear hung: order %v parent %v, full settle order %v parent %v",
				op, cid, c.order, c.parent, ref.order, ref.parent)
		}
	}
	if a.Verdict() != acyclic {
		t.Fatalf("op %d: verdict %v, full settles %v", op, a.Verdict(), acyclic)
	}
	return tailed
}

// TestEarPathMatchesFullSettle differences the ear path against a forced
// full settle over random ear-heavy edit scripts, with and without an
// engine, settling after every edit so that most adds meet a settled
// component. Half the adds take a subset of an alive edge's nodes plus
// fresh ones — an ear of an acyclic component — the rest draw from a small
// pool and close cycles, merge and rename; removals favour the newest
// edge. Every epoch's verdicts match, its forest verifies, and each
// component with no ear hung carries the full settle's fragment byte for
// byte. The test fails unless the scripts hang ears and empty tails again.
func TestEarPathMatchesFullSettle(t *testing.T) {
	nOps := 600
	if testing.Short() {
		nOps = 150
	}
	shared := engine.New()
	before := earEdits.Value()
	tailed, emptied := 0, 0
	for seed := int64(0); seed < 6; seed++ {
		var opts []Option
		if seed%2 == 1 {
			opts = append(opts, WithEngine(shared))
		}
		t.Run(fmt.Sprintf("seed=%d/engine=%v", seed, len(opts) > 0), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			ws := New(opts...)
			var alive []int
			fresh := 0
			for op := 0; op < nOps; op++ {
				switch r := rng.Intn(20); {
				case len(alive) == 0 || r < 8:
					var nodes []string
					if len(alive) > 0 {
						names, err := ws.EdgeNodes(alive[rng.Intn(len(alive))])
						if err != nil {
							t.Fatal(err)
						}
						rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
						nodes = names[:1+rng.Intn(len(names))]
					}
					for k := rng.Intn(3); k >= 0; k-- {
						nodes = append(nodes, fmt.Sprintf("x%d", fresh))
						fresh++
					}
					id, err := ws.AddEdge(nodes...)
					if err != nil {
						t.Fatal(err)
					}
					alive = append(alive, id)
				case r < 11:
					nodes := make([]string, 1+rng.Intn(3))
					for i := range nodes {
						nodes[i] = fmt.Sprintf("p%d", rng.Intn(8))
					}
					id, err := ws.AddEdge(nodes...)
					if err != nil {
						t.Fatal(err)
					}
					alive = append(alive, id)
				case r < 19:
					i := len(alive) - 1
					if r < 14 {
						i = rng.Intn(len(alive))
					}
					c, last := lastEar(ws, alive[i])
					if err := ws.RemoveEdge(alive[i]); err != nil {
						t.Fatal(err)
					}
					alive = slices.Delete(alive, i, i+1)
					if last {
						if !c.settled || c.base != len(c.order) {
							t.Fatalf("op %d: dropping the only ear left the component unsettled or tailed", op)
						}
						emptied++
					}
				default:
					names, err := ws.EdgeNodes(alive[rng.Intn(len(alive))])
					if err != nil {
						t.Fatal(err)
					}
					if err := ws.RenameNode(names[0], fmt.Sprintf("r%d", op)); err != nil {
						t.Fatal(err)
					}
				}
				tailed += checkFullSettle(t, ws, op)
			}
		})
	}
	if tailed == 0 || emptied == 0 || earEdits.Value() == before {
		t.Fatalf("scripts reached %d components with an ear tail, %d removals emptying one, %d ear edits; want all",
			tailed, emptied, earEdits.Value()-before)
	}
}

// TestEarTailNeverWritesMemo: ear edits on workspace A neither probe nor
// fill the engine memo, and a workspace B holding A's settled content — Fig.
// 1, whatever A hung on it since — still hits the entry A's settle left and
// reads the parent links a workspace without an engine computes.
func TestEarTailNeverWritesMemo(t *testing.T) {
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
	e := engine.New()
	a := New(WithEngine(e))
	addAll(a, fig1)
	if _, err := a.Analysis().Parent(); err != nil {
		t.Fatal(err)
	}
	base := e.Stats()
	// Ears: one under {A,B,C}, one under that ear, and one under {C,D,E},
	// which is dropped again.
	var ears []int
	for _, edge := range [][]string{{"A", "B", "X"}, {"X", "Y"}, {"D", "E", "Z"}} {
		ears = append(ears, addAll(a, [][]string{edge})...)
		if _, err := a.Analysis().Parent(); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.RemoveEdge(ears[2]); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Analysis().Parent(); err != nil {
		t.Fatal(err)
	}
	a.mu.Lock()
	c := a.comps[a.edges[ears[0]].comp]
	tail := len(c.order) - c.base
	a.mu.Unlock()
	if tail != 2 {
		t.Fatalf("A's component carries %d ears, want 2", tail)
	}
	if after := e.Stats(); after != base {
		t.Fatalf("ear edits touched the memo: %+v -> %+v", base, after)
	}

	rev := slices.Clone(fig1) // another insertion order, other node ids
	slices.Reverse(rev)
	b := New(WithEngine(e))
	addAll(b, rev)
	got, err := b.Analysis().Parent()
	if err != nil {
		t.Fatal(err)
	}
	after := e.Stats()
	if after.Hits != base.Hits+1 || after.Misses != base.Misses || after.Components != base.Components {
		t.Fatalf("B must hit the entry A's settle left: %+v -> %+v", base, after)
	}
	alone := New()
	addAll(alone, rev)
	want, err := alone.Analysis().Parent()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("B's parent links %v, a workspace without an engine %v", got, want)
	}
}

// TestDropEarKeepsTailOrder drops an ear from the middle of a tail whose
// later entries hang under later ears: the entries after it move down one
// position, and so do the parent links that point past it, so the tail is
// still an ear sequence and the forest still verifies. Dropping an ear
// with an ear hung under it, or one whose component an edit has dirtied
// since, takes the full path: here each has become a bridge, so the
// component splits.
func TestDropEarKeepsTailOrder(t *testing.T) {
	ws := New()
	for _, e := range [][]string{{"A", "B", "C"}, {"C", "D", "E"}, {"A", "E", "F"}, {"A", "C", "E"}} {
		if _, err := ws.AddEdge(e...); err != nil {
			t.Fatal(err)
		}
	}
	checkFullSettle(t, ws, 0)
	var ears []int
	for op, e := range [][]string{{"A", "B", "X"}, {"C", "D", "Z"}, {"Z", "Y"}, {"Y", "W"}} {
		id, err := ws.AddEdge(e...)
		if err != nil {
			t.Fatal(err)
		}
		ears = append(ears, id)
		if tailed := checkFullSettle(t, ws, 1+op); tailed != 1 {
			t.Fatalf("op %d: %d tailed components, want 1", 1+op, tailed)
		}
	}
	tail := func() (order, parent []int) {
		ws.mu.Lock()
		defer ws.mu.Unlock()
		c := ws.comps[ws.edges[ears[0]].comp]
		return slices.Clone(c.order[c.base:]), slices.Clone(c.parent[c.base:])
	}
	if order, parent := tail(); !slices.Equal(order, ears) || !slices.Equal(parent, []int{0, 3, 5, 6}) {
		t.Fatalf("tail %v under %v, want %v under [0 3 5 6]", order, parent, ears)
	}
	if err := ws.RemoveEdge(ears[0]); err != nil { // a leaf ahead of the others
		t.Fatal(err)
	}
	if order, parent := tail(); !slices.Equal(order, ears[1:]) || !slices.Equal(parent, []int{3, 4, 5}) {
		t.Fatalf("after dropping the first ear: tail %v under %v, want %v under [3 4 5]", order, parent, ears[1:])
	}
	checkFullSettle(t, ws, 5)
	if err := ws.RemoveEdge(ears[2]); err != nil { // {Y,W} still hangs under it
		t.Fatal(err)
	}
	ws.mu.Lock()
	settled := ws.comps[ws.edges[ears[1]].comp].settled
	ws.mu.Unlock()
	if settled {
		t.Fatal("dropping an ear with an ear under it left the component settled")
	}
	if tailed := checkFullSettle(t, ws, 6); tailed != 0 {
		t.Fatalf("a full settle left %d tailed components", tailed)
	}

	// An ear hung on Fig. 1, its component dirtied by a rename, and an
	// edge added beyond it: the ear now bridges the two.
	bridge, err := ws.AddEdge("A", "B", "V")
	if err != nil {
		t.Fatal(err)
	}
	checkFullSettle(t, ws, 7)
	if err := ws.RenameNode("F", "F2"); err != nil {
		t.Fatal(err)
	}
	if _, err := ws.AddEdge("V", "U"); err != nil {
		t.Fatal(err)
	}
	if err := ws.RemoveEdge(bridge); err != nil {
		t.Fatal(err)
	}
	checkAgainstScratch(t, ws, 10, false)
	checkFullSettle(t, ws, 10)
}

// TestEdgeRecordFitsPosition pins that an edge record's fragment position
// sits in the padding after alive: a wedge is no larger than the same
// record without it, so the ear path costs no memory per edge.
func TestEdgeRecordFitsPosition(t *testing.T) {
	type withoutPos struct {
		ids    []int32
		comp   int32
		gen    uint32
		alive  bool
		digest hypergraph.Fingerprint128
	}
	if got, want := unsafe.Sizeof(wedge{}), unsafe.Sizeof(withoutPos{}); got > want {
		t.Fatalf("edge record is %d bytes, %d without its fragment position", got, want)
	}
}
