package dynamic

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/hypergraph"
)

// checkSnapshot asserts that the workspace's id-built snapshot is the
// hypergraph a name Builder builds over the alive edges in slot order: same
// node ids and names, same edge order, same Fingerprint and Fingerprint128.
// The reference reads only the public edge surface (EdgeIDs, EdgeNodes), so
// it shares nothing with the snapshot's name-order bookkeeping.
func checkSnapshot(t testing.TB, ws *Workspace, op int) {
	t.Helper()
	ids := ws.EdgeIDs()
	slot := func(id int) int { return id & (1<<32 - 1) }
	slices.SortFunc(ids, func(a, b int) int { return slot(a) - slot(b) })
	b := hypergraph.NewBuilder()
	for _, id := range ids {
		names, err := ws.EdgeNodes(id)
		if err != nil {
			t.Fatalf("op %d: EdgeNodes(%d): %v", op, id, err)
		}
		b.Edge(names...)
	}
	want := b.MustBuild()
	got := ws.Snapshot()
	if !slices.Equal(got.Nodes(), want.Nodes()) {
		t.Fatalf("op %d: snapshot nodes %v, want %v", op, got.Nodes(), want.Nodes())
	}
	if got.NumEdges() != want.NumEdges() {
		t.Fatalf("op %d: snapshot has %d edges, want %d", op, got.NumEdges(), want.NumEdges())
	}
	for i := 0; i < want.NumEdges(); i++ {
		if !slices.Equal(got.EdgeNodes(i), want.EdgeNodes(i)) {
			t.Fatalf("op %d: snapshot edge %d is %v, want %v", op, i, got.EdgeNodes(i), want.EdgeNodes(i))
		}
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("op %d: snapshot Fingerprint %q, want %q", op, got.Fingerprint(), want.Fingerprint())
	}
	if got.Fingerprint128() != want.Fingerprint128() {
		t.Fatalf("op %d: snapshot Fingerprint128 %v, want %v", op, got.Fingerprint128(), want.Fingerprint128())
	}
}

// TestSnapshotMatchesNameBuild differences the id-built snapshot against a
// name Builder over random edit scripts: adds from a name pool whose names
// prefix one another (n1, n10, n100), removals that free node ids and edge
// slots for reuse under bumped generations, and renames both to fresh names
// and onto released pool names. Snapshots are taken only now and then, so
// each one merges a varying batch of touched ids into the name order.
func TestSnapshotMatchesNameBuild(t *testing.T) {
	nOps := 600
	if testing.Short() {
		nOps = 150
	}
	for seed := int64(0); seed < 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			pool := make([]string, 12+int(seed)*6)
			for i := range pool {
				pool[i] = fmt.Sprintf("n%d", i*i%113)
			}
			pool = dedupStrings(slices.Sorted(slices.Values(pool)))
			ws := New()
			var alive []int
			for op := 0; op < nOps; op++ {
				switch r := rng.Intn(10); {
				case r < 5 || len(alive) == 0:
					nodes := make([]string, 1+rng.Intn(4))
					for i := range nodes {
						nodes[i] = pool[rng.Intn(len(pool))]
					}
					id, err := ws.AddEdge(nodes...)
					if err != nil {
						t.Fatalf("op %d: AddEdge(%v): %v", op, nodes, err)
					}
					alive = append(alive, id)
				case r < 8:
					i := rng.Intn(len(alive))
					if err := ws.RemoveEdge(alive[i]); err != nil {
						t.Fatalf("op %d: RemoveEdge(%d): %v", op, alive[i], err)
					}
					alive[i] = alive[len(alive)-1]
					alive = alive[:len(alive)-1]
				default:
					names, err := ws.EdgeNodes(alive[rng.Intn(len(alive))])
					if err != nil {
						t.Fatal(err)
					}
					old := names[rng.Intn(len(names))]
					fresh := pool[rng.Intn(len(pool))] // in use or released
					if rng.Intn(2) == 0 {
						fresh = fmt.Sprintf("%s~%d", old, op)
					}
					var exists *ErrNodeExists
					if err := ws.RenameNode(old, fresh); err != nil && !errors.As(err, &exists) {
						t.Fatalf("op %d: RenameNode(%s, %s): %v", op, old, fresh, err)
					}
				}
				if rng.Intn(4) == 0 {
					checkSnapshot(t, ws, op)
				}
			}
			checkSnapshot(t, ws, nOps)
			if ws.Snapshot() != ws.Snapshot() {
				t.Fatal("snapshot must be cached until the next edit")
			}
		})
	}
}
