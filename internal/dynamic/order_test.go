package dynamic

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/engine"
	"repro/internal/hypergraph"
	"repro/internal/mcs"
)

// byNameSeq sorts component members by their canonical name sequences,
// keeping the parallel key slice aligned: the workspace's canonical member
// order before components were laid out by name-order rank, kept here as
// the oracle.
type byNameSeq struct {
	members []int
	keys    [][]string
}

func (s *byNameSeq) Len() int { return len(s.members) }
func (s *byNameSeq) Swap(i, j int) {
	s.members[i], s.members[j] = s.members[j], s.members[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}
func (s *byNameSeq) Less(i, j int) bool {
	a, b := s.keys[i], s.keys[j]
	for k := 0; k < len(a) && k < len(b); k++ {
		if a[k] != b[k] {
			return a[k] < b[k]
		}
	}
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	return s.members[i] < s.members[j]
}

// nameOracle settles one component the old way: members sorted by their
// name-sorted node lists, the component re-interned by name through a
// hypergraph.Builder, and MCS over that. Callers hold ws.mu.
func nameOracle(ws *Workspace, c *component) (order, parent []int, acyclic bool) {
	members := slices.Collect(maps.Keys(c.edges))
	keys := make([][]string, len(members))
	for i, eid := range members {
		keys[i] = ws.sortedNames(ws.edges[eid].ids)
	}
	sort.Sort(&byNameSeq{members: members, keys: keys})
	b := hypergraph.NewBuilder()
	for _, names := range keys {
		b.Edge(names...)
	}
	r, err := mcs.RunCtx(context.Background(), b.MustBuild())
	if err != nil {
		panic(err)
	}
	if !r.Acyclic {
		return members, nil, false
	}
	return members, r.Parent, true
}

// checkComponentOrder settles ws and asserts that every component's order,
// parent links and verdict are the name oracle's. It reports how many
// components a member order taken from raw node ids would have put in a
// different order.
func checkComponentOrder(t *testing.T, ws *Workspace, op int) (idOrderDiffers int) {
	t.Helper()
	ws.Analysis()
	ws.mu.Lock()
	defer ws.mu.Unlock()
	for cid, c := range ws.comps {
		if c == nil {
			continue
		}
		if !c.settled {
			t.Fatalf("op %d: component %d unsettled after Analysis", op, cid)
		}
		order, parent, acyclic := nameOracle(ws, c)
		if !slices.Equal(c.order, order) {
			t.Fatalf("op %d: component %d order %v, name oracle %v", op, cid, c.order, order)
		}
		if c.acyclic != acyclic || !slices.Equal(c.parent, parent) {
			t.Fatalf("op %d: component %d acyclic=%v parent %v, name oracle acyclic=%v parent %v",
				op, cid, c.acyclic, c.parent, acyclic, parent)
		}
		byID := slices.Clone(order)
		slices.SortFunc(byID, func(a, b int) int {
			if c := slices.Compare(ws.edges[a].ids, ws.edges[b].ids); c != 0 {
				return c
			}
			return a - b
		})
		if !slices.Equal(byID, order) {
			idOrderDiffers++
		}
	}
	return idOrderDiffers
}

// TestComponentOrderMatchesNames differences every settled component's
// canonical order, parent links and verdict against the name oracle over
// random edit scripts, with and without an engine (odd seeds share one, so
// components also come back as memo hits from other workspaces). The
// scripts intern names in first-use order, remove edges so node ids and
// edge slots are reused, and rename nodes to fresh and released names, so
// node-id order and name order part ways; the test fails if they never do.
func TestComponentOrderMatchesNames(t *testing.T) {
	nOps := 400
	if testing.Short() {
		nOps = 100
	}
	shared := engine.New()
	idOrderDiffers := 0
	for seed := int64(0); seed < 6; seed++ {
		var opts []Option
		if seed%2 == 1 {
			opts = append(opts, WithEngine(shared))
		}
		t.Run(fmt.Sprintf("seed=%d/engine=%v", seed, len(opts) > 0), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			pool := make([]string, 10+int(seed)*4)
			for i := range pool {
				pool[i] = fmt.Sprintf("n%d", i*i%97)
			}
			ws := New(opts...)
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
				if rng.Intn(3) == 0 {
					idOrderDiffers += checkComponentOrder(t, ws, op)
				}
			}
			idOrderDiffers += checkComponentOrder(t, ws, nOps)
		})
	}
	if idOrderDiffers == 0 {
		t.Fatal("no settled component had a node-id order differing from its name order")
	}
}

// dedupStrings drops adjacent duplicates from a sorted slice, in place.
func dedupStrings(sorted []string) []string {
	out := sorted[:0]
	for i, s := range sorted {
		if i == 0 || s != sorted[i-1] {
			out = append(out, s)
		}
	}
	return out
}
