package dynamic

import (
	"context"
	"errors"
	"fmt"
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

// nameOracle settles one member set the old way: members sorted by their
// name-sorted node lists, the set re-interned by name through a
// hypergraph.Builder, and MCS over that. Callers hold ws.mu.
func nameOracle(ws *Workspace, members []int) (order, parent []int, acyclic bool) {
	members = slices.Clone(members)
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

// checkEarTail asserts that every entry of a settled component's ear tail
// was hung as an ear of the entries before it: its parent is the
// lowest-positioned earlier entry holding each of its nodes that an earlier
// entry covers. Callers hold ws.mu.
func checkEarTail(t *testing.T, ws *Workspace, c *component, op int) {
	t.Helper()
	covered := map[int32]bool{}
	for q, eid := range c.order {
		ids := ws.edges[eid].ids
		if q >= c.base {
			holds := func(r int) bool {
				f := ws.edges[c.order[r]].ids
				for _, nid := range ids {
					if _, in := slices.BinarySearch(f, nid); covered[nid] && !in {
						return false
					}
				}
				return true
			}
			want := -1
			for r := range q {
				if holds(r) {
					want = r
					break
				}
			}
			if p := c.parent[q]; p != want {
				t.Fatalf("op %d: tail entry %d (edge %d) has parent %d; the lowest earlier entry holding its overlap is %d",
					op, q, eid, p, want)
			}
		}
		for _, nid := range ids {
			covered[nid] = true
		}
	}
}

// checkComponentOrder settles ws and asserts that every component's
// canonical fragment — order, parent links and verdict below base — is the
// name oracle's over the same members, and that its ear tail is an ear
// sequence. It reports how many components a member order taken from raw
// node ids would have put in a different order, and how many carried a
// non-empty tail.
func checkComponentOrder(t *testing.T, ws *Workspace, op int) (idOrderDiffers, tailed int) {
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
		if len(c.order) != len(c.edges) || c.acyclic && len(c.parent) != len(c.order) {
			t.Fatalf("op %d: component %d has %d members, %d positions, %d links", op, cid, len(c.edges), len(c.order), len(c.parent))
		}
		order, parent, acyclic := nameOracle(ws, c.order[:c.base])
		if !slices.Equal(c.order[:c.base], order) {
			t.Fatalf("op %d: component %d order %v, name oracle %v", op, cid, c.order[:c.base], order)
		}
		fragment := c.parent // nil on a cyclic component
		if c.acyclic {
			fragment = c.parent[:c.base]
		}
		if c.acyclic != acyclic || !slices.Equal(fragment, parent) {
			t.Fatalf("op %d: component %d acyclic=%v parent %v, name oracle acyclic=%v parent %v",
				op, cid, c.acyclic, c.parent, acyclic, parent)
		}
		if c.base < len(c.order) {
			tailed++
			checkEarTail(t, ws, c, op)
		}
		for q, eid := range c.order {
			if int(ws.edges[eid].pos) != q {
				t.Fatalf("op %d: edge %d at position %d records position %d", op, eid, q, ws.edges[eid].pos)
			}
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
	return idOrderDiffers, tailed
}

// lastEar reports whether removing edge id drops the only ear hung on its
// settled component, so that the removal empties the component's tail; it
// returns that component.
func lastEar(ws *Workspace, id int) (*component, bool) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	slot, ok := ws.decodeEdge(id)
	if !ok {
		return nil, false
	}
	w := &ws.edges[slot]
	c := ws.comps[w.comp]
	return c, c.settled && len(c.order) == c.base+1 && int(w.pos) == c.base
}

// TestComponentOrderMatchesNames differences every settled component's
// canonical fragment against the name oracle over random edit scripts, with
// and without an engine (odd seeds share one, so components also come back
// as memo hits from other workspaces). The scripts intern names in
// first-use order, remove edges so node ids and edge slots are reused, and
// rename nodes to fresh and released names, so node-id order and name order
// part ways; the test fails if they never do. They settle often and remove
// the newest edge now and then, so ears are hung and dropped: the test also
// fails unless some check sees an ear tail, and some removal empties a tail
// — each such component is then checked to be exactly canonical again.
func TestComponentOrderMatchesNames(t *testing.T) {
	nOps := 400
	if testing.Short() {
		nOps = 100
	}
	shared := engine.New()
	idOrderDiffers, tailed, emptied := 0, 0, 0
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
			check := func(op int) {
				d, n := checkComponentOrder(t, ws, op)
				idOrderDiffers += d
				tailed += n
			}
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
					if r == 7 {
						i = len(alive) - 1 // the newest edge: an ear just hung, often
					}
					c, last := lastEar(ws, alive[i])
					if err := ws.RemoveEdge(alive[i]); err != nil {
						t.Fatalf("op %d: RemoveEdge(%d): %v", op, alive[i], err)
					}
					alive = slices.Delete(alive, i, i+1)
					if last {
						if !c.settled || c.base != len(c.order) {
							t.Fatalf("op %d: dropping the only ear left the component settled=%v with %d of %d positions in the tail",
								op, c.settled, len(c.order)-c.base, len(c.order))
						}
						emptied++
						check(op)
					}
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
				switch rng.Intn(3) {
				case 0:
					check(op)
				case 1:
					ws.Analysis() // settle unchecked: the next edit may hang an ear
				}
			}
			check(nOps)
		})
	}
	if idOrderDiffers == 0 {
		t.Fatal("no settled component had a node-id order differing from its name order")
	}
	if tailed == 0 || emptied == 0 {
		t.Fatalf("scripts reached %d checked components with an ear tail and %d removals emptying one; want both", tailed, emptied)
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
