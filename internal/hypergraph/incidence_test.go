package hypergraph

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// checkIncidence compares h's incidence index with the dense edges: every
// member list is h.Members and the elements of the edge's Edges() set,
// naming the nodes EdgeNodes names, every node's edge list is the edges
// whose set holds it in index order, and every list is strictly ascending.
func checkIncidence(t *testing.T, name string, h *Hypergraph) {
	t.Helper()
	x := h.Incidence()
	sets := h.Edges()
	if len(sets) != h.NumEdges() {
		t.Fatalf("%s: Edges() has %d sets for %d edges", name, len(sets), h.NumEdges())
	}
	if x.NumEdges() != h.NumEdges() || x.Universe() != h.Universe() {
		t.Fatalf("%s: index has %d edges over universe %d, hypergraph %d over %d",
			name, x.NumEdges(), x.Universe(), h.NumEdges(), h.Universe())
	}
	size := 0
	for e := 0; e < h.NumEdges(); e++ {
		want := []int32{}
		sets[e].ForEach(func(id int) { want = append(want, int32(id)) })
		size += len(want)
		if got := append([]int32{}, x.Members(e)...); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Members(%d) = %v, want %v", name, e, got, want)
		}
		if got := append([]int32{}, h.Members(e)...); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: hypergraph Members(%d) = %v, want %v", name, e, got, want)
		}
		names := make([]string, len(want))
		for k, id := range want {
			names[k] = h.NodeName(int(id))
		}
		if got := h.EdgeNodes(e); !reflect.DeepEqual(got, names) {
			t.Fatalf("%s: EdgeNodes(%d) = %v, want %v", name, e, got, names)
		}
		checkAscending(t, fmt.Sprintf("%s: Members(%d)", name, e), x.Members(e))
	}
	if x.Size() != size {
		t.Fatalf("%s: Size() = %d, want %d", name, x.Size(), size)
	}
	for v := 0; v < h.Universe(); v++ {
		want := []int32{}
		for e := 0; e < h.NumEdges(); e++ {
			if sets[e].Contains(v) {
				want = append(want, int32(e))
			}
		}
		if got := append([]int32{}, x.Edges(v)...); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Edges(%d) = %v, want %v", name, v, got, want)
		}
		checkAscending(t, fmt.Sprintf("%s: Edges(%d)", name, v), x.Edges(v))
	}
}

func checkAscending(t *testing.T, what string, l []int32) {
	t.Helper()
	for i := 1; i < len(l); i++ {
		if l[i-1] >= l[i] {
			t.Fatalf("%s = %v is not strictly ascending", what, l)
		}
	}
}

// TestIncidenceMatchesEdges pins the index against the dense edges, on
// universes of thousands of ids with short edges and of tens with wide
// ones, duplicate and empty edges, edgeless hypergraphs, universes with ids
// no edge uses, and derived hypergraphs that keep a larger universe than
// their node set.
func TestIncidenceMatchesEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	randomEdges := func(n, m, maxArity int) [][]int32 {
		edges := make([][]int32, m)
		for i := range edges {
			for k := rng.Intn(maxArity + 1); k > 0; k-- {
				edges[i] = append(edges[i], int32(rng.Intn(n)))
			}
		}
		return edges
	}
	sparse := FromIDs(5000, randomEdges(5000, 300, 6))
	dense := FromIDs(60, randomEdges(60, 80, 30))
	mixed := FromIDs(3000, append(randomEdges(3000, 50, 4), randomEdges(3000, 3, 2000)...))
	cases := []struct {
		name string
		h    *Hypergraph
	}{
		{"fig1", Fig1()},
		{"sparse", sparse},
		{"dense", dense},
		{"mixed", mixed},
		{"duplicates-and-empty", FromIDs(6, [][]int32{{1, 2}, {}, {1, 2}, {0, 5}, {}, {2, 1}})},
		{"names-duplicates", New([][]string{{"A", "B"}, {"B", "A"}, {}, {"C"}})},
		{"no-edges", FromIDs(7, nil)},
		{"universe-0", FromIDs(0, nil)},
		{"universe-0-empty-edge", FromIDs(0, [][]int32{{}})},
		{"unused-ids", FromIDs(40, [][]int32{{3, 9}, {9, 21}, {21, 39}})},
		{"node-generated", sparse.NodeGenerated(sparse.MustSet("N1", "N2", "N3", "N40", "N41", "N4999"))},
		{"remove-nodes-sparse", sparse.RemoveNodes(sparse.MustSet("N0", "N7", "N100", "N2500"))},
		{"remove-nodes-dense", dense.RemoveNodes(dense.MustSet("N0", "N1", "N2", "N30"))},
		{"remove-everything", Fig1().RemoveNodes(Fig1().NodeSet())},
	}
	for _, c := range cases {
		checkIncidence(t, c.name, c.h)
	}
	// The derived cases must really keep the larger universe.
	if g := cases[10].h; g.Universe() != 5000 || g.NumNodes() >= 5000 {
		t.Fatalf("node-generated: universe %d, %d nodes", g.Universe(), g.NumNodes())
	}
}
