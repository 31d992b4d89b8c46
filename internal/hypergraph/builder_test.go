package hypergraph

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/bitset"
)

func TestBuilderNameMode(t *testing.T) {
	h, err := NewBuilder().
		NamedEdge("R1", "A", "B", "C").
		Edge("C", "D", "E").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	want := New([][]string{{"A", "B", "C"}, {"C", "D", "E"}})
	if !h.Equal(want) {
		t.Fatalf("builder = %v, want %v", h, want)
	}
}

func TestBuilderIDMode(t *testing.T) {
	h, err := NewBuilder().
		UniverseSize(5).
		EdgeIDs(0, 1, 2).
		EdgeIDs(4, 2). // unsorted: must be sorted+deduped
		Build()
	if err != nil {
		t.Fatal(err)
	}
	want := FromIDs(5, [][]int32{{0, 1, 2}, {2, 4}})
	if !h.Equal(want) {
		t.Fatalf("builder = %v, want %v", h, want)
	}
	// Undeclared universe: inferred as 1 + max id.
	g, err := NewBuilder().EdgeIDs(0, 7).Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.Universe() != 8 {
		t.Fatalf("inferred universe = %d, want 8", g.Universe())
	}
}

func TestBuilderModeMixingFails(t *testing.T) {
	if _, err := NewBuilder().Edge("A", "B").EdgeIDs(0, 1).Build(); err == nil {
		t.Fatal("name edges then id edges must fail")
	}
	if _, err := NewBuilder().EdgeIDs(0, 1).Edge("A", "B").Build(); err == nil {
		t.Fatal("id edges then name edges must fail")
	}
	if _, err := NewBuilder().UniverseSize(4).Edge("A").Build(); err == nil {
		t.Fatal("universe then name edge must fail")
	}
	if _, err := NewBuilder().UniverseSize(2).EdgeIDs(0, 5).Build(); err == nil {
		t.Fatal("id out of universe must fail")
	}
}

func TestBuilderText(t *testing.T) {
	b := NewBuilder().Text("# comment\nR1: A B\nB C\n")
	h, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if h.NumEdges() != 2 {
		t.Fatalf("edges = %d", h.NumEdges())
	}
	if names := b.EdgeNames(); !reflect.DeepEqual(names, []string{"R1", ""}) {
		t.Fatalf("edge names = %v", names)
	}
	// Text mixes with name-mode edges.
	h2, err := NewBuilder().Edge("X", "A").Text("A B\n").Build()
	if err != nil || h2.NumEdges() != 2 {
		t.Fatalf("text+edge: %v %v", h2, err)
	}
}

func TestParseErrorPositions(t *testing.T) {
	cases := []struct {
		text       string
		line, col  int
		msgPattern string
	}{
		{"A B\n: C D\n", 2, 1, "empty edge name"},
		{"A B\n  ,,,\n", 2, 3, "edge with no nodes"},
		{"# only a comment\n", 1, 1, "no edges"},
	}
	for _, c := range cases {
		_, _, err := Parse(c.text)
		var pe *ErrParse
		if !errors.As(err, &pe) {
			t.Fatalf("Parse(%q) err = %v, want *ErrParse", c.text, err)
		}
		if pe.Line != c.line || pe.Col != c.col {
			t.Fatalf("Parse(%q) position = %d:%d, want %d:%d", c.text, pe.Line, pe.Col, c.line, c.col)
		}
		if !strings.Contains(pe.Msg, c.msgPattern) {
			t.Fatalf("Parse(%q) msg = %q, want ~%q", c.text, pe.Msg, c.msgPattern)
		}
	}
}

func TestSetReturnsErrUnknownNode(t *testing.T) {
	h := Fig1()
	_, err := h.Set("A", "Z")
	var unknown *ErrUnknownNode
	if !errors.As(err, &unknown) || unknown.Name != "Z" {
		t.Fatalf("Set err = %v, want ErrUnknownNode{Z}", err)
	}
}

// TestFingerprint128MatchesStringFingerprint: within one construction mode,
// 128-bit digests must agree with canonical-string equality on a mixed
// corpus (equal strings => equal digests; distinct strings => distinct
// digests, collisions being 2^-128-unlikely).
func TestFingerprint128MatchesStringFingerprint(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var named []*Hypergraph
	named = append(named, Fig1(), Fig1(), Fig5(), Fig1MinusACE(), Triangle(), CyclicCounterexample())
	for i := 0; i < 40; i++ {
		m := 1 + rng.Intn(6)
		edges := make([][]string, m)
		for j := range edges {
			k := 1 + rng.Intn(4)
			e := make([]string, k)
			for l := range e {
				e[l] = string(rune('A' + rng.Intn(8)))
			}
			edges[j] = e
		}
		named = append(named, New(edges))
	}
	byString := map[string]Fingerprint128{}
	seen := map[Fingerprint128]string{}
	for _, h := range named {
		fp, s := h.Fingerprint128(), h.Fingerprint()
		if prev, ok := byString[s]; ok && prev != fp {
			t.Fatalf("equal fingerprints %q got digests %v and %v", s, prev, fp)
		}
		byString[s] = fp
		if prev, ok := seen[fp]; ok && prev != s {
			t.Fatalf("digest collision between %q and %q", prev, s)
		}
		seen[fp] = s
	}
}

// TestFingerprint128IDMode: id-built hypergraphs digest by raw ids; equal
// content agrees, different content differs, and the id route never
// collides with the name route (mode separation).
func TestFingerprint128IDMode(t *testing.T) {
	a := FromIDs(4, [][]int32{{0, 1}, {1, 2, 3}})
	b := FromIDs(4, [][]int32{{0, 1}, {1, 2, 3}})
	if a.Fingerprint128() != b.Fingerprint128() {
		t.Fatal("equal id-built hypergraphs must share a digest")
	}
	c := FromIDs(4, [][]int32{{0, 1}, {1, 2}})
	if a.Fingerprint128() == c.Fingerprint128() {
		t.Fatal("different content must digest differently")
	}
	// Same names, different route: mode byte keeps the domains apart.
	viaNames := New([][]string{{"N0", "N1"}, {"N1", "N2", "N3"}})
	if viaNames.Fingerprint128() == a.Fingerprint128() {
		t.Fatal("name-mode and id-mode digests must be domain-separated")
	}
}

// TestFingerprint128DerivedLazily: hypergraphs built by derivation (no
// constructor pass) compute the digest on first use, and content-equal
// derivations agree with constructed twins.
func TestFingerprint128DerivedLazily(t *testing.T) {
	h := Fig1()
	d := h.Clone()
	if d.Fingerprint128() != h.Fingerprint128() {
		t.Fatal("clone must share the original's digest")
	}
	// A reduced hypergraph digests like itself, consistently.
	r := CyclicCounterexample().Reduce()
	if r.Fingerprint128() != r.Fingerprint128() {
		t.Fatal("digest must be stable")
	}
}

// TestFingerprint128IsolatedNodes: isolated nodes are part of the identity.
func TestFingerprint128IsolatedNodes(t *testing.T) {
	h := Fig1()
	var edges []bitset.Set
	for _, e := range h.Edges() {
		edges = append(edges, e)
	}
	full := h.Derive(h.NodeSet(), edges)
	short := h.Derive(h.MustSet("A", "B", "C"), edges[:1])
	iso := h.Derive(h.NodeSet(), edges[:1]) // D, E, F isolated
	if short.Fingerprint128() == iso.Fingerprint128() {
		t.Fatal("isolated nodes must change the digest")
	}
	if full.Fingerprint128() != h.Fingerprint128() {
		t.Fatal("derive with identical content must digest identically")
	}
}

// TestFromSortedNamesMatchesNew pins the adopting constructor against New:
// given New's own name universe and each edge as sorted indices into it,
// the result is the same hypergraph — node ids, names, edge order and
// members, Fingerprint and Fingerprint128.
func TestFromSortedNamesMatchesNew(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		pool := 1 + rng.Intn(300)
		edges := make([][]string, rng.Intn(12))
		for j := range edges {
			e := make([]string, 1+rng.Intn(5))
			for l := range e {
				e[l] = fmt.Sprintf("v%d", rng.Intn(pool))
			}
			edges[j] = e
		}
		want := New(edges)
		names := want.Nodes()
		rank := map[string]int32{}
		for i, n := range names {
			rank[n] = int32(i)
		}
		var members []int32
		off := []int32{0}
		for _, e := range edges {
			start := len(members)
			for _, n := range e {
				members = append(members, rank[n])
			}
			slices.Sort(members[start:])
			members = append(members[:start], slices.Compact(members[start:])...)
			off = append(off, int32(len(members)))
		}
		got := FromSortedNames(names, members, off)
		if got.Fingerprint() != want.Fingerprint() {
			t.Fatalf("trial %d: Fingerprint %q, want %q", trial, got.Fingerprint(), want.Fingerprint())
		}
		if got.Fingerprint128() != want.Fingerprint128() {
			t.Fatalf("trial %d: Fingerprint128 differs", trial)
		}
		if !reflect.DeepEqual(got.Nodes(), want.Nodes()) || got.Universe() != want.Universe() {
			t.Fatalf("trial %d: nodes %v, want %v", trial, got.Nodes(), want.Nodes())
		}
		if got.NumEdges() != want.NumEdges() {
			t.Fatalf("trial %d: %d edges, want %d", trial, got.NumEdges(), want.NumEdges())
		}
		for i := 0; i < want.NumEdges(); i++ {
			if !slices.Equal(got.Members(i), want.Members(i)) || !reflect.DeepEqual(got.EdgeNodes(i), want.EdgeNodes(i)) {
				t.Fatalf("trial %d edge %d: %v, want %v", trial, i, got.EdgeNodes(i), want.EdgeNodes(i))
			}
		}
		for _, n := range names {
			if g, _ := got.NodeID(n); g != int(rank[n]) {
				t.Fatalf("trial %d: NodeID(%q) = %d, want %d", trial, n, g, rank[n])
			}
		}
	}
}

func TestFromSortedNamesRejectsDisorder(t *testing.T) {
	for name, build := range map[string]func(){
		"names out of order":   func() { FromSortedNames([]string{"B", "A"}, nil, []int32{0}) },
		"duplicate name":       func() { FromSortedNames([]string{"A", "A"}, nil, []int32{0}) },
		"edge out of order":    func() { FromSortedNames([]string{"A", "B"}, []int32{1, 0}, []int32{0, 2}) },
		"edge out of range":    func() { FromSortedNames([]string{"A", "B"}, []int32{0, 2}, []int32{0, 2}) },
		"no offsets":           func() { FromSortedNames([]string{"A"}, nil, nil) },
		"offsets short":        func() { FromSortedNames([]string{"A", "B"}, []int32{0, 1}, []int32{0, 1}) },
		"offsets out of order": func() { FromSortedNames([]string{"A", "B"}, []int32{0, 1}, []int32{0, 2, 1, 2}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: FromSortedNames must panic", name)
				}
			}()
			build()
		}()
	}
}
