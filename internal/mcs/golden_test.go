package mcs_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/hypergraph"
	"repro/internal/mcs"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/mcs.golden")

const mcsGolden = "testdata/mcs.golden"

// mcsCorpus is the fixed seeded corpus whose search orders are pinned:
// every connected reduced hypergraph over up to 4 nodes, 20 each of the
// three 500-edge schema families the server analyzes, FromIDs hypergraphs
// whose universe holds ids no edge covers, and RemoveNodes results that
// keep their parent's larger universe.
func mcsCorpus() (names []string, hs []*hypergraph.Hypergraph) {
	add := func(name string, h *hypergraph.Hypergraph) {
		names = append(names, name)
		hs = append(hs, h)
	}
	for n := 1; n <= 4; n++ {
		for i, h := range gen.AllConnectedReduced(n) {
			add(fmt.Sprintf("exhaustive/n=%d/%d", n, i), h)
		}
	}
	rng := rand.New(rand.NewSource(1984))
	for i := 0; i < 20; i++ {
		add(fmt.Sprintf("gamma/%d", i), gen.GammaAcyclic(rng, 500, 300))
		add(fmt.Sprintf("acyclic/%d", i), gen.RandomAcyclic(rng, gen.RandomSpec{Edges: 500, MinArity: 2, MaxArity: 6}))
		add(fmt.Sprintf("random/%d", i), gen.Random(rng, gen.RandomSpec{Nodes: 400, Edges: 500, MinArity: 2, MaxArity: 6}))
	}
	// Every odd id stays uncovered; short intervals of the even ids make
	// both acyclic and cyclic instances.
	for i := 0; i < 20; i++ {
		edges := make([][]int32, 40)
		for j := range edges {
			l := rng.Intn(60)
			for x := l; x < l+2+rng.Intn(8) && x < 60; x++ {
				edges[j] = append(edges[j], int32(2*x))
			}
		}
		if i%2 == 1 {
			// No interval spans 40 ids, so this triangle stays a cycle.
			edges = append(edges, []int32{0, 40}, []int32{40, 80}, []int32{0, 80})
		}
		add(fmt.Sprintf("uncovered/interval/%d", i), hypergraph.FromIDs(120, edges))
	}
	add("uncovered/fromids", hypergraph.FromIDs(9, [][]int32{{0, 2}, {2, 5}, {5, 8}, {0, 8}, {2, 8}, {5, 7}}))
	add("uncovered/fromids-empty", hypergraph.FromIDs(12, [][]int32{{1, 4}, {}, {4, 9}, {1, 4, 9}, {9, 11}, {}}))
	for i := 0; i < 6; i++ {
		h := gen.GammaAcyclic(rng, 60, 40)
		add(fmt.Sprintf("removed/gamma/%d", i), h.RemoveNodes(gen.RandomNodeSubset(rng, h, 0.3)))
		c := gen.Random(rng, gen.RandomSpec{Nodes: 30, Edges: 40, MinArity: 2, MaxArity: 4})
		add(fmt.Sprintf("removed/random/%d", i), c.RemoveNodes(gen.RandomNodeSubset(rng, c, 0.3)))
	}
	return names, hs
}

// mcsLine renders one search: the verdict and every order's size in the
// clear, and a digest of every order and certificate value.
func mcsLine(name string, r *mcs.Result) string {
	d := sha256.New()
	fmt.Fprintln(d, r.EdgeOrder)
	fmt.Fprintln(d, r.VertexOrder)
	fmt.Fprintln(d, r.Parent)
	cert := "none"
	if c := r.Cert; c != nil {
		fmt.Fprintln(d, c.Edge, c.Spread, c.Witness, c.Candidates)
		cert = fmt.Sprintf("edge=%d spread=%d candidates=%d", c.Edge, len(c.Spread), len(c.Candidates))
	}
	return fmt.Sprintf("%s acyclic=%v edges=%d vertices=%d parents=%d cert=(%s) sha256=%x",
		name, r.Acyclic, len(r.EdgeOrder), len(r.VertexOrder), len(r.Parent), cert, d.Sum(nil)[:8])
}

// TestMCSGolden pins the exact search — edge and vertex orders, join-tree
// parents and rejection certificates — on a fixed corpus, beyond the
// verdicts the GYO differentials confirm: /v1/jointree serves MCS parents,
// so a refactor of the search must reproduce them byte for byte. Run with
// -update (package before the flag) to rewrite the golden file after a
// deliberate change.
func TestMCSGolden(t *testing.T) {
	names, hs := mcsCorpus()
	var b strings.Builder
	for i, h := range hs {
		b.WriteString(mcsLine(names[i], mcs.Run(h)))
		b.WriteByte('\n')
	}
	got := b.String()
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(mcsGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(mcsGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("corpus has %d lines, golden %d", len(gotLines), len(wantLines))
	}
	drift := 0
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			if drift++; drift <= 10 {
				t.Errorf("search drift:\n got  %s\n want %s", gotLines[i], wantLines[i])
			}
		}
	}
	if drift > 10 {
		t.Errorf("... %d drifted instances in all", drift)
	}
}
