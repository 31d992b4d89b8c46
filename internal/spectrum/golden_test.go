package spectrum

import (
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/hypergraph"
)

var updateCertificates = flag.Bool("update", false, "rewrite testdata/certificates.golden")

const certificatesGolden = "testdata/certificates.golden"

// certificateCorpus is the fixed seeded corpus whose certificates are
// pinned: every connected reduced hypergraph over up to 4 nodes, 50 each of
// the three 500-edge schema families /v1/classify serves, and hypergraphs
// whose universe holds ids no edge covers, so any renumbering of covered
// nodes is exercised.
func certificateCorpus() (names []string, hs []*hypergraph.Hypergraph) {
	add := func(name string, h *hypergraph.Hypergraph) {
		names = append(names, name)
		hs = append(hs, h)
	}
	for n := 1; n <= 4; n++ {
		for i, h := range gen.AllConnectedReduced(n) {
			add(fmt.Sprintf("exhaustive/n=%d/%d", n, i), h)
		}
	}
	rng := rand.New(rand.NewSource(1403))
	for i := 0; i < 50; i++ {
		add(fmt.Sprintf("gamma/%d", i), gen.GammaAcyclic(rng, 500, 300))
		add(fmt.Sprintf("acyclic/%d", i), gen.RandomAcyclic(rng, gen.RandomSpec{Edges: 500, MinArity: 2, MaxArity: 6}))
		add(fmt.Sprintf("random/%d", i), gen.Random(rng, gen.RandomSpec{Nodes: 400, Edges: 500, MinArity: 2, MaxArity: 6}))
	}
	// Intervals of a line are β-acyclic (the leftmost node is a nest point)
	// and rarely γ-acyclic; every odd id stays uncovered.
	for i := 0; i < 20; i++ {
		edges := make([][]int32, 40)
		for j := range edges {
			l := rng.Intn(60)
			for x := l; x < l+2+rng.Intn(8) && x < 60; x++ {
				edges[j] = append(edges[j], int32(2*x))
			}
		}
		add(fmt.Sprintf("uncovered/interval/%d", i), hypergraph.FromIDs(120, edges))
	}
	add("uncovered/fromids", hypergraph.FromIDs(9, [][]int32{{0, 2}, {2, 5}, {5, 8}, {0, 8}, {2, 8}, {5, 7}}))
	add("uncovered/fromids-beta", hypergraph.FromIDs(12, [][]int32{{1, 4}, {4, 9}, {1, 4, 9}, {9, 11}}))
	for i := 0; i < 4; i++ {
		h := gen.GammaAcyclic(rng, 60, 40)
		add(fmt.Sprintf("uncovered/removed-gamma/%d", i), h.RemoveNodes(gen.RandomNodeSubset(rng, h, 0.3)))
		c := gen.Random(rng, gen.RandomSpec{Nodes: 30, Edges: 40, MinArity: 2, MaxArity: 4})
		add(fmt.Sprintf("uncovered/removed-random/%d", i), c.RemoveNodes(gen.RandomNodeSubset(rng, c, 0.3)))
	}
	return names, hs
}

// certificateLine renders one instance's classification: every verdict and
// certificate size in the clear, and a digest of every certificate byte.
func certificateLine(name string, r *Result) string {
	d := sha256.New()
	fmt.Fprintln(d, r.Beta.Order, r.Beta.Core)
	for _, s := range r.Gamma.Steps {
		fmt.Fprint(d, s.Kind, s.ID, s.Twin, ";")
	}
	fmt.Fprintln(d, r.Gamma.CoreNodes, r.Gamma.CoreEdges)
	return fmt.Sprintf("%s %v beta=%v order=%d core=%d gamma=%v steps=%d coreNodes=%d coreEdges=%d berge=%v sha256=%x",
		name, r.Degree, r.Beta.Acyclic, len(r.Beta.Order), len(r.Beta.Core),
		r.Gamma.Acyclic, len(r.Gamma.Steps), len(r.Gamma.CoreNodes), len(r.Gamma.CoreEdges), r.Berge, d.Sum(nil)[:8])
}

// TestCertificatesGolden pins the exact certificates — β orders and cores,
// γ step sequences and cores — on a fixed corpus, beyond the validity the
// checkers confirm: /v1/classify serves their sizes, so a refactor of the
// testers must reproduce them byte for byte. Run with -update to rewrite
// the golden file after a deliberate change.
func TestCertificatesGolden(t *testing.T) {
	names, hs := certificateCorpus()
	var b strings.Builder
	for i, h := range hs {
		r, err := Classify(context.Background(), h)
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		b.WriteString(certificateLine(names[i], r))
		b.WriteByte('\n')
	}
	got := b.String()
	if *updateCertificates {
		if err := os.WriteFile(certificatesGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(certificatesGolden)
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
				t.Errorf("certificate drift:\n got  %s\n want %s", gotLines[i], wantLines[i])
			}
		}
	}
	if drift > 10 {
		t.Errorf("... %d drifted instances in all", drift)
	}
}
