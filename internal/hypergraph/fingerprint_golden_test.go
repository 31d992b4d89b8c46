package hypergraph_test

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
)

var updateFingerprints = flag.Bool("update", false, "rewrite testdata/fingerprints.golden")

const fingerprintGolden = "testdata/fingerprints.golden"

// goldenKey is the fixed seed of the pinned keyed digests.
const goldenKey = 0x5eed_0f_c0ffee

// fingerprintCorpus is the fixed corpus whose identities are pinned: the
// paper's figures, hypergraphs with no nodes from both routes, a parsed
// schema with edge names and a derivation of it that leaves nodes
// isolated, FromIDs instances (unsorted and duplicated ids, empty edges,
// uncovered ids, a large sparse universe), the NodeGenerated, RemoveNodes
// and Reduce derivations, a Clone, and one schema of each schema-mix
// family.
func fingerprintCorpus(t *testing.T) (names []string, hs []*hypergraph.Hypergraph) {
	add := func(name string, h *hypergraph.Hypergraph) {
		names = append(names, name)
		hs = append(hs, h)
	}
	fig1 := hypergraph.Fig1()
	add("fig1", fig1)
	add("fig5", hypergraph.Fig5())
	named, _, err := hypergraph.Parse("R1: A B C\nR2: C D E\n# comment\nA E F\nR4: A, C, E\nG H\n")
	if err != nil {
		t.Fatal(err)
	}
	add("new/no-edges", hypergraph.New(nil))
	add("new/empty-edge", hypergraph.New([][]string{{}}))
	add("fromids/no-edges", hypergraph.FromIDs(0, nil))
	add("parsed/named", named)
	add("parsed/isolated", named.Derive(named.NodeSet(), named.Edges()[:2]))
	ids := hypergraph.FromIDs(12, [][]int32{{4, 1, 4}, {}, {1, 4}, {9, 2, 11}, {2, 9}, {}, {7}})
	add("fromids/unsorted", ids)
	add("fromids/uncovered", hypergraph.FromIDs(40, [][]int32{{3, 9}, {9, 21}, {21, 39}}))
	add("fromids/chain", gen.AcyclicChainIDs(2000, 4, 1))
	add("nodegenerated/fig1", fig1.NodeGenerated(fig1.MustSet("A", "C", "E", "F")))
	add("nodegenerated/fromids", ids.NodeGenerated(ids.MustSet("N1", "N2", "N4", "N10")))
	add("nodegenerated/empty", fig1.NodeGenerated(fig1.MustSet("A").AndNot(fig1.MustSet("A"))))
	add("removenodes/fig1", fig1.RemoveNodes(fig1.MustSet("A", "E")))
	add("removenodes/fromids", ids.RemoveNodes(ids.MustSet("N4", "N9")))
	add("reduce/counterexample", hypergraph.CyclicCounterexample().RemoveNodes(hypergraph.CyclicCounterexample().MustSet("D")).Reduce())
	add("reduce/fromids", ids.Reduce())
	add("reduce/named", hypergraph.New([][]string{{"A", "B"}, {"B", "A"}, {}, {"A"}, {"C", "B", "A"}}).Reduce())
	add("clone/fig5", hypergraph.Fig5().Clone())
	texts := schemaMixTexts()
	for _, family := range []string{"alpha", "gamma", "cyclic"} {
		add("schema-mix/"+family, hypergraph.MustParse(texts[family]))
	}
	rng := rand.New(rand.NewSource(38))
	raw := gen.RandomRawIDs(rng, gen.RandomSpec{Nodes: 5000, Edges: 300, MinArity: 2, MaxArity: 6})
	add("fromids/raw", raw)
	add("removenodes/raw", raw.RemoveNodes(gen.RandomNodeSubset(rng, raw, 0.2)))
	return names, hs
}

// fingerprintLine renders one hypergraph's three identities: the streaming
// Fingerprint128, a digest of the Fingerprint string, and the keyed digest
// under goldenKey.
func fingerprintLine(name string, h *hypergraph.Hypergraph) string {
	fp := h.Fingerprint128()
	s := sha256.Sum256([]byte(h.Fingerprint()))
	return fmt.Sprintf("%s edges=%d nodes=%d fp128=%016x%016x fp=%x keyed=%016x",
		name, h.NumEdges(), h.NumNodes(), fp.Hi, fp.Lo, s[:8], hypergraph.KeyedDigest(h, goldenKey))
}

// TestFingerprintGolden pins every identity a hypergraph carries — the
// engine memo's Fingerprint128 keys, the Fingerprint string and the keyed
// digest — across construction routes and derivations, so a change to how
// edges are stored cannot move a memo key. Run with -update (package
// before the flag) to rewrite the golden file after a deliberate change.
func TestFingerprintGolden(t *testing.T) {
	names, hs := fingerprintCorpus(t)
	var b strings.Builder
	for i, h := range hs {
		b.WriteString(fingerprintLine(names[i], h))
		b.WriteByte('\n')
	}
	got := b.String()
	if *updateFingerprints {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fingerprintGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(fingerprintGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("corpus has %d lines, golden %d", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("identity drift:\n got  %s\n want %s", gotLines[i], wantLines[i])
		}
	}
}
