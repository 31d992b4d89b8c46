package hypergraph

import "testing"

func TestFingerprintIdentity(t *testing.T) {
	a := New([][]string{{"A", "B"}, {"B", "C"}})
	b := New([][]string{{"B", "A"}, {"C", "B"}}) // same edges, different node order
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("fingerprint must ignore node order inside edges")
	}
	c := New([][]string{{"B", "C"}, {"A", "B"}}) // different edge order
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("fingerprint must be edge-order sensitive")
	}
	d := New([][]string{{"A", "B"}, {"B", "D"}})
	if a.Fingerprint() == d.Fingerprint() {
		t.Fatal("different edges must differ")
	}
}

func TestFingerprintIsolatedNodes(t *testing.T) {
	base := New([][]string{{"A", "B"}})
	// Derive a graph whose node set keeps C but whose edges no longer cover it.
	g := New([][]string{{"A", "B"}, {"C"}})
	iso := g.Derive(g.NodeSet(), g.Edges()[:1])
	if base.Fingerprint() == iso.Fingerprint() {
		t.Fatal("isolated nodes must affect the fingerprint")
	}
}

func TestFingerprintSeparatorUnambiguous(t *testing.T) {
	a := New([][]string{{"AB"}})
	b := New([][]string{{"A", "B"}})
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("node-name concatenation must not collide")
	}
}

// TestFingerprintHostileNames: names containing the fingerprint's own
// delimiter bytes must not let distinct hypergraphs collide (length
// prefixes make the encoding injective). The single-node instance below
// was crafted to reproduce the triangle's fingerprint under a naive
// delimiter scheme.
func TestFingerprintHostileNames(t *testing.T) {
	tri := New([][]string{{"A", "B"}, {"B", "C"}, {"C", "A"}})
	forged := New([][]string{{"A\x01B}{B\x01C}{A\x01C"}})
	if tri.Fingerprint() == forged.Fingerprint() {
		t.Fatal("forged single-node hypergraph collides with the triangle")
	}
	braces := New([][]string{{"{", "}"}, {"}", ":"}})
	plain := New([][]string{{"{", "}"}, {":", "}"}})
	if braces.Fingerprint() != plain.Fingerprint() {
		t.Fatal("same edge sets must fingerprint equally despite brace names")
	}
}
