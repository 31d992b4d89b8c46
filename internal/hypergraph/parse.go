package hypergraph

import (
	"fmt"
	"sort"
	"strings"
)

// Parse reads a hypergraph from a simple text format: one edge per line,
// nodes separated by whitespace or commas. An optional "name:" prefix names
// the edge. Blank lines and lines starting with '#' are ignored.
//
//	# the hypergraph of Fig. 1
//	R1: A B C
//	R2: C D E
//	A E F
//	A, C, E
//
// Edge names are returned in edge order; unnamed edges get "" entries.
// Syntax errors are reported as *ErrParse with 1-based line and column.
// It is a thin wrapper over Builder.Text: the text is read once, each node
// name is interned on first sight, and the names the hypergraph keeps are
// substrings of text.
func Parse(text string) (*Hypergraph, []string, error) {
	b := NewBuilder().Text(text)
	h, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	if h.NumEdges() == 0 {
		return nil, nil, &ErrParse{Line: 1, Col: 1, Msg: "no edges in input"}
	}
	// b is Parse's own, so its per-edge names ("" when unnamed) are
	// returned without the copy EdgeNames makes.
	return h, b.edgeNames, nil
}

// MustParse is Parse that panics on error, for tests and examples.
func MustParse(text string) *Hypergraph {
	h, _, err := Parse(text)
	if err != nil {
		panic(err)
	}
	return h
}

// Format renders the hypergraph in the format accepted by Parse, one edge
// per line. Parse(Format(h)) reproduces h's node set and edge sequence
// whenever h's node names are nonempty and contain no whitespace and no
// comma (always true for Parse-produced hypergraphs, whose names come from
// whitespace/comma splitting and are never empty): lines whose first node
// starts with '#' or whose nodes contain ':' are emitted with an explicit
// "e<i>:" edge name so they cannot be taken for comments or misread as
// named edges.
func (h *Hypergraph) Format() string {
	var b strings.Builder
	for i := range h.NumEdges() {
		nodes := h.EdgeNodes(i)
		guard := len(nodes) > 0 && strings.HasPrefix(nodes[0], "#")
		for _, n := range nodes {
			if strings.Contains(n, ":") {
				guard = true
				break
			}
		}
		if guard {
			fmt.Fprintf(&b, "e%d: ", i)
		}
		b.WriteString(strings.Join(nodes, " "))
		b.WriteByte('\n')
	}
	return b.String()
}

// DOT renders the bipartite incidence graph of h in Graphviz format: one box
// per edge, one ellipse per node, an arc when the edge contains the node.
func (h *Hypergraph) DOT(name string) string {
	if name == "" {
		name = "H"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "graph %s {\n", name)
	nodes := h.Nodes()
	sort.Strings(nodes)
	for _, n := range nodes {
		fmt.Fprintf(&b, "  %q [shape=ellipse];\n", n)
	}
	for i := range h.NumEdges() {
		en := fmt.Sprintf("e%d", i)
		fmt.Fprintf(&b, "  %q [shape=box,label=\"{%s}\"];\n", en, strings.Join(h.EdgeNodes(i), " "))
		for _, n := range h.EdgeNodes(i) {
			fmt.Fprintf(&b, "  %q -- %q;\n", en, n)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// Fig1 returns the paper's Figure 1: the canonical acyclic hypergraph with
// edges {A,B,C}, {C,D,E}, {A,E,F}, {A,C,E}. The first three edges form a
// "ring" that does not make the hypergraph cyclic because the fourth edge
// contains all three pairwise intersections.
func Fig1() *Hypergraph {
	return New([][]string{
		{"A", "B", "C"},
		{"C", "D", "E"},
		{"A", "E", "F"},
		{"A", "C", "E"},
	})
}

// Fig1MinusACE returns Figure 1 with the central edge {A,C,E} removed: the
// hypergraph of Example 5.1, which is cyclic and admits the independent tree
// of Figure 6.
func Fig1MinusACE() *Hypergraph {
	return New([][]string{
		{"A", "B", "C"},
		{"C", "D", "E"},
		{"A", "E", "F"},
	})
}

// Fig5 returns the reconstruction of the paper's Figure 5: an acyclic
// hypergraph with two apparent paths between A and F (either the second or
// the third edge can be dropped while keeping A connected to F), in which
// the canonical connection CC({A,F}) nevertheless contains all four edges.
// The edges are a reconstruction, chosen to have exactly these properties,
// which are what the paper's text states for the figure.
func Fig5() *Hypergraph {
	return New([][]string{
		{"A", "B", "C"},
		{"B", "C", "E"},
		{"B", "D", "E"},
		{"D", "E", "F"},
	})
}

// CyclicCounterexample returns the hypergraph used after Theorem 3.5 to show
// the theorem fails for cyclic hypergraphs: edges {A,B}, {A,C}, {B,C}, {A,D}.
// With only D sacred, tableau reduction collapses to {{D}} while Graham
// reduction is stuck with all four edges.
func CyclicCounterexample() *Hypergraph {
	return New([][]string{
		{"A", "B"},
		{"A", "C"},
		{"B", "C"},
		{"A", "D"},
	})
}

// Triangle returns the classic cyclic triangle {A,B}, {B,C}, {C,A}.
func Triangle() *Hypergraph {
	return New([][]string{
		{"A", "B"},
		{"B", "C"},
		{"C", "A"},
	})
}
