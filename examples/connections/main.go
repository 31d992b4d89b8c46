// Connections tour: Figure 5's "two apparent paths", Example 5.1's
// independent tree, and Lemma 5.2's tree-to-path construction — the
// structural story behind the main theorem.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro"
	"repro/internal/bitset"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// Figure 5 (reconstructed from what the paper states): acyclic, yet
	// there "appear" to be two distinct paths from A to F.
	fig5 := repro.Fig5()
	fmt.Fprintln(w, "Figure 5:", fig5, "— acyclic:", repro.Analyze(fig5).Verdict())

	// Drop the second or third edge: A and F stay connected either way.
	for _, skip := range []int{1, 2} {
		var edges [][]string
		for i := 0; i < fig5.NumEdges(); i++ {
			if i != skip {
				edges = append(edges, fig5.EdgeNodes(i))
			}
		}
		sub := repro.NewHypergraph(edges)
		fmt.Fprintf(w, "  without edge #%d: %v — connected: %v\n", skip, sub, sub.IsConnected())
	}

	// Yet the canonical connection keeps all four edges: in a tree-like
	// (acyclic) hypergraph there is one canonical way to link A and F.
	cc, err := repro.CanonicalConnection(fig5, "A", "F")
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "CC({A,F}):", cc)
	fmt.Fprintln(w, "CC == whole hypergraph:", cc.EqualEdges(fig5))

	// Example 5.1: remove Fig. 1's central edge and independence appears.
	h := repro.NewHypergraph([][]string{
		{"A", "B", "C"}, {"C", "D", "E"}, {"A", "E", "F"},
	})
	fmt.Fprintln(w, "\nExample 5.1 hypergraph:", h, "— acyclic:", repro.Analyze(h).Verdict())
	cc2, _ := repro.CanonicalConnection(h, "A", "C")
	fmt.Fprintln(w, "CC({A,C}):", cc2)

	set := func(names ...string) bitset.Set { return h.MustSet(names...) }
	tree := &repro.Tree{
		Sets:  []bitset.Set{set("A"), set("E"), set("C")},
		Edges: [][2]int{{0, 1}, {1, 2}},
	}
	if err := tree.Validate(h); err != nil {
		return err
	}
	ind, witness := tree.IsIndependent(h)
	fmt.Fprintf(w, "tree {A}-{E}-{C}: independent=%v (witness set #%d is outside CC)\n", ind, witness)

	// Lemma 5.2: every independent tree yields an independent path.
	path, err := repro.PathFromTree(h, tree)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "derived independent path:", path.String(h))

	// Theorem 6.1 ties it together: cyclic <=> independent path exists.
	// One session per graph serves both the verdict and the hierarchy row
	// below from a single traversal.
	fmt.Fprintln(w, "\nTheorem 6.1 check:")
	sessions := []*repro.Analysis{repro.Analyze(repro.Fig1()), repro.Analyze(fig5), repro.Analyze(h)}
	for _, a := range sessions {
		fmt.Fprintf(w, "  %v: acyclic=%v hasIndependentPath=%v\n",
			a.Hypergraph(), a.Verdict(), repro.HasIndependentPath(a.Hypergraph()))
	}

	// The acyclicity hierarchy on the same graphs (the paper's §1 remark
	// that its notion is weaker than Berge's).
	fmt.Fprintln(w, "\nacyclicity hierarchy (α ⊇ β ⊇ γ ⊇ Berge):")
	for _, a := range sessions {
		fmt.Fprintf(w, "  %v: %v\n", a.Hypergraph(), a.Spectrum())
	}
	return nil
}
