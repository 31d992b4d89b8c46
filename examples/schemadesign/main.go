// Schema design audit: given a candidate database schema (a hypergraph of
// objects), report whether universal-relation semantics are safe — i.e.
// whether the schema is acyclic — and, if not, show exactly where the
// ambiguity lives (blocks, Lemma 4.1 rings, the Theorem 6.1 independent
// path) and how adding a covering object repairs it, mirroring how the edge
// {A,C,E} disarms the ring of Figure 1.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// audit opens one analysis session per candidate schema: the spectrum's α
// component, the verdict and the join tree all share a single traversal
// through the handle; a cyclic schema also gets its Theorem 6.1 witness.
func audit(w io.Writer, name string, h *repro.Hypergraph) (bool, error) {
	a := repro.Analyze(h)
	fmt.Fprintf(w, "--- %s ---\n", name)
	fmt.Fprintln(w, "schema:", h)
	fmt.Fprintln(w, "classification:", a.Spectrum())
	if a.Verdict() {
		jt, err := a.JoinTree()
		if err != nil {
			return false, err
		}
		fmt.Fprintln(w, "join tree:", jt)
		fmt.Fprintln(w, "verdict: SAFE — connections among attributes are uniquely defined (Theorem 6.1)")
		fmt.Fprintln(w)
		return true, nil
	}
	fmt.Fprintln(w, "verdict: UNSAFE — the schema is cyclic; connection semantics are ambiguous")
	if ring, ok := repro.FindRing(h); ok {
		fmt.Fprint(w, "  ring (Lemma 4.1):")
		for i, e := range ring.Edges {
			fmt.Fprintf(w, " E%d={%v}", i, h.EdgeNodes(e))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "  blocks:")
	for _, b := range repro.Blocks(h) {
		tag := ""
		if b.NumEdges() > 1 {
			tag = "   <- cyclic core candidate"
		}
		fmt.Fprintf(w, "    %v%s\n", b, tag)
	}
	path, coreGraph, found, err := repro.IndependentPathWitness(h)
	if err != nil {
		return false, err
	}
	if found {
		fmt.Fprintf(w, "  independent path (Theorem 6.1 witness) in %v:\n    %s\n",
			coreGraph, path.String(coreGraph))
		fmt.Fprintln(w, "  meaning: those attribute sets can be linked outside the canonical connection,")
		fmt.Fprintln(w, "  so a universal-relation interface would silently pick one of several readings")
	}
	fmt.Fprintln(w)
	return false, nil
}

func run(w io.Writer) error {
	// A supply-chain schema someone might propose: suppliers supply parts,
	// projects use parts, and suppliers are contracted to projects.
	bad := repro.NewHypergraph([][]string{
		{"Supplier", "Part"},
		{"Part", "Project"},
		{"Project", "Supplier"},
	})
	badSafe, err := audit(w, "supply-chain draft", bad)
	if err != nil {
		return err
	}

	// The classic repair: add the ternary object recording which supplier
	// supplies which part to which project. The ring is now covered by one
	// edge — exactly the {A,C,E} move of Figure 1 — and the schema becomes
	// acyclic.
	fixed := repro.NewHypergraph([][]string{
		{"Supplier", "Part"},
		{"Part", "Project"},
		{"Project", "Supplier"},
		{"Supplier", "Part", "Project"},
	})
	fixedSafe, err := audit(w, "supply-chain with SPJ object", fixed)
	if err != nil {
		return err
	}

	// A larger mixed schema: an acyclic backbone with one cyclic pocket.
	mixed := repro.NewHypergraph([][]string{
		{"Emp", "Dept"},
		{"Dept", "Mgr"},
		{"Emp", "Skill"},
		{"Skill", "Cert"},
		{"Mgr", "Budget"},
		{"Budget", "Dept"}, // closes a Dept-Mgr-Budget triangle
	})
	if _, err := audit(w, "HR schema with budget loop", mixed); err != nil {
		return err
	}

	// Verify the repair claim programmatically.
	if !fixedSafe || badSafe {
		return fmt.Errorf("audit logic inconsistent")
	}
	fmt.Fprintln(w, "summary: cyclic drafts were flagged with concrete witnesses; the SPJ object repairs the ring")
	return nil
}
