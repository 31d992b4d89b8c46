// Quickstart: the paper's Figure 1 walked through the session-oriented
// public API — one repro.Analysis per hypergraph hands out acyclicity,
// the join tree, the classification, and the Graham reduction trace from a
// single cached traversal; Graham and tableau reduction with sacred nodes
// demonstrate Theorem 3.5.
package main

import (
	"errors"
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

func run(w io.Writer) error {
	// Figure 1 of the paper: nodes A..F, four edges, built with the Builder.
	h, err := repro.NewBuilder().
		NamedEdge("R1", "A", "B", "C").
		NamedEdge("R2", "C", "D", "E").
		NamedEdge("R3", "A", "E", "F").
		NamedEdge("R4", "A", "C", "E").
		Build()
	if err != nil {
		return err
	}

	// One session per hypergraph: every artifact below shares the single
	// maximum-cardinality-search traversal the verdict runs.
	a := repro.Analyze(h)
	fmt.Fprintln(w, "hypergraph:    ", h)
	fmt.Fprintln(w, "acyclic:       ", a.Verdict())
	fmt.Fprintln(w, "classification:", a.Spectrum())
	if jt, err := a.JoinTree(); err == nil {
		fmt.Fprintln(w, "join tree:     ", jt)
	}
	if prog, err := a.FullReducer(); err == nil {
		fmt.Fprintln(w, "full reducer:  ", prog)
	}

	// Graham reduction keeping A and D sacred (Example 2.2).
	trace, err := repro.GrahamReductionTrace(h, "A", "D")
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\nGraham reduction GR(H, {A,D}):")
	fmt.Fprint(w, trace.Trace())
	fmt.Fprintln(w, "result:", trace.Hypergraph)

	// Tableau reduction of the same hypergraph (Example 3.3).
	tr, err := repro.TableauReduction(h, "A", "D")
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\ntableau reduction TR(H, {A,D}):", tr)
	fmt.Fprintln(w, "GR == TR (Theorem 3.5):", trace.Hypergraph.EqualEdges(tr))

	// The canonical connection is the same object under its §5 name.
	cc, err := repro.CanonicalConnection(h, "A", "D")
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "canonical connection CC({A,D}):", cc)

	// Errors are structured: unknown nodes carry the offending name.
	var unknown *repro.ErrUnknownNode
	if _, err := repro.GrahamReduction(h, "Z"); errors.As(err, &unknown) {
		fmt.Fprintf(w, "asking about %q fails cleanly: %v\n", unknown.Name, err)
	}

	// Cyclic hypergraphs break the equality: the paper's counterexample.
	bad := repro.NewHypergraph([][]string{
		{"A", "B"}, {"A", "C"}, {"B", "C"}, {"A", "D"},
	})
	ab := repro.Analyze(bad)
	grBad, _ := repro.GrahamReduction(bad, "D")
	trBad, _ := repro.TableauReduction(bad, "D")
	fmt.Fprintln(w, "\ncyclic counterexample:", bad)
	fmt.Fprintln(w, "GR(H,{D}):", grBad, " — stuck")
	fmt.Fprintln(w, "TR(H,{D}):", trBad, " — collapsed")
	fmt.Fprintln(w, "equal:", grBad.EqualEdges(trBad), "(Theorem 3.5 needs acyclicity)")

	// The cyclic side: the session has no join tree (a structured error),
	// and IndependentPathWitness exhibits a Theorem 6.1 independent path.
	if _, err := ab.JoinTree(); errors.Is(err, repro.ErrCyclic) {
		fmt.Fprintln(w, "join tree:", err)
	}
	path, coreGraph, found, err := repro.IndependentPathWitness(bad)
	if err != nil {
		return err
	}
	if found {
		fmt.Fprintln(w, "\nindependent path in the cyclic core", coreGraph, ":", path.String(coreGraph))
	}
	return nil
}
