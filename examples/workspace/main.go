// Workspace: the mutable hypergraph surface. A schema-evolution session on
// the paper's Figure 1 — edges arrive, break acyclicity, get repaired —
// with every verdict maintained incrementally by repro.Workspace instead of
// recomputed from scratch, epochs making staleness explicit, and two
// tenants sharing component-level analyses through one engine memo.
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
	// A schema under design: edges arrive one at a time, and the verdict is
	// maintained under each edit — only the touched component re-analyzes.
	ws := repro.NewWorkspace()
	for _, edge := range [][]string{
		{"A", "B", "C"}, {"C", "D", "E"}, {"A", "E", "F"},
	} {
		if _, err := ws.AddEdge(edge...); err != nil {
			return err
		}
		a := ws.Analysis()
		fmt.Fprintf(w, "epoch %d: added %v -> acyclic=%v\n", ws.Epoch(), edge, a.Verdict())
	}

	// The three edges form the cyclic core of Fig. 1; IndependentPathWitness
	// exhibits the Theorem 6.1 independent path in the epoch's snapshot.
	if path, coreGraph, found, err := repro.IndependentPathWitness(ws.Snapshot()); err != nil {
		return err
	} else if found {
		fmt.Fprintf(w, "cyclic: independent path %s in core %v\n", path.String(coreGraph), coreGraph)
	}

	// Healing edit: the articulation edge {A,C,E} completes Figure 1.
	center, err := ws.AddEdge("A", "C", "E")
	if err != nil {
		return err
	}
	a := ws.Analysis()
	fmt.Fprintf(w, "epoch %d: added the center -> acyclic=%v\n", ws.Epoch(), a.Verdict())
	if jt, err := a.JoinTree(); err == nil {
		fmt.Fprintln(w, "join tree:", jt)
	}

	// Epochs make staleness loud: edit, then query the old handle.
	if err := ws.RemoveEdge(center); err != nil {
		return err
	}
	var stale *repro.ErrStaleEpoch
	if _, err := a.JoinTree(); errors.As(err, &stale) {
		fmt.Fprintf(w, "old handle refused: epoch %d vs %d\n", stale.Handle, stale.Current)
	}
	fmt.Fprintf(w, "rebound: acyclic=%v\n", ws.Analysis().Verdict())

	// Snapshot bridges back to the frozen API: an immutable hypergraph of
	// the current epoch, usable with Analyze, reductions, tableaux...
	snap := ws.Snapshot()
	fmt.Fprintf(w, "snapshot: %v (frozen verdict %v)\n", snap, repro.Analyze(snap).Verdict())

	// Multi-tenant sharing: two workspaces on one engine. The second tenant
	// builds the same component content (different edit order), so its
	// analysis is answered from the first tenant's warm component entries.
	eng := repro.NewEngine()
	t1 := repro.NewWorkspace(repro.WithWorkspaceEngine(eng))
	t1.AddEdge("S", "T")
	t1.AddEdge("T", "U")
	t1.Analysis()
	before := eng.Stats()
	t2 := repro.NewWorkspace(repro.WithWorkspaceEngine(eng))
	t2.AddEdge("T", "U")
	t2.AddEdge("S", "T")
	t2.Analysis()
	after := eng.Stats()
	fmt.Fprintf(w, "tenant 2 warm hits: %d (component identities interned: %d)\n",
		after.Hits-before.Hits, after.Components)
	return nil
}
