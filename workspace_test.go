package repro

import (
	"errors"
	"testing"
)

// TestWorkspaceFacade exercises the mutable surface end to end through the
// root package: edits, incremental verdicts, epoch staleness, snapshots
// feeding the frozen API, and the engine-backed component memo.
func TestWorkspaceFacade(t *testing.T) {
	ws := NewWorkspace()
	if _, err := ws.AddEdge("A", "B", "C"); err != nil {
		t.Fatal(err)
	}
	if _, err := ws.AddEdge("C", "D", "E"); err != nil {
		t.Fatal(err)
	}
	id, err := ws.AddEdge("A", "E", "F")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ws.AddEdge("A", "C", "E"); err != nil {
		t.Fatal(err)
	}
	a := ws.Analysis()
	if !a.Verdict() {
		t.Fatal("Fig. 1 must be acyclic")
	}
	// The snapshot is a frozen hypergraph usable with the whole session API.
	if got, want := a.Verdict(), Analyze(ws.Snapshot()).Verdict(); got != want {
		t.Fatalf("incremental verdict %v != frozen %v", got, want)
	}
	if err := ws.RemoveEdge(id); err != nil {
		t.Fatal(err)
	}
	var stale *ErrStaleEpoch
	if _, err := a.JoinTree(); !errors.As(err, &stale) {
		t.Fatalf("stale handle must refuse: %v", err)
	}
	b := ws.Analysis()
	jt, err := b.JoinTree()
	if err != nil {
		t.Fatal(err)
	}
	if err := jt.Verify(); err != nil {
		t.Fatal(err)
	}

	// The engine-backed path: a second tenant with the same content hits
	// the first tenant's component entries.
	e := NewEngine()
	w1 := NewWorkspace(WithWorkspaceEngine(e))
	w1.AddEdge("X", "Y")
	w1.AddEdge("Y", "Z")
	w1.Analysis()
	base := e.Stats()
	w2, err := NewWorkspaceFrom(w1.Snapshot(), WithWorkspaceEngine(e))
	if err != nil {
		t.Fatal(err)
	}
	if !w2.Analysis().Verdict() {
		t.Fatal("chain must be acyclic")
	}
	after := e.Stats()
	if after.Hits <= base.Hits || after.Components != base.Components {
		t.Fatalf("tenant 2 must reuse tenant 1's component entries: %+v -> %+v", base, after)
	}
}
