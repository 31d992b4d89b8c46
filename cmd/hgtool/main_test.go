package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
	"repro/internal/store"
)

func fig1() *repro.Hypergraph { return repro.Fig1() }

func triangle() *repro.Hypergraph {
	return repro.NewHypergraph([][]string{{"A", "B"}, {"B", "C"}, {"C", "A"}})
}

func TestAnalyzeOutput(t *testing.T) {
	var b strings.Builder
	if err := analyze(&b, fig1()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"nodes: 6", "edges: 4", "α✓", "articulation sets:", "blocks:"} {
		if !strings.Contains(out, want) {
			t.Errorf("analyze output missing %q:\n%s", want, out)
		}
	}
}

func TestClassifyOutput(t *testing.T) {
	var b strings.Builder
	if err := classifyCmd(&b, fig1()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"degree: alpha-acyclic", "nest-free core", "irreducible core",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("classify(fig1) output missing %q:\n%s", want, out)
		}
	}
	b.Reset()
	if err := classifyCmd(&b, triangle()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "degree: cyclic") {
		t.Errorf("classify(triangle) output missing cyclic degree:\n%s", b.String())
	}
	b.Reset()
	chain := repro.NewHypergraph([][]string{{"A", "B"}, {"B", "C"}})
	if err := classifyCmd(&b, chain); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"degree: berge-acyclic", "elimination order", "reduction sequence"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("classify(chain) output missing %q:\n%s", want, b.String())
		}
	}
}

func TestReduceOutput(t *testing.T) {
	h := fig1()
	var b strings.Builder
	if err := reduce(&b, h, []string{"A", "D"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "remove node") {
		t.Fatalf("missing trace:\n%s", b.String())
	}
	b.Reset()
	if err := reduce(&b, h, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "acyclic") {
		t.Fatalf("missing vanish note:\n%s", b.String())
	}
}

func TestTableauOutput(t *testing.T) {
	h := fig1()
	var b strings.Builder
	if err := showTableau(&b, h, []string{"A", "D"}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"(summary)", "minimal rows: [1 3]", "TR(H, X)"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("tableau output missing %q:\n%s", want, b.String())
		}
	}
}

func TestCCOutput(t *testing.T) {
	h := fig1()
	var b strings.Builder
	if err := ccCmd(&b, h, []string{"A", "D"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "CC({A D})") {
		t.Fatalf("cc output:\n%s", b.String())
	}
}

func TestJointreeOutput(t *testing.T) {
	var b strings.Builder
	if err := jointreeCmd(&b, fig1(), []string{"R1", "", "", ""}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "R1") || !strings.Contains(out, "full reducer:") {
		t.Fatalf("jointree output:\n%s", out)
	}
	// Cyclic input is a user error, not a panic.
	if err := jointreeCmd(&b, triangle(), nil); err == nil {
		t.Fatal("cyclic input must error")
	}
}

func TestWitnessOutput(t *testing.T) {
	var b strings.Builder
	if err := witnessCmd(&b, triangle()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "independent path:") {
		t.Fatalf("witness output:\n%s", b.String())
	}
	b.Reset()
	if err := witnessCmd(&b, fig1()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "acyclic") {
		t.Fatalf("acyclic witness output:\n%s", b.String())
	}
}

func TestParseSacred(t *testing.T) {
	h := fig1()
	x, err := parseSacred(h, " A , D ")
	if err != nil || len(x) != 2 {
		t.Fatalf("parseSacred: %v %v", x, err)
	}
	if _, err := parseSacred(h, "A,Z"); err == nil {
		t.Fatal("unknown node must error")
	}
	empty, err := parseSacred(h, "")
	if err != nil || len(empty) != 0 {
		t.Fatal("empty spec must give empty set")
	}
}

func TestEvalOutput(t *testing.T) {
	// Chain schema R0={A,B}, R1={B,C} with CSV data carrying one dangling
	// tuple per object.
	h := repro.NewHypergraph([][]string{{"A", "B"}, {"B", "C"}})
	dir := t.TempDir()
	files := map[string]string{
		"R0.csv": "A,B\na1,b1\na2,b2\na3,bX\n",
		"R1.csv": "B,C\nb1,c1\nb2,c2\nbY,c3\n",
	}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var b strings.Builder
	if err := evalCmd(&b, h, nil, dir, []string{"A", "C"}, false); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"loaded 2 objects, 6 rows total",
		"full reduction: 6 -> 4 rows",
		"π{A C}(⋈ all objects): 2 rows",
		"a1 | c1",
		"a2 | c2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("eval output missing %q:\n%s", want, out)
		}
	}
	// A missing CSV file is a user error.
	if err := evalCmd(&b, h, []string{"R0", "missing"}, dir, []string{"A"}, false); err == nil {
		t.Fatal("missing object file must error")
	}
	// Cyclic schemas report cleanly.
	tdir := t.TempDir()
	for name, data := range map[string]string{
		"R0.csv": "A,B\n1,2\n", "R1.csv": "B,C\n2,3\n", "R2.csv": "A,C\n1,3\n",
	} {
		if err := os.WriteFile(filepath.Join(tdir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := evalCmd(&b, triangle(), nil, tdir, []string{"A"}, false); err == nil ||
		!strings.Contains(err.Error(), "cyclic") {
		t.Fatalf("cyclic eval: err = %v", err)
	}
}

func TestEvalTraceOutput(t *testing.T) {
	h := repro.NewHypergraph([][]string{{"A", "B"}, {"B", "C"}})
	dir := t.TempDir()
	for name, data := range map[string]string{
		"R0.csv": "A,B\na1,b1\na2,b2\n",
		"R1.csv": "B,C\nb1,c1\nb2,c2\n",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var b strings.Builder
	if err := evalCmd(&b, h, nil, dir, []string{"A", "C"}, true); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// The span tree follows the result: the CLI root, the exec layers, and
	// per-step rows — the same attribution /tracez serves.
	for _, want := range []string{
		"hgtool.eval",
		"exec.eval",
		"exec.reduce",
		"exec.step",
		"rowsIn=",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("-trace output missing %q:\n%s", want, out)
		}
	}
}

func TestEditOutput(t *testing.T) {
	ws := repro.NewWorkspace()
	var b strings.Builder
	script := []string{
		"# build figure 1 edge by edge",
		"add A B C",
		"add C D E",
		"add A E F",
		"analyze",
		"add A C E",
		"jointree",
		"remove 3",
		"rename A Z",
		"snapshot",
		"",
	}
	for i, line := range script {
		if err := editLine(&b, ws, line); err != nil {
			t.Fatalf("line %d (%q): %v", i, line, err)
		}
	}
	out := b.String()
	for _, want := range []string{
		"added edge 0 — epoch 1: 1 edges, 1 components, acyclic=true",
		"added edge 2 — epoch 3: 3 edges, 1 components, acyclic=false",
		"classification: α✗",
		"added edge 3 — epoch 4: 4 edges, 1 components, acyclic=true",
		"join forest:",
		"full reducer:",
		"removed edge 3 — epoch 5: 3 edges, 1 components, acyclic=false",
		"renamed A -> Z",
		"B C Z",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("edit output missing %q:\n%s", want, out)
		}
	}
	// Script errors surface with context.
	if err := editLine(&b, ws, "remove notanumber"); err == nil {
		t.Error("bad edge id must fail")
	}
	if err := editLine(&b, ws, "frobnicate"); err == nil {
		t.Error("unknown command must fail")
	}
}

func TestWsOutput(t *testing.T) {
	// Build a data root with one durable session the way a -data server
	// would: journaled edits, a compaction, then a fresh tail record.
	dataDir := t.TempDir()
	dir := filepath.Join(dataDir, "ws-1")
	sess, ws, err := store.Create(dir, store.Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range [][]string{{"A", "B", "C"}, {"C", "D", "E"}, {"A", "E", "F"}} {
		if _, err := ws.AddEdge(e...); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := ws.AddEdge("A", "C", "E"); err != nil {
		t.Fatal(err)
	}
	if err := ws.RenameNode("F", "G"); err != nil {
		t.Fatal(err)
	}
	sess.Close()

	// The summary recovers the session read-only; -log dumps the WAL tail.
	var b strings.Builder
	if err := wsCmd(&b, []string{"-log", dataDir}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"epoch 5 (snapshot 3 + 2 WAL records)",
		"4 edges, 6 nodes, 1 components, acyclic=true",
		"digest ",
		"add edge 3 {A C E}",
		"rename F -> G",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("ws output missing %q:\n%s", want, out)
		}
	}

	// -json emits the machine-readable Info.
	b.Reset()
	if err := wsCmd(&b, []string{"-json", dir}); err != nil {
		t.Fatal(err)
	}
	var info store.Info
	if err := json.Unmarshal([]byte(b.String()), &info); err != nil {
		t.Fatalf("ws -json is not valid JSON: %v\n%s", err, b.String())
	}
	if info.Epoch != 5 || info.Edges != 4 || !info.Acyclic || info.TornTail {
		t.Errorf("ws -json: %+v", info)
	}

	// A missing directory reports an error instead of succeeding silently.
	if err := wsCmd(&b, []string{filepath.Join(dataDir, "nope")}); err == nil {
		t.Error("ws on a missing directory must fail")
	}
	if err := wsCmd(&b, nil); err == nil {
		t.Error("ws with no directories must fail")
	}
}
