package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// tinySizes runs every workload through the benchmark's own code at a size
// that finishes in seconds.
var tinySizes = sizes{
	schemaEdges: 30, hotSchemas: 6,
	evalDatasets: 2, evalRowsMin: 40, evalRowsMax: 60, evalDomain: 40, evalLeafDom: 4,
	chainComps: 3, chainEdges: 3, bigEdges: 60, snapEvery: 16,
}

var serverBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test-")
	if err != nil {
		panic(err)
	}
	serverBin = filepath.Join(dir, "hgserved")
	build := exec.Command("go", "build", "-o", serverBin, "repro/cmd/hgserved")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		panic("build hgserved: " + err.Error())
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func tinyConfig(t *testing.T, workload string, trace bool) config {
	return config{
		workload: workload, seed: 7, dur: 600 * time.Millisecond, trace: trace,
		serverBin: serverBin, workDir: t.TempDir(), sz: tinySizes, setupReps: 3,
		log: &bytes.Buffer{},
	}
}

func metricNames(res result) map[string]bool {
	out := map[string]bool{}
	for _, m := range res.metrics {
		out[m.name] = true
	}
	return out
}

// TestTinyRunEveryWorkload runs each workload, untraced and traced, and
// requires every answer correct and every metric of the mode reported.
func TestTinyRunEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := tinyConfig(t, w, trace)
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.correct || res.failed != 0 || res.attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s",
					w, trace, res.correct, res.attempted, res.failed, cfg.log.(*bytes.Buffer))
			}
			names := metricNames(res)
			want := []string{"throughput_rps", "latency_p50_ms", "setup_s", "server_peak_rss_mb"}
			if trace {
				want = []string{"hypergraph.parse_ms", "exec.eval_ms", "dynamic.settle_ms", "server.unattributed_ms",
					"engine.memo_hit_ratio", "obs.trace_overhead_pct", "recovery_s"}
			}
			for _, n := range want {
				if !names[n] {
					t.Errorf("%s trace=%v: metric %s missing", w, trace, n)
				}
			}
			if trace && w == "schema-mix" {
				for _, m := range res.metrics {
					if m.name == "engine.memo_hit_ratio" && m.value != 0.5 {
						t.Errorf("schema-mix memo hit ratio %v, want exactly 0.5", m.value)
					}
				}
			}
		}
	}
}

// TestPlantedWrongAnswerFails corrupts one expected answer at a time and
// requires the run to complete, report the failure, and log it where the
// oracle that caught it logs: the reply checks of each workload, the
// per-edit epoch check, and the crash-durability check.
func TestPlantedWrongAnswerFails(t *testing.T) {
	cases := []struct {
		name, workload string
		plant          func(*inputs)
		plantCrash     func([]*wsClient)
		wantLog        string
	}{
		{name: "schema degree", workload: "schema-mix",
			plant: func(in *inputs) { in.mix.hot[1].degree = "beta-acyclic" }, wantLog: "wrong answer"},
		{name: "eval digest", workload: "eval-join",
			plant: func(in *inputs) { in.ej.cases[0].digest[0] ^= 1 }, wantLog: "wrong answer"},
		{name: "edit epoch step", workload: "workspace-edit",
			plant: func(in *inputs) { in.ws.epochStep = 2 }, wantLog: "step 0: epoch"},
		{name: "recovered edges", workload: "workspace-edit",
			plantCrash: func(wsc []*wsClient) { wsc[0].edges++ }, wantLog: "crash-durability check failed"},
	}
	for _, tc := range cases {
		cfg := tinyConfig(t, tc.workload, false)
		cfg.plant, cfg.plantCrash = tc.plant, tc.plantCrash
		res, err := run(cfg)
		log := cfg.log.(*bytes.Buffer).String()
		if err != nil || res.correct || res.failed == 0 {
			t.Errorf("%s: planted wrong answer not reported as a failure (err %v, correct %v, attempted %d, failed %d)",
				tc.name, err, res.correct, res.attempted, res.failed)
		}
		if !strings.Contains(log, tc.wantLog) {
			t.Errorf("%s: log lacks %q:\n%s", tc.name, tc.wantLog, log)
		}
	}
}

// TestSelfTimesSumToRoot checks the span arithmetic on a hand-built tree
// and on a tree recorded by the replay.
func TestSelfTimesSumToRoot(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	tree := []spanRec{
		{name: "root", parent: -1, start: at(0), end: at(100)},
		{name: "a", parent: 0, start: at(10), end: at(40)},
		{name: "a1", parent: 1, start: at(15), end: at(20)},
		{name: "a2", parent: 1, start: at(25), end: at(40)},
		{name: "b", parent: 0, start: at(50), end: at(90)},
	}
	selfs := selfTimes(tree)
	want := []time.Duration{30, 10, 5, 15, 40}
	for i, w := range want {
		if selfs[i] != w*time.Millisecond {
			t.Errorf("%s: self %v, want %v", tree[i].name, selfs[i], w*time.Millisecond)
		}
	}
	checkSum := func(name string, tree []spanRec) {
		var sum time.Duration
		for _, s := range selfTimes(tree) {
			sum += s
		}
		if root := tree[0].end.Sub(tree[0].start); sum != root {
			t.Errorf("%s: self times sum to %v, root span is %v", name, sum, root)
		}
	}
	checkSum("hand-built", tree)

	for _, w := range workloads {
		cfg := tinyConfig(t, w, true)
		res, err := run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.lastTree) < 2 || res.lastTree[0].parent != -1 {
			t.Fatalf("%s: replay recorded no span tree", w)
		}
		checkSum(w+" replay", res.lastTree)
	}
}

// TestClientsNeedNproc checks the generator refuses a host with fewer
// CPUs than clients.
func TestClientsNeedNproc(t *testing.T) {
	cfg := config{workload: "eval-join", serverBin: serverBin, dur: time.Second}
	if err := validate(cfg, numClients-1); err == nil || !strings.Contains(err.Error(), "nproc") {
		t.Fatalf("validate allowed %d clients on %d CPUs: %v", numClients, numClients-1, err)
	}
	if err := validate(cfg, numClients); err != nil {
		t.Fatalf("validate refused %d clients on %d CPUs: %v", numClients, numClients, err)
	}
}
