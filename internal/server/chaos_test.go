package server

// The chaos suite: arm the deterministic fault harness at every named site
// deep in the stack and prove the server *degrades* — sheds, times out,
// answers typed errors — instead of crashing, hanging, or leaking. Run with
// -race; the fault registry is process-global, so these tests never run in
// parallel with each other.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
)

// evalBody builds a /v1/reduce-or-eval request over a 3-object chain schema
// with enough rows to make the executor do real work.
func evalBody(rows int) string {
	type tbl struct {
		Attrs []string   `json:"attrs"`
		Rows  [][]string `json:"rows"`
	}
	mk := func(a, b string) tbl {
		t := tbl{Attrs: []string{a, b}}
		for i := 0; i < rows; i++ {
			t.Rows = append(t.Rows, []string{fmt.Sprint(i), fmt.Sprint(i)})
		}
		return t
	}
	req := map[string]any{
		"schema": "A B\nB C\nC D",
		"tables": []tbl{mk("A", "B"), mk("B", "C"), mk("C", "D")},
		"attrs":  []string{"A", "D"},
	}
	b, _ := json.Marshal(req)
	return string(b)
}

// assertTyped checks that the response is the documented shape for its
// status: a JSON envelope with the expected code, and an incident id on
// 500s.
func assertTyped(t *testing.T, resp *http.Response, body []byte, status int, code string) ErrorBody {
	t.Helper()
	if resp.StatusCode != status {
		t.Fatalf("status = %d, want %d (body %s)", resp.StatusCode, status, body)
	}
	e := decodeError(t, body)
	if e.Code != code {
		t.Fatalf("code = %q, want %q (body %s)", e.Code, code, body)
	}
	if status == 500 && e.Incident == "" {
		t.Fatal("500 without incident id")
	}
	return e
}

// assertAlive proves the process and server survived: a clean request
// succeeds after the faults are disarmed.
func assertAlive(t *testing.T, url string) {
	t.Helper()
	fault.Reset()
	if resp, body := do(t, "POST", url+"/v1/analyze", schemaBody(fig1Text), nil); resp.StatusCode != 200 {
		t.Fatalf("server did not survive: %d %s", resp.StatusCode, body)
	}
}

func TestChaosEngineAnalyzeDelayMeetsDeadline(t *testing.T) {
	defer fault.Reset()
	_, ts := newTestServer(t, Config{}, nil)
	fault.Reset()
	fault.Activate(fault.EngineAnalyze, fault.Injection{
		Kind: fault.KindDelay, Delay: 100 * time.Millisecond,
	})
	// Cold schema so the memoized entry cannot answer before the site.
	resp, body := do(t, "POST", ts.URL+"/v1/analyze",
		schemaBody("CA1 CA2\nCA2 CA3"), map[string]string{"X-Deadline-Ms": "20"})
	assertTyped(t, resp, body, 408, CodeDeadline)
	if fault.Hits(fault.EngineAnalyze) == 0 {
		t.Fatal("engine.analyze site was never reached")
	}
	assertAlive(t, ts.URL)
}

func TestChaosEngineAnalyzePanic(t *testing.T) {
	defer fault.Reset()
	_, ts := newTestServer(t, Config{}, nil)
	fault.Reset()
	fault.Activate(fault.EngineAnalyze, fault.Injection{
		Kind: fault.KindPanic, Panic: "memo shard corrupted", Count: 1,
	})
	resp, body := do(t, "POST", ts.URL+"/v1/analyze", schemaBody("CP1 CP2"), nil)
	assertTyped(t, resp, body, 500, CodeInternal)
	assertAlive(t, ts.URL)
}

func TestChaosEngineInternError(t *testing.T) {
	defer fault.Reset()
	_, ts := newTestServer(t, Config{}, nil)
	resp, body := do(t, "POST", ts.URL+"/v1/workspaces", schemaBody(fig1Text), nil)
	if resp.StatusCode != 200 {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}
	var created struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	wsURL := ts.URL + "/v1/workspaces/" + created.ID
	// Dirty the component, then fail its re-analysis in the memo plane.
	if resp, body = do(t, "POST", wsURL+"/edges", `{"nodes":["F","G"]}`, nil); resp.StatusCode != 200 {
		t.Fatalf("edge: %d %s", resp.StatusCode, body)
	}
	fault.Reset()
	fault.Activate(fault.EngineIntern, fault.Injection{
		Kind: fault.KindError, Err: errors.New("injected: memo backend down"),
	})
	resp, body = do(t, "GET", wsURL, "", nil)
	assertTyped(t, resp, body, 500, CodeInternal)
	if fault.Hits(fault.EngineIntern) == 0 {
		t.Fatal("engine.intern-component site was never reached")
	}
	// Disarm: the workspace is still consistent and settles cleanly.
	fault.Reset()
	if resp, body = do(t, "GET", wsURL, "", nil); resp.StatusCode != 200 {
		t.Fatalf("workspace did not recover: %d %s", resp.StatusCode, body)
	}
}

func TestChaosExecReduceStepError(t *testing.T) {
	defer fault.Reset()
	_, ts := newTestServer(t, Config{}, nil)
	fault.Reset()
	fault.Activate(fault.ExecReduceStep, fault.Injection{
		Kind: fault.KindError, Err: errors.New("injected: kernel failure"), After: 2, Count: 1,
	})
	resp, body := do(t, "POST", ts.URL+"/v1/reduce", evalBody(64), nil)
	assertTyped(t, resp, body, 500, CodeInternal)
	if fault.Hits(fault.ExecReduceStep) < 3 {
		t.Fatalf("reduce step site hits = %d, want the mid-program window reached", fault.Hits(fault.ExecReduceStep))
	}
	assertAlive(t, ts.URL)
}

func TestChaosExecReduceStepPanicUnderParallelEval(t *testing.T) {
	defer fault.Reset()
	_, ts := newTestServer(t, Config{}, nil)
	fault.Reset()
	fault.Activate(fault.ExecReduceStep, fault.Injection{
		Kind: fault.KindPanic, Panic: "kernel corrupted", After: 1, Count: 1,
	})
	// A panic in a reduction step inside an eval must reach the request
	// recover, which turns it into a 500.
	resp, body := do(t, "POST", ts.URL+"/v1/eval", evalBody(256), nil)
	assertTyped(t, resp, body, 500, CodeInternal)
	assertAlive(t, ts.URL)
}

func TestChaosExecEvalJoinError(t *testing.T) {
	defer fault.Reset()
	_, ts := newTestServer(t, Config{}, nil)
	fault.Reset()
	fault.Activate(fault.ExecEvalJoin, fault.Injection{
		Kind: fault.KindError, Err: errors.New("injected: join failure"),
	})
	resp, body := do(t, "POST", ts.URL+"/v1/eval", evalBody(16), nil)
	assertTyped(t, resp, body, 500, CodeInternal)
	if fault.Hits(fault.ExecEvalJoin) == 0 {
		t.Fatal("exec.eval.join site was never reached")
	}
	assertAlive(t, ts.URL)
}

func TestChaosDynamicSettlePanicInParallelWorkers(t *testing.T) {
	defer fault.Reset()
	_, ts := newTestServer(t, Config{}, nil)
	resp, body := do(t, "POST", ts.URL+"/v1/workspaces", "", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}
	var created struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	wsURL := ts.URL + "/v1/workspaces/" + created.ID
	// Several disjoint components, all dirty: the settle loops over them, so
	// the injected panic fires mid-settle, with components already settled
	// before it and still dirty after it.
	for i := 0; i < 8; i++ {
		edge := fmt.Sprintf(`{"nodes":["S%dA","S%dB"]}`, i, i)
		if resp, body = do(t, "POST", wsURL+"/edges", edge, nil); resp.StatusCode != 200 {
			t.Fatalf("edge %d: %d %s", i, resp.StatusCode, body)
		}
	}
	fault.Reset()
	fault.Activate(fault.DynamicSettle, fault.Injection{
		Kind: fault.KindPanic, Panic: "component analysis corrupted", After: 2, Count: 1,
	})
	resp, body = do(t, "GET", wsURL, "", nil)
	assertTyped(t, resp, body, 500, CodeInternal)
	// The workspace recovers: disarmed, the next settle completes.
	fault.Reset()
	if resp, body = do(t, "GET", wsURL, "", nil); resp.StatusCode != 200 {
		t.Fatalf("workspace did not recover: %d %s", resp.StatusCode, body)
	}
}

// TestChaosSweepNoLeaksNoCrashes is the suite's capstone: drive mixed
// traffic with faults armed at every named site in turn, drain, and prove
// (a) every response was a documented status, (b) the process survived,
// (c) no goroutines leaked.
func TestChaosSweepNoLeaksNoCrashes(t *testing.T) {
	defer fault.Reset()
	baseline := runtime.NumGoroutine()
	s, ts := newTestServer(t, Config{MaxInFlight: 16}, nil)

	plans := []struct {
		site string
		inj  fault.Injection
	}{
		{fault.EngineAnalyze, fault.Injection{Kind: fault.KindDelay, Delay: 5 * time.Millisecond, After: 3, Count: 4}},
		{fault.EngineAnalyze, fault.Injection{Kind: fault.KindPanic, Panic: "sweep", After: 2, Count: 2}},
		{fault.EngineIntern, fault.Injection{Kind: fault.KindError, Err: errors.New("sweep"), After: 1, Count: 2}},
		{fault.ExecReduceStep, fault.Injection{Kind: fault.KindError, Err: errors.New("sweep"), After: 2, Count: 3}},
		{fault.ExecReduceStep, fault.Injection{Kind: fault.KindPanic, Panic: "sweep", After: 4, Count: 1}},
		{fault.ExecEvalJoin, fault.Injection{Kind: fault.KindError, Err: errors.New("sweep"), Count: 2}},
		{fault.DynamicSettle, fault.Injection{Kind: fault.KindPanic, Panic: "sweep", After: 1, Count: 1}},
		{fault.ServerHandle, fault.Injection{Kind: fault.KindPanic, Panic: "sweep", After: 5, Count: 2}},
	}
	for _, p := range plans {
		fault.Reset()
		fault.Activate(p.site, p.inj)
		var wg sync.WaitGroup
		statuses := make([]int, 12)
		for i := 0; i < len(statuses); i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				var resp *http.Response
				switch i % 4 {
				case 0:
					resp, _ = do(t, "POST", ts.URL+"/v1/analyze", schemaBody(fig1Text), nil)
				case 1:
					resp, _ = do(t, "POST", ts.URL+"/v1/eval", evalBody(128), nil)
				case 2:
					resp, _ = do(t, "POST", ts.URL+"/v1/reduce", evalBody(64), nil)
				default:
					r1, b1 := do(t, "POST", ts.URL+"/v1/workspaces", schemaBody(fig1Text), nil)
					if r1.StatusCode == 200 {
						var c struct {
							ID string `json:"id"`
						}
						if json.Unmarshal(b1, &c) == nil {
							resp, _ = do(t, "GET", ts.URL+"/v1/workspaces/"+c.ID, "", nil)
						} else {
							resp = r1
						}
					} else {
						resp = r1
					}
				}
				statuses[i] = resp.StatusCode
			}(i)
		}
		wg.Wait()
		for i, st := range statuses {
			switch st {
			case 200, 408, 429, 500:
			default:
				t.Errorf("site %s request %d: undocumented status %d", p.site, i, st)
			}
		}
	}

	// Drain cleanly, then prove nothing leaked: the goroutine count settles
	// back to the baseline (plus slack for the test server's own idle
	// machinery and keep-alive conns shutting down).
	fault.Reset()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain after sweep: %v", err)
	}
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(3 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+8 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked after drain: %d -> %d\n%s",
				baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := s.Stats().InFlight; got != 0 {
		t.Fatalf("in-flight after drain = %d", got)
	}
}
