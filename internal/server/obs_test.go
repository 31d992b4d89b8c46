package server

// The observability suite: /metricsz exposition, /tracez span trees that
// attribute a request's time across every layer, incident↔trace
// correlation under injected panics, and the consistency of /statsz
// snapshots under concurrent load (run with -race).

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/hypergraph"
	"repro/internal/obs"
	"repro/internal/relation"
)

// spanNode mirrors obs.SpanJSON for decoding /tracez payloads.
type spanNode struct {
	Name     string         `json:"name"`
	Attrs    map[string]any `json:"attrs"`
	Children []*spanNode    `json:"children"`
}

type tracezPayload struct {
	Enabled  bool `json:"enabled"`
	Seen     uint64
	Retained uint64
	Traces   []struct {
		Root    *spanNode `json:"root"`
		Spans   int       `json:"spans"`
		Dropped int       `json:"dropped"`
	} `json:"traces"`
}

func getTracez(t *testing.T, url string) tracezPayload {
	t.Helper()
	resp, body := do(t, "GET", url+"/tracez", "", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("/tracez: %d %s", resp.StatusCode, body)
	}
	var tz tracezPayload
	if err := json.Unmarshal(body, &tz); err != nil {
		t.Fatalf("/tracez payload: %v (body %s)", err, body)
	}
	return tz
}

// walk visits every span in the tree.
func walk(n *spanNode, f func(*spanNode)) {
	if n == nil {
		return
	}
	f(n)
	for _, c := range n.Children {
		walk(c, f)
	}
}

// attrInt reads an integer attribute out of decoded JSON (numbers arrive
// as float64).
func attrInt(t *testing.T, n *spanNode, key string) int64 {
	t.Helper()
	v, ok := n.Attrs[key].(float64)
	if !ok {
		t.Fatalf("span %q: attr %q = %v (%T), want a number", n.Name, key, n.Attrs[key], n.Attrs[key])
	}
	return int64(v)
}

// TestTracezEvalSpanTree is the end-to-end attribution check: one /v1/eval
// request under tracing yields a /tracez span tree whose layers — server
// admission, engine memo, analysis facet, executor eval/reduce and every
// semijoin step, and the join phase — carry row counts identical to the
// stats an independent run of the same evaluation reports.
func TestTracezEvalSpanTree(t *testing.T) {
	t.Cleanup(obs.Disable)
	_, ts := newTestServer(t, Config{Trace: true, SlowTraceThreshold: -1}, nil)

	resp, body := do(t, "POST", ts.URL+"/v1/eval", evalBody(64), nil)
	if resp.StatusCode != 200 {
		t.Fatalf("eval: %d %s", resp.StatusCode, body)
	}
	var evalResp struct {
		RowsIn  int `json:"rowsIn"`
		RowsOut int `json:"rowsOut"`
	}
	if err := json.Unmarshal(body, &evalResp); err != nil {
		t.Fatal(err)
	}

	// The same evaluation through the library directly — the reference the
	// span attributes must match byte for byte.
	h, _, err := hypergraph.Parse("A B\nB C\nC D")
	if err != nil {
		t.Fatal(err)
	}
	mk := func(a, b string) *relation.Relation {
		rows := make([][]string, 64)
		for i := range rows {
			rows[i] = []string{fmt.Sprint(i), fmt.Sprint(i)}
		}
		r, err := relation.New([]string{a, b}, rows...)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	d, err := exec.FromRelations(h, []*relation.Relation{mk("A", "B"), mk("B", "C"), mk("C", "D")})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := engine.New().Analyze(h).Eval(context.Background(), d, []string{"A", "D"})
	if err != nil {
		t.Fatal(err)
	}

	tz := getTracez(t, ts.URL)
	if !tz.Enabled {
		t.Fatal("/tracez reports tracing disabled")
	}
	var root *spanNode
	for _, tr := range tz.Traces {
		if tr.Root != nil && tr.Root.Attrs["path"] == "/v1/eval" {
			root = tr.Root
			break
		}
	}
	if root == nil {
		t.Fatalf("no retained trace for /v1/eval among %d traces", len(tz.Traces))
	}
	if root.Name != "server.request" {
		t.Fatalf("root span = %q, want server.request", root.Name)
	}
	if got := attrInt(t, root, "status"); got != 200 {
		t.Fatalf("root status attr = %d, want 200", got)
	}
	if root.Attrs["tenant"] != "anon" {
		t.Fatalf("root tenant attr = %v, want anon", root.Attrs["tenant"])
	}

	byName := map[string][]*spanNode{}
	facets := 0
	walk(root, func(n *spanNode) {
		byName[n.Name] = append(byName[n.Name], n)
		if strings.HasPrefix(n.Name, "facet.") {
			facets++
		}
	})
	for _, name := range []string{"engine.memo", "exec.eval", "exec.reduce"} {
		if len(byName[name]) == 0 {
			t.Fatalf("trace has no %q span (have %v)", name, keys(byName))
		}
	}
	if facets == 0 {
		t.Fatalf("trace has no facet.* span (have %v)", keys(byName))
	}
	// What the request spends before the executor: the envelope decode and
	// the table load, both directly under the request root.
	for _, name := range []string{"server.decode", "exec.load"} {
		if !slices.ContainsFunc(root.Children, func(n *spanNode) bool { return n.Name == name }) {
			t.Fatalf("request root has no %q child (trace has %v)", name, keys(byName))
		}
	}
	// SetBool records 0/1 in the int slot.
	if got := attrInt(t, byName["engine.memo"][0], "hit"); got != 0 {
		t.Fatalf("engine.memo hit attr = %d, want 0 on a cold memo", got)
	}

	red := byName["exec.reduce"][0]
	if in, out := attrInt(t, red, "rowsIn"), attrInt(t, red, "rowsOut"); in != int64(ref.Reduce.RowsIn) || out != int64(ref.Reduce.RowsOut) {
		t.Fatalf("exec.reduce rows = %d->%d, reference run says %d->%d", in, out, ref.Reduce.RowsIn, ref.Reduce.RowsOut)
	}
	if evalResp.RowsIn != ref.Reduce.RowsIn || evalResp.RowsOut != ref.Reduce.RowsOut {
		t.Fatalf("response rows = %d->%d, reference run says %d->%d",
			evalResp.RowsIn, evalResp.RowsOut, ref.Reduce.RowsIn, ref.Reduce.RowsOut)
	}

	// The query {A, D} spans the whole chain, so its canonical connection
	// keeps all three objects.
	ev := byName["exec.eval"][0]
	if join, pruned := attrInt(t, ev, "joinNodes"), attrInt(t, ev, "prunedNodes"); join != 3 || pruned != 0 {
		t.Fatalf("exec.eval joinNodes/prunedNodes = %d/%d, want 3/0", join, pruned)
	}
	if got := attrInt(t, ev, "joinRows"); got != int64(ref.JoinRows) {
		t.Fatalf("exec.eval joinRows = %d, reference run says %d", got, ref.JoinRows)
	}
	// The join phase is one span under exec.eval, after the reduction.
	if n := len(byName["exec.join"]); n != 1 {
		t.Fatalf("trace has %d exec.join spans, want 1", n)
	}
	join := byName["exec.join"][0]
	if !slices.Contains(ev.Children, join) {
		t.Fatal("exec.join span is not a child of exec.eval")
	}
	if got := attrInt(t, join, "joinRows"); got != int64(ref.JoinRows) {
		t.Fatalf("exec.join joinRows = %d, reference run says %d", got, ref.JoinRows)
	}
	if got := attrInt(t, join, "rowsOut"); got != int64(ref.Out.NumRows()) {
		t.Fatalf("exec.join rowsOut = %d, reference run says %d", got, ref.Out.NumRows())
	}
	// The join phase names its kernels as the steps do: the three kept
	// objects take two joins, each keyed by one column over the request's
	// own 64-value dictionary, so both probe by value id, and each keeps
	// two columns, whose 64² span fits the bitmap.
	if dense, hash := attrInt(t, join, "denseJoins"), attrInt(t, join, "hashJoins"); dense != 2 || hash != 0 {
		t.Fatalf("exec.join denseJoins/hashJoins = %d/%d, want 2/0", dense, hash)
	}
	if bitmap, set := attrInt(t, join, "bitmapDedups"), attrInt(t, join, "setDedups"); bitmap != 2 || set != 0 {
		t.Fatalf("exec.join bitmapDedups/setDedups = %d/%d, want 2/0", bitmap, set)
	}

	steps := byName["exec.step"]
	if len(steps) != len(ref.Reduce.Steps) {
		t.Fatalf("trace has %d exec.step spans, reference run has %d steps", len(steps), len(ref.Reduce.Steps))
	}
	// Children are ordered by span id — creation order. The reduction runs
	// its steps serially in program order, so the spans line up with the
	// reference steps index by index.
	for i, sp := range steps {
		want := ref.Reduce.Steps[i]
		if attrInt(t, sp, "target") != int64(want.Step.Target) ||
			attrInt(t, sp, "source") != int64(want.Step.Source) ||
			attrInt(t, sp, "rowsIn") != int64(want.RowsIn) ||
			attrInt(t, sp, "rowsOut") != int64(want.RowsOut) {
			t.Fatalf("exec.step[%d] attrs %v, reference step %+v", i, sp.Attrs, want)
		}
		// Every step of this chain shares one column with its neighbour and
		// the request's dictionary fits, so each runs the dense kernel.
		if sp.Attrs["kernel"] != "dense" {
			t.Fatalf("exec.step[%d] kernel attr = %v, want dense", i, sp.Attrs["kernel"])
		}
	}
}

// TestTracezWorkspaceQuerySpans: a classification query on a fresh
// workspace epoch runs through the epoch handle's analysis session, so its
// facet span lands under the request root like a frozen-schema query's.
func TestTracezWorkspaceQuerySpans(t *testing.T) {
	t.Cleanup(obs.Disable)
	_, ts := newTestServer(t, Config{Trace: true, TraceSampleN: 1, SlowTraceThreshold: -1}, nil)

	resp, body := do(t, "POST", ts.URL+"/v1/workspaces", `{"schema":"A B C\nC D E\nA E F\nA C E"}`, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("create workspace: %d %s", resp.StatusCode, body)
	}
	var created struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	path := "/v1/workspaces/" + created.ID + "/query"
	if resp, body = do(t, "POST", ts.URL+path, `{"op":"classification"}`, nil); resp.StatusCode != 200 {
		t.Fatalf("classification query: %d %s", resp.StatusCode, body)
	}

	var root *spanNode
	for _, tr := range getTracez(t, ts.URL).Traces {
		if tr.Root != nil && tr.Root.Attrs["path"] == path {
			root = tr.Root
			break
		}
	}
	if root == nil {
		t.Fatalf("no retained trace for %s", path)
	}
	names := map[string][]*spanNode{}
	walk(root, func(n *spanNode) { names[n.Name] = append(names[n.Name], n) })
	if len(names["facet.spectrum"]) != 1 {
		t.Fatalf("workspace classification trace has %d facet.spectrum spans, want 1 (have %v)",
			len(names["facet.spectrum"]), keys(names))
	}
}

// TestTracezEarEditSkipsSettle: the verdict read after an ear edit — an
// edge whose overlap with its component lies inside one member — settles
// nothing, so its trace has no dynamic.component span, while the reads
// after the create and after an edit that is no ear each re-analyze the
// component under one. dynamic_ear_edits_total on /metricsz counts the ear
// and its removal, and nothing else.
func TestTracezEarEditSkipsSettle(t *testing.T) {
	t.Cleanup(obs.Disable)
	_, ts := newTestServer(t, Config{Trace: true, TraceSampleN: 1, SlowTraceThreshold: -1}, nil)
	earEdits := func() int {
		t.Helper()
		_, body := do(t, "GET", ts.URL+"/metricsz", "", nil)
		for _, line := range strings.Split(string(body), "\n") {
			if v, ok := strings.CutPrefix(line, "dynamic_ear_edits_total "); ok {
				n, err := strconv.Atoi(v)
				if err != nil {
					t.Fatal(err)
				}
				return n
			}
		}
		t.Fatalf("/metricsz has no dynamic_ear_edits_total:\n%s", body)
		return 0
	}
	resp, body := do(t, "POST", ts.URL+"/v1/workspaces", `{"schema":"A B C\nC D E"}`, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("create workspace: %d %s", resp.StatusCode, body)
	}
	var created struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	ws := ts.URL + "/v1/workspaces/" + created.ID
	path := "/v1/workspaces/" + created.ID + "/query"
	// components reads the verdict and counts the dynamic.component spans
	// in its trace, the newest retained for the query path.
	components := func() int {
		t.Helper()
		if resp, body := do(t, "POST", ts.URL+path, `{"op":"verdict"}`, nil); resp.StatusCode != 200 {
			t.Fatalf("verdict: %d %s", resp.StatusCode, body)
		}
		for _, tr := range getTracez(t, ts.URL).Traces { // newest first
			if tr.Root != nil && tr.Root.Attrs["path"] == path {
				n := 0
				walk(tr.Root, func(s *spanNode) {
					if s.Name == "dynamic.component" {
						n++
					}
				})
				return n
			}
		}
		t.Fatalf("no retained trace for %s", path)
		return 0
	}
	edit := func(method, url, body string) map[string]any {
		t.Helper()
		resp, b := do(t, method, url, body, nil)
		if resp.StatusCode != 200 {
			t.Fatalf("%s %s: %d %s", method, url, resp.StatusCode, b)
		}
		return jsonMap(t, b)
	}

	if n := components(); n != 1 {
		t.Fatalf("first verdict read: %d dynamic.component spans, want 1", n)
	}
	before := earEdits()
	ear := edit("POST", ws+"/edges", `{"nodes":["C","D","X"]}`) // overlap {C,D} inside {C,D,E}
	if n := components(); n != 0 {
		t.Fatalf("verdict read after an ear edit: %d dynamic.component spans, want 0", n)
	}
	edit("DELETE", fmt.Sprintf("%s/edges/%d", ws, int(ear["edge"].(float64))), "")
	if n := components(); n != 0 {
		t.Fatalf("verdict read after dropping the ear: %d dynamic.component spans, want 0", n)
	}
	if got := earEdits() - before; got != 2 {
		t.Fatalf("dynamic_ear_edits_total moved by %d over an ear and its removal, want 2", got)
	}
	edit("POST", ws+"/edges", `{"nodes":["A","C","E"]}`) // overlap {A,C,E}: no one member holds it
	if n := components(); n != 1 {
		t.Fatalf("verdict read after an edit that is no ear: %d dynamic.component spans, want 1", n)
	}
	if got := earEdits() - before; got != 2 {
		t.Fatalf("an edit that is no ear moved dynamic_ear_edits_total to %d past the start, want 2", got)
	}
}

func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestIncidentTraceCorrelation arms a panic at each instrumented layer and
// proves the 500's incident id is stamped on the force-retained trace: the
// /tracez entry for the failed request is findable by the id the client
// received, whichever layer blew up.
func TestIncidentTraceCorrelation(t *testing.T) {
	cases := []struct {
		name string
		req  func(t *testing.T, url string) string // arm, request, return incident id
	}{
		{"server.handle", func(t *testing.T, url string) string {
			fault.Activate(fault.ServerHandle, fault.Injection{Kind: fault.KindPanic, Panic: "handler corrupted", Count: 1})
			resp, body := do(t, "POST", url+"/v1/analyze", schemaBody(fig1Text), nil)
			return assertTyped(t, resp, body, 500, CodeInternal).Incident
		}},
		{"engine.analyze", func(t *testing.T, url string) string {
			fault.Activate(fault.EngineAnalyze, fault.Injection{Kind: fault.KindPanic, Panic: "memo corrupted", Count: 1})
			resp, body := do(t, "POST", url+"/v1/analyze", schemaBody(fig1Text), nil)
			return assertTyped(t, resp, body, 500, CodeInternal).Incident
		}},
		{"exec.reduce.step", func(t *testing.T, url string) string {
			fault.Activate(fault.ExecReduceStep, fault.Injection{Kind: fault.KindPanic, Panic: "kernel corrupted", After: 1, Count: 1})
			resp, body := do(t, "POST", url+"/v1/reduce", evalBody(32), nil)
			return assertTyped(t, resp, body, 500, CodeInternal).Incident
		}},
		{"exec.eval.join", func(t *testing.T, url string) string {
			fault.Activate(fault.ExecEvalJoin, fault.Injection{Kind: fault.KindPanic, Panic: "join corrupted", Count: 1})
			resp, body := do(t, "POST", url+"/v1/eval", evalBody(16), nil)
			return assertTyped(t, resp, body, 500, CodeInternal).Incident
		}},
		{"dynamic.settle", func(t *testing.T, url string) string {
			resp, body := do(t, "POST", url+"/v1/workspaces", "", nil)
			if resp.StatusCode != 200 {
				t.Fatalf("create: %d %s", resp.StatusCode, body)
			}
			var created struct {
				ID string `json:"id"`
			}
			if err := json.Unmarshal(body, &created); err != nil {
				t.Fatal(err)
			}
			wsURL := url + "/v1/workspaces/" + created.ID
			if resp, body = do(t, "POST", wsURL+"/edges", `{"nodes":["X","Y"]}`, nil); resp.StatusCode != 200 {
				t.Fatalf("edge: %d %s", resp.StatusCode, body)
			}
			fault.Activate(fault.DynamicSettle, fault.Injection{Kind: fault.KindPanic, Panic: "settle corrupted", Count: 1})
			resp, body = do(t, "GET", wsURL, "", nil)
			return assertTyped(t, resp, body, 500, CodeInternal).Incident
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer fault.Reset()
			t.Cleanup(obs.Disable)
			fault.Reset()
			_, ts := newTestServer(t, Config{Trace: true, SlowTraceThreshold: -1}, nil)
			id := tc.req(t, ts.URL)
			if id == "" {
				t.Fatal("500 carried no incident id")
			}
			tz := getTracez(t, ts.URL)
			found := false
			for _, tr := range tz.Traces {
				if tr.Root != nil && tr.Root.Attrs["incident"] == id {
					found = true
					if got := attrInt(t, tr.Root, "status"); got != 500 {
						t.Fatalf("correlated trace has status %d, want 500", got)
					}
				}
			}
			if !found {
				t.Fatalf("no retained trace carries incident %q (%d traces)", id, len(tz.Traces))
			}
		})
	}
}

// TestMetricszExposition checks the always-on metrics endpoint: Prometheus
// text format with the serving counters and the request-latency histogram.
// Values are not asserted — the registry is process-global and other tests
// contribute — only well-formed presence.
func TestMetricszExposition(t *testing.T) {
	_, ts := newTestServer(t, Config{}, nil)
	if resp, body := do(t, "POST", ts.URL+"/v1/analyze", schemaBody(fig1Text), nil); resp.StatusCode != 200 {
		t.Fatalf("analyze: %d %s", resp.StatusCode, body)
	}
	resp, body := do(t, "GET", ts.URL+"/metricsz", "", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("/metricsz: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content-type = %q, want text/plain", ct)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE server_requests_total counter",
		"# TYPE server_request_seconds histogram",
		`server_request_seconds_bucket{le="+Inf"}`,
		"server_request_seconds_count",
		"engine_memo_misses_total",
		"# TYPE dynamic_ear_edits_total counter",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metricsz missing %q:\n%s", want, text)
		}
	}
}

// TestStatszConsistentUnderHammer is the consistency regression for the
// Stats snapshot: while writers drive mixed-outcome traffic, every
// concurrent snapshot must satisfy the invariant that the outcome counters
// never sum past Total — the old one-atomic-per-counter scheme could show
// an outcome whose admission the reader had not yet seen. Run with -race:
// it also hammers /statsz over HTTP against the same counters.
func TestStatszConsistentUnderHammer(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 4, TenantRate: 1e6, TenantBurst: 1 << 20}, nil)

	check := func(st Stats) {
		sum := st.OK + st.ClientErr + st.Shed + st.QuotaDenied + st.Deadlines + st.Internal
		if sum > st.Total {
			t.Errorf("inconsistent snapshot: outcomes sum %d > total %d (%+v)", sum, st.Total, st)
		}
	}

	const writers, perWriter = 8, 40
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				switch i % 3 {
				case 0:
					do(t, "POST", ts.URL+"/v1/analyze", schemaBody(fig1Text), nil)
				case 1:
					do(t, "POST", ts.URL+"/v1/analyze", "{not json", nil) // 400
				default:
					do(t, "POST", ts.URL+"/v1/jointree", schemaBody(fig1Text), nil)
				}
			}
		}(w)
	}
	var readers sync.WaitGroup
	readers.Add(2)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				check(s.Stats())
			}
		}
	}()
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				resp, body := do(t, "GET", ts.URL+"/statsz", "", nil)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("/statsz: %d", resp.StatusCode)
					return
				}
				var st Stats
				if err := json.Unmarshal(body, &st); err != nil {
					t.Errorf("/statsz body: %v", err)
					return
				}
				check(st)
			}
		}
	}()
	wg.Wait()
	close(stop)
	readers.Wait()

	// Quiesced, the books balance exactly: every admitted request landed in
	// precisely one outcome bucket.
	st := s.Stats()
	sum := st.OK + st.ClientErr + st.Shed + st.QuotaDenied + st.Deadlines + st.Internal
	if sum != st.Total || st.Total != writers*perWriter {
		t.Fatalf("final books: outcomes sum %d, total %d, want both %d (%+v)", sum, st.Total, writers*perWriter, st)
	}
}

// benchmarkServe measures one warm memoized /v1/analyze round trip through
// the full envelope; the TraceOff/TraceOn pair is the serve-level view of
// the instrumentation overhead recorded in BENCH_obs.json.
func benchmarkServe(b *testing.B, cfg Config) {
	b.Helper()
	s := New(cfg, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer obs.Disable()
	body := schemaBody(fig1Text)
	post := func() {
		resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			b.Fatalf("analyze: %d", resp.StatusCode)
		}
	}
	post() // warm the memo so the engine path is a fingerprint probe
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
}

func BenchmarkServeAnalyzeTraceOff(b *testing.B) {
	benchmarkServe(b, Config{TenantRate: 1e9, TenantBurst: 1 << 30})
}

func BenchmarkServeAnalyzeTraceOn(b *testing.B) {
	// Default slow threshold: spans are recorded but no trace is retained —
	// the steady-state cost of leaving tracing on.
	benchmarkServe(b, Config{TenantRate: 1e9, TenantBurst: 1 << 30, Trace: true})
}

func BenchmarkServeAnalyzeTraceOnRetainAll(b *testing.B) {
	// Threshold -1 retains (snapshots and tree-assembles) every trace: the
	// worst case, every request paying the slow-query profiler too.
	benchmarkServe(b, Config{TenantRate: 1e9, TenantBurst: 1 << 30, Trace: true, SlowTraceThreshold: -1})
}
