package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/gen"
)

// fig1Text is the paper's Figure 1 schema in the wire text format.
const fig1Text = "A B C\nC D E\nA E F\nA C E"

// triangleText is the canonical cyclic schema.
const triangleText = "A B\nB C\nC A"

func newTestServer(t *testing.T, cfg Config, now func() time.Time) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg, now)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// do issues one request and returns the response with its body drained.
func do(t *testing.T, method, url, body string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func schemaBody(schema string) string {
	b, _ := json.Marshal(map[string]string{"schema": schema})
	return string(b)
}

// decodeError unwraps the {"error": {...}} envelope.
func decodeError(t *testing.T, body []byte) ErrorBody {
	t.Helper()
	var env errorResponse
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("error body is not the documented envelope: %v (body %q)", err, body)
	}
	return env.Error
}

func TestAnalyzeAndJoinTreeHappyPath(t *testing.T) {
	_, ts := newTestServer(t, Config{}, nil)
	resp, body := do(t, "POST", ts.URL+"/v1/analyze", schemaBody(fig1Text), nil)
	if resp.StatusCode != 200 {
		t.Fatalf("analyze: status %d body %s", resp.StatusCode, body)
	}
	var out struct {
		Acyclic bool `json:"acyclic"`
		Nodes   int  `json:"nodes"`
		Edges   int  `json:"edges"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Acyclic || out.Nodes != 6 || out.Edges != 4 {
		t.Fatalf("analyze(fig1) = %+v", out)
	}
	resp, body = do(t, "POST", ts.URL+"/v1/jointree", schemaBody(fig1Text), nil)
	if resp.StatusCode != 200 {
		t.Fatalf("jointree: status %d body %s", resp.StatusCode, body)
	}
	var jt struct {
		Parent  []int      `json:"parent"`
		Program []stepJSON `json:"program"`
	}
	if err := json.Unmarshal(body, &jt); err != nil {
		t.Fatal(err)
	}
	if len(jt.Parent) != 4 || len(jt.Program) != 6 {
		t.Fatalf("jointree(fig1) = %+v (want 4 edges, 6 reducer steps)", jt)
	}
}

func TestEvalHappyPath(t *testing.T) {
	_, ts := newTestServer(t, Config{}, nil)
	req := map[string]any{
		"schema": "A B\nB C",
		"tables": []map[string]any{
			{"attrs": []string{"A", "B"}, "rows": [][]string{{"1", "2"}}},
			{"attrs": []string{"B", "C"}, "rows": [][]string{{"2", "3"}, {"9", "9"}}},
		},
		"attrs": []string{"A", "C"},
	}
	b, _ := json.Marshal(req)
	resp, body := do(t, "POST", ts.URL+"/v1/eval", string(b), nil)
	if resp.StatusCode != 200 {
		t.Fatalf("eval: status %d body %s", resp.StatusCode, body)
	}
	var out struct {
		Attrs   []string   `json:"attrs"`
		Rows    [][]string `json:"rows"`
		RowsOut int        `json:"rowsOut"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 1 || out.Rows[0][0] != "1" || out.Rows[0][1] != "3" {
		t.Fatalf("eval rows = %v, want [[1 3]]", out.Rows)
	}
	if out.RowsOut != 2 {
		t.Fatalf("rowsOut = %d, want 2 (dangling (9,9) reduced away)", out.RowsOut)
	}
}

// TestErrorFidelity pins every documented error to its status code and JSON
// shape. Each row drives a real request through the full envelope.
func TestErrorFidelity(t *testing.T) {
	defer fault.Reset()
	s, ts := newTestServer(t, Config{MaxBodyBytes: 256}, nil)

	// A workspace with known content for the workspace-error rows:
	// ws-1 at epoch 1 after one AddEdge.
	resp, body := do(t, "POST", ts.URL+"/v1/workspaces", schemaBody("A B"), nil)
	if resp.StatusCode != 200 {
		t.Fatalf("workspace create: %d %s", resp.StatusCode, body)
	}
	var created struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	wsURL := ts.URL + "/v1/workspaces/" + created.ID
	if resp, body = do(t, "POST", wsURL+"/edges", `{"nodes":["B","C"]}`, nil); resp.StatusCode != 200 {
		t.Fatalf("add edge: %d %s", resp.StatusCode, body)
	}

	type check func(t *testing.T, e ErrorBody)
	rows := []struct {
		name   string
		method string
		path   string
		body   string
		hdr    map[string]string
		arm    func()
		status int
		code   string
		extra  check
	}{
		{
			name: "parse", method: "POST", path: "/v1/analyze",
			body: schemaBody(""), status: 400, code: CodeParse,
			extra: func(t *testing.T, e ErrorBody) {
				if e.Line != 1 || e.Col != 1 {
					t.Errorf("parse position = %d:%d, want 1:1", e.Line, e.Col)
				}
			},
		},
		{
			name: "unknown_node", method: "POST", path: "/v1/eval",
			body:   `{"schema":"A B","tables":[{"attrs":["A","B"],"rows":[]}],"attrs":["Z"]}`,
			status: 400, code: CodeUnknownNode,
			extra: func(t *testing.T, e ErrorBody) {
				if e.Name != "Z" {
					t.Errorf("unknown node name = %q, want Z", e.Name)
				}
			},
		},
		{
			name: "bad_json", method: "POST", path: "/v1/analyze",
			body: "{", status: 400, code: CodeBadJSON,
		},
		{
			name: "bad_request", method: "POST", path: "/v1/eval",
			// Two-edge schema, one table: shape mismatch the library rejects.
			body:   `{"schema":"A B\nB C","tables":[{"attrs":["A","B"],"rows":[]}],"attrs":["A"]}`,
			status: 400, code: CodeBadRequest,
		},
		{
			name: "cyclic", method: "POST", path: "/v1/jointree",
			body: schemaBody(triangleText), status: 422, code: CodeCyclic,
		},
		{
			name: "stale_epoch", method: "POST", path: "/v1/workspaces/" + created.ID + "/query",
			body: `{"op":"verdict","epoch":0}`, status: 409, code: CodeStaleEpoch,
			extra: func(t *testing.T, e ErrorBody) {
				if e.Handle != 0 || e.Current == 0 {
					t.Errorf("stale epochs = handle %d current %d, want handle 0 and a later current", e.Handle, e.Current)
				}
			},
		},
		{
			name: "unknown_edge", method: "DELETE", path: "/v1/workspaces/" + created.ID + "/edges/99",
			status: 404, code: CodeUnknownEdge,
			extra: func(t *testing.T, e ErrorBody) {
				if e.EdgeID != 99 {
					t.Errorf("edge id = %d, want 99", e.EdgeID)
				}
			},
		},
		{
			name: "node_exists", method: "POST", path: "/v1/workspaces/" + created.ID + "/rename",
			body: `{"old":"A","new":"C"}`, status: 409, code: CodeNodeExists,
			extra: func(t *testing.T, e ErrorBody) {
				if e.Name != "C" {
					t.Errorf("conflicting name = %q, want C", e.Name)
				}
			},
		},
		{
			name: "not_found", method: "GET", path: "/v1/workspaces/nope",
			status: 404, code: CodeNotFound,
		},
		{
			name: "body_too_large", method: "POST", path: "/v1/analyze",
			body:   schemaBody(strings.Repeat("A B\n", 200)),
			status: 413, code: CodeBodyTooLarge,
		},
		{
			name: "deadline", method: "POST", path: "/v1/analyze",
			// A unique schema (cold memo) plus an injected 60ms stall against
			// a 1ms deadline: the ctx plumbing must fail the request.
			body: schemaBody("DL1 DL2\nDL2 DL3"),
			hdr:  map[string]string{"X-Deadline-Ms": "1"},
			arm: func() {
				fault.Activate(fault.ServerHandle, fault.Injection{
					Kind: fault.KindDelay, Delay: 60 * time.Millisecond, Count: 1,
				})
			},
			status: 408, code: CodeDeadline,
		},
		{
			name: "internal_panic", method: "POST", path: "/v1/analyze",
			body: schemaBody(fig1Text),
			arm: func() {
				fault.Activate(fault.ServerHandle, fault.Injection{
					Kind: fault.KindPanic, Panic: "boom", Count: 1,
				})
			},
			status: 500, code: CodeInternal,
			extra: func(t *testing.T, e ErrorBody) {
				if e.Incident == "" {
					t.Error("500 without incident id")
				}
			},
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			fault.Reset()
			if row.arm != nil {
				row.arm()
			}
			resp, body := do(t, row.method, ts.URL+row.path, row.body, row.hdr)
			if resp.StatusCode != row.status {
				t.Fatalf("status = %d, want %d (body %s)", resp.StatusCode, row.status, body)
			}
			e := decodeError(t, body)
			if e.Code != row.code {
				t.Fatalf("code = %q, want %q (body %s)", e.Code, row.code, body)
			}
			if e.Message == "" {
				t.Error("error body without message")
			}
			if row.extra != nil {
				row.extra(t, e)
			}
		})
	}

	// The process survived the injected panic: a follow-up request succeeds.
	fault.Reset()
	if resp, body := do(t, "POST", ts.URL+"/v1/analyze", schemaBody(fig1Text), nil); resp.StatusCode != 200 {
		t.Fatalf("server did not survive the panic: %d %s", resp.StatusCode, body)
	}
	if got := s.Stats().Panics; got != 1 {
		t.Errorf("panic counter = %d, want 1", got)
	}
}

// TestErrorFidelityConcurrent drives a burst through a windowed panic plan:
// exactly Count requests must answer 500-with-incident, every other request
// 200, and the server must stay coherent throughout.
func TestErrorFidelityConcurrent(t *testing.T) {
	defer fault.Reset()
	_, ts := newTestServer(t, Config{
		MaxInFlight: 128, TenantRate: 100000, TenantBurst: 100000,
	}, nil)
	const total, panics = 60, 5
	fault.Reset()
	fault.Activate(fault.ServerHandle, fault.Injection{
		Kind: fault.KindPanic, Panic: "chaos", After: 10, Count: panics,
	})
	var wg sync.WaitGroup
	codes := make([]int, total)
	incidents := make([]string, total)
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := do(t, "POST", ts.URL+"/v1/analyze", schemaBody(fig1Text), nil)
			codes[i] = resp.StatusCode
			if resp.StatusCode == 500 {
				incidents[i] = decodeError(t, body).Incident
			}
		}(i)
	}
	wg.Wait()
	got500, got200 := 0, 0
	seen := map[string]bool{}
	for i, c := range codes {
		switch c {
		case 200:
			got200++
		case 500:
			got500++
			if incidents[i] == "" {
				t.Error("500 without incident id under load")
			}
			if seen[incidents[i]] {
				t.Errorf("incident id %q reused", incidents[i])
			}
			seen[incidents[i]] = true
		default:
			t.Errorf("unexpected status %d under load", c)
		}
	}
	if got500 != panics || got200 != total-panics {
		t.Fatalf("got %d panics / %d ok, want %d / %d", got500, got200, panics, total-panics)
	}
}

func TestAdmissionControlSheds(t *testing.T) {
	defer fault.Reset()
	s, ts := newTestServer(t, Config{MaxInFlight: 2, TenantRate: 100000, TenantBurst: 100000}, nil)
	// Stall every admitted request so the in-flight limit fills.
	fault.Reset()
	fault.Activate(fault.ServerHandle, fault.Injection{
		Kind: fault.KindDelay, Delay: 300 * time.Millisecond,
	})
	const total = 8
	var wg sync.WaitGroup
	codes := make([]int, total)
	retry := make([]string, total)
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, _ := do(t, "POST", ts.URL+"/v1/analyze", schemaBody(fig1Text), nil)
			codes[i] = resp.StatusCode
			retry[i] = resp.Header.Get("Retry-After")
		}(i)
	}
	wg.Wait()
	shed := 0
	for i, c := range codes {
		switch c {
		case 200:
		case 429:
			shed++
			if retry[i] == "" {
				t.Error("429 without Retry-After")
			}
		default:
			t.Errorf("unexpected status %d", c)
		}
	}
	if shed == 0 {
		t.Fatal("no requests shed with MaxInFlight=2 and 8 concurrent stalls")
	}
	if got := s.Stats().Shed; got != uint64(shed) {
		t.Errorf("shed counter = %d, want %d", got, shed)
	}
}

func TestTenantQuota(t *testing.T) {
	clock := time.Unix(1000, 0)
	now := func() time.Time { return clock }
	_, ts := newTestServer(t, Config{TenantRate: 1, TenantBurst: 2}, now)
	hdrA := map[string]string{"X-Tenant": "alice"}
	hdrB := map[string]string{"X-Tenant": "bob"}
	// Alice's burst of 2 is admitted, the third refuses with Retry-After.
	for i := 0; i < 2; i++ {
		if resp, body := do(t, "POST", ts.URL+"/v1/analyze", schemaBody(fig1Text), hdrA); resp.StatusCode != 200 {
			t.Fatalf("request %d: %d %s", i, resp.StatusCode, body)
		}
	}
	resp, body := do(t, "POST", ts.URL+"/v1/analyze", schemaBody(fig1Text), hdrA)
	if resp.StatusCode != 429 {
		t.Fatalf("third request: %d, want 429", resp.StatusCode)
	}
	if e := decodeError(t, body); e.Code != CodeTenantQuota {
		t.Fatalf("code = %q, want %q", e.Code, CodeTenantQuota)
	}
	if resp.Header.Get("Retry-After") != "1" {
		t.Errorf("Retry-After = %q, want 1", resp.Header.Get("Retry-After"))
	}
	// Bob is unaffected by Alice's exhaustion.
	if resp, _ := do(t, "POST", ts.URL+"/v1/analyze", schemaBody(fig1Text), hdrB); resp.StatusCode != 200 {
		t.Fatalf("bob: %d, want 200", resp.StatusCode)
	}
	// One simulated second later Alice has a token again.
	clock = clock.Add(time.Second)
	if resp, _ := do(t, "POST", ts.URL+"/v1/analyze", schemaBody(fig1Text), hdrA); resp.StatusCode != 200 {
		t.Fatalf("after refill: %d, want 200", resp.StatusCode)
	}
}

func TestWorkspaceSessionLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{}, nil)
	resp, body := do(t, "POST", ts.URL+"/v1/workspaces", "", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("create empty: %d %s", resp.StatusCode, body)
	}
	var created struct {
		ID    string `json:"id"`
		Epoch uint64 `json:"epoch"`
	}
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	wsURL := ts.URL + "/v1/workspaces/" + created.ID

	// Build the triangle edge by edge, watch the verdict flip, then break
	// the cycle and watch it flip back.
	var lastEdge int
	for i, e := range []string{`["A","B"]`, `["B","C"]`, `["C","A"]`} {
		resp, body = do(t, "POST", wsURL+"/edges", `{"nodes":`+e+`}`, nil)
		if resp.StatusCode != 200 {
			t.Fatalf("add edge %d: %d %s", i, resp.StatusCode, body)
		}
		var added struct {
			Edge int `json:"edge"`
		}
		if err := json.Unmarshal(body, &added); err != nil {
			t.Fatal(err)
		}
		lastEdge = added.Edge
	}
	resp, body = do(t, "POST", wsURL+"/query", `{"op":"verdict"}`, nil)
	var verdict struct {
		Epoch   uint64 `json:"epoch"`
		Acyclic bool   `json:"acyclic"`
	}
	if err := json.Unmarshal(body, &verdict); err != nil {
		t.Fatal(err)
	}
	if verdict.Acyclic {
		t.Fatal("triangle reported acyclic")
	}
	if resp, body = do(t, "DELETE", fmt.Sprintf("%s/edges/%d", wsURL, lastEdge), "", nil); resp.StatusCode != 200 {
		t.Fatalf("remove edge: %d %s", resp.StatusCode, body)
	}
	resp, body = do(t, "POST", wsURL+"/query", `{"op":"verdict"}`, nil)
	if err := json.Unmarshal(body, &verdict); err != nil {
		t.Fatal(err)
	}
	if !verdict.Acyclic {
		t.Fatal("path A-B-C reported cyclic after breaking the triangle")
	}
	// Epoch pinning on the current epoch succeeds.
	pinned := fmt.Sprintf(`{"op":"verdict","epoch":%d}`, verdict.Epoch)
	if resp, body = do(t, "POST", wsURL+"/query", pinned, nil); resp.StatusCode != 200 {
		t.Fatalf("pinned query: %d %s", resp.StatusCode, body)
	}
}

// TestWorkspaceGetCountsMatchEpoch: GET /v1/workspaces/{id} serves its
// epoch and its edge, node and component counts from one analysis handle,
// so a concurrent edit never mixes two epochs into one reply. The writer
// toggles one disjoint edge on and off, so every count is a function of the
// reply's epoch parity.
func TestWorkspaceGetCountsMatchEpoch(t *testing.T) {
	_, ts := newTestServer(t, Config{TenantRate: 1e9, TenantBurst: 1 << 30}, nil)
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
	type reply struct {
		Epoch      uint64 `json:"epoch"`
		Edges      int    `json:"edges"`
		Nodes      int    `json:"nodes"`
		Components int    `json:"components"`
	}
	var base reply
	if _, body = do(t, "GET", wsURL, "", nil); json.Unmarshal(body, &base) != nil {
		t.Fatalf("get: %s", body)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := http.Get(wsURL)
				if err != nil {
					t.Error(err)
					return
				}
				var got reply
				err = json.NewDecoder(res.Body).Decode(&got)
				res.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				want := base
				want.Epoch = got.Epoch
				if (got.Epoch-base.Epoch)%2 == 1 {
					want.Edges, want.Nodes, want.Components = base.Edges+1, base.Nodes+2, base.Components+1
				}
				if got != want {
					t.Errorf("reply %+v mixes epochs: epoch %d has counts %+v", got, got.Epoch, want)
					return
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		resp, body := do(t, "POST", wsURL+"/edges", `{"nodes":["p","q"]}`, nil)
		var added struct {
			Edge int `json:"edge"`
		}
		if resp.StatusCode != 200 || json.Unmarshal(body, &added) != nil {
			t.Fatalf("add: %d %s", resp.StatusCode, body)
		}
		if resp, body = do(t, "DELETE", fmt.Sprintf("%s/edges/%d", wsURL, added.Edge), "", nil); resp.StatusCode != 200 {
			t.Fatalf("remove: %d %s", resp.StatusCode, body)
		}
	}
	close(stop)
	wg.Wait()
}

// TestUnpinnedQueryRacesEdits: a query that pins no epoch is answered at
// whatever epoch is current, so an edit landing while its reply is built
// must not surface as 409 "stale_epoch": one goroutine adds and removes an
// edge while the test runs unpinned jointree, fullreducer and
// classification queries, and every reply must be 200.
func TestUnpinnedQueryRacesEdits(t *testing.T) {
	s, _ := newTestServer(t, Config{TenantRate: 1e9, TenantBurst: 1 << 30}, nil)
	h := s.Handler()
	serve := func(method, path, body string) (int, []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec.Code, rec.Body.Bytes()
	}
	if code, body := serve("POST", "/v1/workspaces", schemaBody(fig1Text)); code != http.StatusOK {
		t.Fatalf("create: %d %s", code, body)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			code, body := serve("POST", "/v1/workspaces/ws-1/edges", `{"nodes":["p","q"]}`)
			var added struct {
				Edge int `json:"edge"`
			}
			if code != http.StatusOK || json.Unmarshal(body, &added) != nil {
				t.Errorf("add: %d %s", code, body)
				return
			}
			if code, body = serve("DELETE", fmt.Sprintf("/v1/workspaces/ws-1/edges/%d", added.Edge), ""); code != http.StatusOK {
				t.Errorf("remove: %d %s", code, body)
				return
			}
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()

	ops := []string{"jointree", "fullreducer", "classification"}
	var first uint64
	for i := 0; i < 3000; i++ {
		op := ops[i%len(ops)]
		code, body := serve("POST", "/v1/workspaces/ws-1/query", `{"op":"`+op+`"}`)
		if code != http.StatusOK {
			t.Fatalf("unpinned %s query %d: %d %s", op, i, code, body)
		}
		var reply struct {
			Epoch uint64 `json:"epoch"`
		}
		if err := json.Unmarshal(body, &reply); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = reply.Epoch
		} else if i == 2999 && reply.Epoch == first {
			t.Fatal("no edit landed while the queries ran")
		}
	}
}

func TestGracefulDrain(t *testing.T) {
	defer fault.Reset()
	s, ts := newTestServer(t, Config{}, nil)
	fault.Reset()
	fault.Activate(fault.ServerHandle, fault.Injection{
		Kind: fault.KindDelay, Delay: 200 * time.Millisecond, Count: 1,
	})
	inFlight := make(chan int, 1)
	go func() {
		resp, _ := do(t, "POST", ts.URL+"/v1/analyze", schemaBody(fig1Text), nil)
		inFlight <- resp.StatusCode
	}()
	time.Sleep(50 * time.Millisecond) // let the slow request be admitted

	drainDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		drainDone <- s.Drain(ctx)
	}()
	time.Sleep(20 * time.Millisecond) // let Drain flip the gate

	// New work is refused while draining; the health check fails over.
	if resp, body := do(t, "POST", ts.URL+"/v1/analyze", schemaBody(fig1Text), nil); resp.StatusCode != 503 {
		t.Fatalf("request during drain: %d %s", resp.StatusCode, body)
	} else if e := decodeError(t, body); e.Code != CodeDraining {
		t.Fatalf("drain code = %q", e.Code)
	}
	if resp, _ := do(t, "GET", ts.URL+"/healthz", "", nil); resp.StatusCode != 503 {
		t.Fatalf("healthz during drain: %d, want 503", resp.StatusCode)
	}

	// The in-flight request completes and the drain resolves cleanly.
	if err := <-drainDone; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if code := <-inFlight; code != 200 {
		t.Fatalf("in-flight request during drain: %d, want 200", code)
	}
}

func TestDrainTimesOutWithWorkStuck(t *testing.T) {
	defer fault.Reset()
	s, ts := newTestServer(t, Config{}, nil)
	fault.Reset()
	fault.Activate(fault.ServerHandle, fault.Injection{
		Kind: fault.KindDelay, Delay: 500 * time.Millisecond, Count: 1,
	})
	done := make(chan struct{})
	go func() {
		do(t, "POST", ts.URL+"/v1/analyze", schemaBody(fig1Text), nil)
		close(done)
	}()
	time.Sleep(50 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err != context.DeadlineExceeded {
		t.Fatalf("drain with stuck work: %v, want context.DeadlineExceeded", err)
	}
	<-done
}

func TestStatszAndHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{}, nil)
	if resp, body := do(t, "GET", ts.URL+"/healthz", "", nil); resp.StatusCode != 200 || !bytes.Contains(body, []byte("true")) {
		t.Fatalf("healthz: %d %s", resp.StatusCode, body)
	}
	do(t, "POST", ts.URL+"/v1/analyze", schemaBody(fig1Text), nil)
	resp, body := do(t, "GET", ts.URL+"/statsz", "", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("statsz: %d", resp.StatusCode)
	}
	var st Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Total != 1 || st.OK != 1 {
		t.Fatalf("stats after one request = %+v", st)
	}
}

// classifyResponse mirrors the /v1/classify wire shape.
type classifyResponse struct {
	Alpha        bool   `json:"alpha"`
	Beta         bool   `json:"beta"`
	Gamma        bool   `json:"gamma"`
	Berge        bool   `json:"berge"`
	Degree       string `json:"degree"`
	Certificates map[string]struct {
		Kind  string `json:"kind"`
		Nodes int    `json:"nodes"`
		Edges int    `json:"edges"`
		Steps int    `json:"steps"`
	} `json:"certificates"`
}

// TestClassifySpectrum pins the spectrum-backed classify endpoint on one
// known schema per rung of the hierarchy: the four verdicts, the degree
// string, and the certificate summary that backs each verdict.
func TestClassifySpectrum(t *testing.T) {
	_, ts := newTestServer(t, Config{}, nil)
	cases := []struct {
		name, schema, degree string
	}{
		{"berge", "A B\nB C", "berge-acyclic"},
		{"gamma", "A B\nA B C", "gamma-acyclic"},
		{"beta", "A B\nB C\nA B C", "beta-acyclic"},
		{"alpha", "A B\nB C\nC A\nA B C", "alpha-acyclic"},
		{"cyclic", triangleText, "cyclic"},
	}
	for _, tc := range cases {
		resp, body := do(t, "POST", ts.URL+"/v1/classify", schemaBody(tc.schema), nil)
		if resp.StatusCode != 200 {
			t.Fatalf("%s: classify: %d %s", tc.name, resp.StatusCode, body)
		}
		var out classifyResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatalf("%s: %v (body %s)", tc.name, err, body)
		}
		if out.Degree != tc.degree {
			t.Errorf("%s: degree = %q, want %q (body %s)", tc.name, out.Degree, tc.degree, body)
		}
		beta, gamma := out.Certificates["beta"], out.Certificates["gamma"]
		if out.Beta {
			if beta.Kind != "elimination-order" || beta.Nodes == 0 {
				t.Errorf("%s: beta certificate = %+v, want a non-empty elimination order", tc.name, beta)
			}
		} else if beta.Kind != "nest-free-core" || beta.Nodes == 0 {
			t.Errorf("%s: beta certificate = %+v, want a non-empty nest-free core", tc.name, beta)
		}
		if out.Gamma {
			if gamma.Kind != "reduction-steps" || gamma.Steps == 0 {
				t.Errorf("%s: gamma certificate = %+v, want a non-empty step sequence", tc.name, gamma)
			}
		} else if gamma.Kind != "irreducible-core" || gamma.Nodes == 0 || gamma.Edges == 0 {
			t.Errorf("%s: gamma certificate = %+v, want a non-empty irreducible core", tc.name, gamma)
		}
	}
}

// TestWorkspaceClassificationReply pins the bytes of the workspace
// {"op":"classification"} reply on one schema per degree: the four
// verdicts, the degree name and the epoch, read off the epoch handle's
// spectrum. The repeat on the same epoch is served from the response
// cache and must be the same bytes.
func TestWorkspaceClassificationReply(t *testing.T) {
	_, ts := newTestServer(t, Config{}, nil)
	cases := []struct{ name, schema, want string }{
		{"cyclic", triangleText,
			`{"alpha":false,"berge":false,"beta":false,"degree":"cyclic","epoch":3,"gamma":false}` + "\n"},
		{"alpha", "A B\nB C\nC A\nA B C",
			`{"alpha":true,"berge":false,"beta":false,"degree":"alpha-acyclic","epoch":4,"gamma":false}` + "\n"},
		{"beta", "A B\nB C\nA B C",
			`{"alpha":true,"berge":false,"beta":true,"degree":"beta-acyclic","epoch":3,"gamma":false}` + "\n"},
		{"gamma", "A B\nA B C",
			`{"alpha":true,"berge":false,"beta":true,"degree":"gamma-acyclic","epoch":2,"gamma":true}` + "\n"},
		{"berge", "A B\nB C",
			`{"alpha":true,"berge":true,"beta":true,"degree":"berge-acyclic","epoch":2,"gamma":true}` + "\n"},
	}
	for _, tc := range cases {
		resp, body := do(t, "POST", ts.URL+"/v1/workspaces", schemaBody(tc.schema), nil)
		if resp.StatusCode != 200 {
			t.Fatalf("%s: create workspace: %d %s", tc.name, resp.StatusCode, body)
		}
		var created struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(body, &created); err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 2; round++ {
			resp, body = do(t, "POST", ts.URL+"/v1/workspaces/"+created.ID+"/query", `{"op":"classification"}`, nil)
			if resp.StatusCode != 200 || string(body) != tc.want {
				t.Errorf("%s round %d: reply %d %q, want 200 %q", tc.name, round, resp.StatusCode, body, tc.want)
			}
		}
	}
}

// TestClassifyLargeSchemaUnderDeadline is the server-scale pin for the
// polynomial path: a 10⁴-edge schema — which the retired MaxClassifyEdges
// cap would have refused with 422 — classifies fully under the default 2s
// deadline.
func TestClassifyLargeSchemaUnderDeadline(t *testing.T) {
	_, ts := newTestServer(t, Config{}, nil)
	h := gen.GammaAcyclic(rand.New(rand.NewSource(7)), 10000, 6000)
	resp, body := do(t, "POST", ts.URL+"/v1/classify", schemaBody(h.Format()), nil)
	if resp.StatusCode != 200 {
		t.Fatalf("classify(10k edges): %d %s", resp.StatusCode, body[:min(len(body), 200)])
	}
	var out classifyResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Alpha || !out.Beta || !out.Gamma {
		t.Fatalf("generated γ-acyclic schema classified %+v", out)
	}
}

// TestStatszIncidents pins the incident ring: a recovered panic's incident
// id must be queryable via /statsz with its request context and stack, and
// via the embedding API.
func TestStatszIncidents(t *testing.T) {
	defer fault.Reset()
	s, ts := newTestServer(t, Config{}, nil)
	fault.Reset()
	fault.Activate(fault.EngineAnalyze, fault.Injection{
		Kind: fault.KindPanic, Panic: "memo shard corrupted", Count: 1,
	})
	resp, body := do(t, "POST", ts.URL+"/v1/analyze", schemaBody("IR1 IR2"),
		map[string]string{"X-Tenant": "acme"})
	if resp.StatusCode != 500 {
		t.Fatalf("armed analyze: %d %s", resp.StatusCode, body)
	}
	id := decodeError(t, body).Incident
	if id == "" {
		t.Fatal("500 without incident id")
	}
	fault.Reset()

	resp, body = do(t, "GET", ts.URL+"/statsz", "", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("statsz: %d", resp.StatusCode)
	}
	var st struct {
		Incidents []Incident `json:"incidents"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Incidents) != 1 {
		t.Fatalf("incidents = %d, want 1", len(st.Incidents))
	}
	inc := st.Incidents[0]
	if inc.ID != id {
		t.Errorf("incident id = %q, want %q (the id from the 500 body)", inc.ID, id)
	}
	if inc.Method != "POST" || inc.Path != "/v1/analyze" || inc.Tenant != "acme" {
		t.Errorf("incident context = %s %s tenant %q, want POST /v1/analyze tenant acme", inc.Method, inc.Path, inc.Tenant)
	}
	if !strings.Contains(inc.Summary, "memo shard corrupted") {
		t.Errorf("incident summary = %q, want the panic value", inc.Summary)
	}
	if inc.Stack == "" || inc.Time.IsZero() {
		t.Errorf("incident missing stack or time: %+v", inc)
	}
	if got := s.Incidents(); len(got) != 1 || got[0].ID != id {
		t.Errorf("Incidents() = %+v, want the same record", got)
	}
}

// TestIncidentRingWraps proves the ring is bounded: after more panics than
// the capacity, /statsz retains exactly incidentRingCap records, newest
// first, with ids still unique.
func TestIncidentRingWraps(t *testing.T) {
	defer fault.Reset()
	s, ts := newTestServer(t, Config{TenantBurst: 2 * incidentRingCap}, nil)
	fault.Reset()
	const storms = incidentRingCap + 5
	fault.Activate(fault.EngineAnalyze, fault.Injection{
		Kind: fault.KindPanic, Panic: "storm", Count: storms,
	})
	var last string
	for i := 0; i < storms; i++ {
		// Unique schema per request so the memo cannot absorb the fault.
		resp, body := do(t, "POST", ts.URL+"/v1/analyze",
			schemaBody(fmt.Sprintf("W%d W%dB", i, i)), nil)
		if resp.StatusCode != 500 {
			t.Fatalf("storm %d: %d %s", i, resp.StatusCode, body)
		}
		last = decodeError(t, body).Incident
	}
	fault.Reset()
	got := s.Incidents()
	if len(got) != incidentRingCap {
		t.Fatalf("ring holds %d, want %d", len(got), incidentRingCap)
	}
	if got[0].ID != last {
		t.Errorf("newest incident = %q, want %q", got[0].ID, last)
	}
	seen := map[string]bool{}
	for _, inc := range got {
		if seen[inc.ID] {
			t.Fatalf("duplicate incident id %q after wrap", inc.ID)
		}
		seen[inc.ID] = true
	}
	assertAlive(t, ts.URL)
}
