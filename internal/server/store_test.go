package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/dynamic"
	"repro/internal/fault"
	"repro/internal/store"
)

// jsonMap decodes a response body into a generic map.
func jsonMap(t *testing.T, body []byte) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("unmarshal %q: %v", body, err)
	}
	return m
}

// addEdge posts one edge and, on 200, mirrors it into the model workspace.
// Returns the edge id and whether the edit was acknowledged.
func addEdge(t *testing.T, ts *httptest2, model *dynamic.Workspace, wsID string, nodes ...string) (int, bool) {
	t.Helper()
	b, _ := json.Marshal(map[string][]string{"nodes": nodes})
	resp, body := do(t, "POST", ts.url+"/v1/workspaces/"+wsID+"/edges", string(b), nil)
	if resp.StatusCode != http.StatusOK {
		return 0, false
	}
	id := int(jsonMap(t, body)["edge"].(float64))
	mid, err := model.AddEdge(nodes...)
	if err != nil {
		t.Fatalf("model AddEdge: %v", err)
	}
	if mid != id {
		t.Fatalf("model edge id %d, server %d", mid, id)
	}
	return id, true
}

// removeEdge deletes one edge and, on 200, mirrors it into the model.
func removeEdge(t *testing.T, ts *httptest2, model *dynamic.Workspace, wsID string, edge int) bool {
	t.Helper()
	resp, _ := do(t, "DELETE", fmt.Sprintf("%s/v1/workspaces/%s/edges/%d", ts.url, wsID, edge), "", nil)
	if resp.StatusCode != http.StatusOK {
		return false
	}
	if err := model.RemoveEdge(edge); err != nil {
		t.Fatalf("model RemoveEdge(%d): %v", edge, err)
	}
	return true
}

// httptest2 is the thin server handle the durability tests thread around.
type httptest2 struct {
	s   *Server
	url string
}

func newDurableServer(t *testing.T, cfg Config) *httptest2 {
	t.Helper()
	s, ts := newTestServer(t, cfg, nil)
	return &httptest2{s: s, url: ts.URL}
}

// assertRecovered opens the session directory cold and checks the recovered
// workspace is observationally identical to the model: epoch, canonical
// content digest, and verdict.
func assertRecovered(t *testing.T, dir string, model *dynamic.Workspace) {
	t.Helper()
	sess, ws, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatalf("recover %s: %v", dir, err)
	}
	defer sess.Close()
	if ws.Epoch() != model.Epoch() {
		t.Fatalf("recovered epoch %d, acknowledged prefix ends at %d", ws.Epoch(), model.Epoch())
	}
	if ws.ContentDigest() != model.ContentDigest() {
		t.Fatalf("recovered digest %v, model %v", ws.ContentDigest(), model.ContentDigest())
	}
	if got, want := ws.Analysis().Verdict(), model.Analysis().Verdict(); got != want {
		t.Fatalf("recovered verdict %v, model %v", got, want)
	}
}

// TestBootRecoverySessions drives a durable server over HTTP, abandons it
// without draining (crash), and boots a second server on the same data
// directory: every workspace must come back at its acknowledged state, and
// fresh workspace ids must continue past the recovered ones.
func TestBootRecoverySessions(t *testing.T) {
	dataDir := t.TempDir()
	ts1 := newDurableServer(t, Config{DataDir: dataDir})

	// ws-1: seeded with the Figure 1 schema, then edited.
	resp, body := do(t, "POST", ts1.url+"/v1/workspaces", schemaBody(fig1Text), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}
	created := jsonMap(t, body)
	if created["id"] != "ws-1" {
		t.Fatalf("first workspace id %v", created["id"])
	}
	if created["epoch"].(float64) != 4 {
		t.Fatalf("seeded epoch %v, want 4 (one per schema edge)", created["epoch"])
	}
	model := dynamic.New()
	for _, line := range strings.Split(fig1Text, "\n") {
		if _, err := model.AddEdge(strings.Fields(line)...); err != nil {
			t.Fatal(err)
		}
	}
	id, _ := addEdge(t, ts1, model, "ws-1", "F", "G")
	addEdge(t, ts1, model, "ws-1", "G", "H")
	removeEdge(t, ts1, model, "ws-1", id)

	// ws-2: empty, one edge.
	resp, body = do(t, "POST", ts1.url+"/v1/workspaces", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create ws-2: %d %s", resp.StatusCode, body)
	}
	if jsonMap(t, body)["id"] != "ws-2" {
		t.Fatalf("second workspace id %v", jsonMap(t, body)["id"])
	}
	model2 := dynamic.New()
	addEdge(t, ts1, model2, "ws-2", "X", "Y")

	resp, body = do(t, "GET", ts1.url+"/v1/workspaces/ws-1", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get ws-1: %d %s", resp.StatusCode, body)
	}
	before := jsonMap(t, body)

	// Crash: no Drain, no flush — the WAL alone must carry the state.
	ts2 := newDurableServer(t, Config{DataDir: dataDir})
	resp, body = do(t, "GET", ts2.url+"/v1/workspaces/ws-1", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recovered get ws-1: %d %s", resp.StatusCode, body)
	}
	after := jsonMap(t, body)
	for _, k := range []string{"epoch", "edges", "nodes", "components", "acyclic"} {
		if before[k] != after[k] {
			t.Errorf("ws-1 %s: %v before crash, %v after recovery", k, before[k], after[k])
		}
	}
	resp, body = do(t, "GET", ts2.url+"/v1/workspaces/ws-2", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recovered get ws-2: %d %s", resp.StatusCode, body)
	}
	if got := jsonMap(t, body)["epoch"].(float64); got != float64(model2.Epoch()) {
		t.Errorf("ws-2 epoch %v, want %d", got, model2.Epoch())
	}

	// Id continuity: the next create must not collide with a recovered dir.
	resp, body = do(t, "POST", ts2.url+"/v1/workspaces", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-recovery create: %d %s", resp.StatusCode, body)
	}
	if got := jsonMap(t, body)["id"]; got != "ws-3" {
		t.Errorf("post-recovery workspace id %v, want ws-3", got)
	}

	// The recovered session keeps journaling: edit on server 2, recover cold.
	addEdge(t, ts2, model, "ws-1", "H", "I")
	assertRecovered(t, filepath.Join(dataDir, "ws-1"), model)
}

// TestBootSkipsQuarantinedSessionIDs: a session directory that fails
// recovery stays on disk, and its id is still taken: boot over ws-1, ws-2
// and a corrupt ws-3 must create ws-4 next, not collide with ws-3's
// directory and answer 500.
func TestBootSkipsQuarantinedSessionIDs(t *testing.T) {
	dataDir := t.TempDir()
	ts1 := newDurableServer(t, Config{DataDir: dataDir})
	for i := 0; i < 3; i++ {
		if resp, body := do(t, "POST", ts1.url+"/v1/workspaces", schemaBody("A B"), nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("create: %d %s", resp.StatusCode, body)
		}
	}
	corrupt := filepath.Join(dataDir, "ws-3", store.WALFile)
	if err := os.WriteFile(corrupt, []byte("not a session log"), 0o644); err != nil {
		t.Fatal(err)
	}

	ts2 := newDurableServer(t, Config{DataDir: dataDir})
	if resp, _ := do(t, "GET", ts2.url+"/v1/workspaces/ws-3", "", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("corrupt ws-3 answered %d, want 404", resp.StatusCode)
	}
	resp, body := do(t, "POST", ts2.url+"/v1/workspaces", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create after a quarantined session: %d %s", resp.StatusCode, body)
	}
	if got := jsonMap(t, body)["id"]; got != "ws-4" {
		t.Errorf("create after a quarantined session: id %v, want ws-4", got)
	}
	if raw, err := os.ReadFile(corrupt); err != nil || string(raw) != "not a session log" {
		t.Errorf("quarantined ws-3 log changed: %q, %v", raw, err)
	}
}

// TestCrashMatrixRecovery injects every store fault kind at every store fault
// site in the middle of an edit burst, crashes the server (abandons it), and
// asserts recovery lands exactly on the acknowledged prefix: epoch, digest,
// and verdict all agree with a model workspace that mirrored only the edits
// the server answered 200 to.
func TestCrashMatrixRecovery(t *testing.T) {
	defer fault.Reset()
	cases := []struct {
		site string
		inj  fault.Injection
	}{
		{fault.StoreAppend, fault.Injection{Kind: fault.KindError, Err: errors.New("injected: disk full"), After: 7, Count: 2}},
		{fault.StoreAppend, fault.Injection{Kind: fault.KindTorn, After: 9, Count: 1}},
		{fault.StoreAppend, fault.Injection{Kind: fault.KindPanic, Panic: "injected: append", After: 7, Count: 1}},
		{fault.StoreSnapshot, fault.Injection{Kind: fault.KindError, Err: errors.New("injected: snapshot io"), Count: 1}},
		{fault.StoreSnapshot, fault.Injection{Kind: fault.KindTorn, Count: 1}},
		{fault.StoreSnapshot, fault.Injection{Kind: fault.KindPanic, Panic: "injected: snapshot", Count: 1}},
	}
	for i, tc := range cases {
		name := fmt.Sprintf("%s_%d", strings.ReplaceAll(tc.site, ".", "_"), i)
		t.Run(name, func(t *testing.T) {
			fault.Reset()
			dataDir := t.TempDir()
			// A low snapshot threshold makes the burst cross compaction
			// mid-flight, so store.snapshot faults actually fire.
			ts := newDurableServer(t, Config{DataDir: dataDir, SnapshotEvery: 5})
			resp, body := do(t, "POST", ts.url+"/v1/workspaces", "", nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("create: %d %s", resp.StatusCode, body)
			}
			model := dynamic.New()

			fault.Activate(tc.site, tc.inj)
			acked, failed := 0, 0
			var live []int
			for e := 0; e < 24; e++ {
				if e%6 == 5 && len(live) > 0 {
					if removeEdge(t, ts, model, "ws-1", live[0]) {
						live = live[1:]
						acked++
					} else {
						failed++
					}
					continue
				}
				id, ok := addEdge(t, ts, model, "ws-1", fmt.Sprintf("n%d", e), fmt.Sprintf("n%d", e+1))
				if ok {
					live = append(live, id)
					acked++
				} else {
					failed++
				}
			}
			if tc.site == fault.StoreAppend && failed == 0 {
				t.Fatalf("append fault never surfaced (%d acked)", acked)
			}
			// Snapshots are cut by background compaction, which may still
			// be on its way to the site: wait for it rather than race it.
			// FlushSessions would compact too, and the fault could fire
			// there instead.
			for deadline := time.Now().Add(5 * time.Second); fault.Hits(tc.site) == 0 && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			if fault.Hits(tc.site) == 0 {
				t.Fatalf("fault at %s never fired", tc.site)
			}
			if acked == 0 {
				t.Fatal("no edit acknowledged; burst tells us nothing")
			}
			// Let any in-flight background compaction finish or die before
			// the "crash" so the test isn't racing its own file reads.
			ts.s.FlushSessions()

			fault.Reset()
			assertRecovered(t, filepath.Join(dataDir, "ws-1"), model)
		})
	}
}

// TestDrainFlushesSessions checks the shutdown path: Drain compacts every
// dirty session into a snapshot (reporting per-session outcomes), the
// snapshot alone carries the state, and a second Drain is a no-op.
func TestDrainFlushesSessions(t *testing.T) {
	dataDir := t.TempDir()
	ts := newDurableServer(t, Config{DataDir: dataDir, SnapshotEvery: -1})
	do(t, "POST", ts.url+"/v1/workspaces", "", nil)
	model := dynamic.New()
	for e := 0; e < 8; e++ {
		addEdge(t, ts, model, "ws-1", fmt.Sprintf("a%d", e), fmt.Sprintf("a%d", e+1))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := ts.s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	dir := filepath.Join(dataDir, "ws-1")
	if _, err := os.Stat(filepath.Join(dir, store.SnapshotFile)); err != nil {
		t.Fatalf("drain cut no snapshot: %v", err)
	}
	info, err := store.Verify(dir)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if info.SnapshotEpoch != model.Epoch() || info.TailRecords != 0 {
		t.Errorf("flush left snapshotEpoch=%d tail=%d, want snapshotEpoch=%d tail=0",
			info.SnapshotEpoch, info.TailRecords, model.Epoch())
	}
	assertRecovered(t, dir, model)
	// Idempotent: everything is already clean and closed.
	if out := ts.s.FlushSessions(); len(out) != 1 || out[0].Error != "" {
		t.Errorf("second flush: %+v", out)
	}
}

// TestDrainDuringInFlightCompaction races the shutdown flush against a slowed
// background compaction: the two serialize on the store's compaction lock and
// no acknowledged edit may be lost.
func TestDrainDuringInFlightCompaction(t *testing.T) {
	defer fault.Reset()
	fault.Reset()
	dataDir := t.TempDir()
	ts := newDurableServer(t, Config{DataDir: dataDir, SnapshotEvery: 4})
	do(t, "POST", ts.url+"/v1/workspaces", "", nil)
	model := dynamic.New()

	// Slow every snapshot cut so the threshold-triggered background
	// compaction is still in flight when Drain's flush arrives.
	fault.Activate(fault.StoreSnapshot, fault.Injection{Kind: fault.KindDelay, Delay: 150 * time.Millisecond})
	for e := 0; e < 10; e++ {
		if _, ok := addEdge(t, ts, model, "ws-1", fmt.Sprintf("b%d", e), fmt.Sprintf("b%d", e+1)); !ok {
			t.Fatalf("edit %d not acknowledged", e)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := ts.s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	fault.Reset()
	assertRecovered(t, filepath.Join(dataDir, "ws-1"), model)
}

// TestDrainReportsFlushFailure: a fault at store.snapshot during the final
// flush must surface in the outcome (and Drain's error), never crash the
// process, and never corrupt what was already durable.
func TestDrainReportsFlushFailure(t *testing.T) {
	defer fault.Reset()
	fault.Reset()
	dataDir := t.TempDir()
	ts := newDurableServer(t, Config{DataDir: dataDir, SnapshotEvery: -1})
	do(t, "POST", ts.url+"/v1/workspaces", "", nil)
	model := dynamic.New()
	addEdge(t, ts, model, "ws-1", "p", "q")

	fault.Activate(fault.StoreSnapshot, fault.Injection{Kind: fault.KindPanic, Panic: "injected: flush"})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	err := ts.s.Drain(ctx)
	if err == nil || !strings.Contains(err.Error(), "injected") {
		t.Fatalf("drain error %v, want the injected flush failure", err)
	}
	fault.Reset()
	// The snapshot never landed, but the WAL did at append time.
	assertRecovered(t, filepath.Join(dataDir, "ws-1"), model)
}

// TestWatchLongPoll exercises the epoch watch endpoint: an already-stale
// cursor answers immediately, a current cursor parks until the deadline
// (200 {"changed":false}) and an edit wakes a parked watcher.
func TestWatchLongPoll(t *testing.T) {
	ts := newDurableServer(t, Config{})
	do(t, "POST", ts.url+"/v1/workspaces", schemaBody("A B"), nil)

	// Cursor behind the current epoch: immediate wake.
	resp, body := do(t, "GET", ts.url+"/v1/workspaces/ws-1/watch?after=0", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("watch: %d %s", resp.StatusCode, body)
	}
	m := jsonMap(t, body)
	if m["changed"] != true || m["epoch"].(float64) != 1 {
		t.Fatalf("stale cursor: %v", m)
	}

	// Current cursor, nothing happens: the deadline answers changed=false.
	start := time.Now()
	resp, body = do(t, "GET", ts.url+"/v1/workspaces/ws-1/watch", "", map[string]string{"X-Deadline-Ms": "80"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("idle watch: %d %s", resp.StatusCode, body)
	}
	if m := jsonMap(t, body); m["changed"] != false {
		t.Fatalf("idle watch: %v", m)
	}
	if time.Since(start) < 60*time.Millisecond {
		t.Fatal("idle watch returned before its deadline")
	}

	// Parked watcher, concurrent edit: woken with the new epoch.
	type watchResult struct {
		m   map[string]any
		dur time.Duration
	}
	ch := make(chan watchResult, 1)
	go func() {
		s := time.Now()
		_, b := do(t, "GET", ts.url+"/v1/workspaces/ws-1/watch?after=1", "", map[string]string{"X-Deadline-Ms": "3000"})
		ch <- watchResult{jsonMap(t, b), time.Since(s)}
	}()
	time.Sleep(50 * time.Millisecond)
	b, _ := json.Marshal(map[string][]string{"nodes": {"B", "C"}})
	do(t, "POST", ts.url+"/v1/workspaces/ws-1/edges", string(b), nil)
	r := <-ch
	if r.m["changed"] != true || r.m["epoch"].(float64) != 2 {
		t.Fatalf("woken watch: %v", r.m)
	}
	if r.dur >= 2*time.Second {
		t.Fatalf("watch took %v; it timed out instead of waking", r.dur)
	}

	// Bad cursor: typed 400.
	resp, body = do(t, "GET", ts.url+"/v1/workspaces/ws-1/watch?after=banana", "", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad cursor: %d %s", resp.StatusCode, body)
	}
}

// TestCachedRepliesMatchEncoder: the jointree, fullreducer and
// classification replies, written from the session's memo on a miss and on
// a hit, are byte for byte what json.Encoder writes for the body they stand
// for, and the memoized bytes are what json.Marshal makes of it. The jointree
// body is appended by hand from the handle's parent links; its reference
// is the map built from the session's JoinTree, on an empty workspace, one
// edge, one tree and a multi-root forest. On a cyclic workspace the
// jointree reply is the 422 error body the JoinTree error classifies to.
func TestCachedRepliesMatchEncoder(t *testing.T) {
	s, ts := newTestServer(t, Config{}, nil)
	query := func(id, op string) (int, []byte) {
		t.Helper()
		b, _ := json.Marshal(map[string]string{"op": op})
		resp, body := do(t, "POST", ts.URL+"/v1/workspaces/"+id+"/query", string(b), nil)
		return resp.StatusCode, body
	}
	check := func(id, op string) {
		t.Helper()
		status, miss := query(id, op)
		_, hit := query(id, op)
		rec := s.spaces[id]
		a, err := rec.ws.AnalysisCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		var res any
		if op == "jointree" {
			jt, err := a.JoinTree()
			if err != nil {
				t.Fatal(err)
			}
			res = map[string]any{"epoch": a.Epoch(), "parent": jt.Parent, "roots": jt.Roots()}
		} else if res, err = s.queryBody(httptest.NewRequest("POST", "/", nil), a, op); err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(res); err != nil {
			t.Fatal(err)
		}
		if status != http.StatusOK || !bytes.Equal(miss, want.Bytes()) || !bytes.Equal(hit, want.Bytes()) {
			t.Fatalf("%s %s: [%d] miss %q, hit %q, encoder %q", id, op, status, miss, hit, want.Bytes())
		}
		cached := rec.memo(a.Epoch(), slices.Index(memoOps[:], op))
		if marshalled, _ := json.Marshal(res); cached == nil || !bytes.Equal(cached, marshalled) {
			t.Fatalf("%s %s: memoized %q, json.Marshal %q", id, op, cached, marshalled)
		}
	}

	for _, schema := range []string{fig1Text, "", "A B", "A B\nC D E\nE F\nG"} {
		do(t, "POST", ts.URL+"/v1/workspaces", schemaBody(schema), nil)
	}
	for _, op := range []string{"jointree", "fullreducer", "classification"} {
		check("ws-1", op)
	}
	for _, id := range []string{"ws-2", "ws-3", "ws-4"} {
		check(id, "jointree")
	}

	do(t, "POST", ts.URL+"/v1/workspaces", schemaBody(triangleText), nil)
	a, err := s.spaces["ws-5"].ws.AnalysisCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	_, jtErr := a.JoinTree()
	wantStatus, eb, ok := classify(jtErr)
	if !ok || wantStatus != http.StatusUnprocessableEntity {
		t.Fatalf("cyclic JoinTree error %v classifies to %d (%v)", jtErr, wantStatus, ok)
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(errorResponse{Error: eb}); err != nil {
		t.Fatal(err)
	}
	if status, body := query("ws-5", "jointree"); status != wantStatus || !bytes.Equal(body, want.Bytes()) {
		t.Fatalf("cyclic jointree: [%d] %q, want [%d] %q", status, body, wantStatus, want.Bytes())
	}
}

// TestRespCacheEpochKeyed: identical queries at one epoch hit the session's
// memo and serve byte-identical bodies; an edit moves the epoch and misses;
// after it the session holds only the new epoch's bodies, and a body built
// on an older handle cannot replace them; the counters are on /metricsz.
func TestRespCacheEpochKeyed(t *testing.T) {
	ts := newDurableServer(t, Config{})
	do(t, "POST", ts.url+"/v1/workspaces", schemaBody(fig1Text), nil)
	query := func(op string) []byte {
		b, _ := json.Marshal(map[string]string{"op": op})
		resp, body := do(t, "POST", ts.url+"/v1/workspaces/ws-1/query", string(b), nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %s: %d %s", op, resp.StatusCode, body)
		}
		return body
	}

	query("classification") // an epoch-4 body the edit below must retire
	hits0, misses0 := respCacheHits.Value(), respCacheMisses.Value()
	first := query("jointree")
	if got := respCacheMisses.Value() - misses0; got != 1 {
		t.Fatalf("first query: %d misses, want 1", got)
	}
	second := query("jointree")
	if got := respCacheHits.Value() - hits0; got != 1 {
		t.Fatalf("second query: %d hits, want 1", got)
	}
	if string(first) != string(second) {
		t.Fatalf("cache hit served a different body:\n%s\n%s", first, second)
	}

	// An edit bumps the epoch: same op misses (fresh key), and the body
	// reports the new epoch.
	b, _ := json.Marshal(map[string][]string{"nodes": {"F", "G"}})
	do(t, "POST", ts.url+"/v1/workspaces/ws-1/edges", string(b), nil)
	third := query("jointree")
	if m := jsonMap(t, third); m["epoch"].(float64) != 5 {
		t.Fatalf("post-edit cached body has epoch %v, want 5", m["epoch"])
	}
	if got := respCacheMisses.Value() - misses0; got != 2 {
		t.Fatalf("post-edit query: %d misses total, want 2", got)
	}

	// Only the new epoch's bodies are held: the pre-edit jointree and
	// classification bodies are gone, the post-edit ones are the replies
	// just served.
	want := [len(memoOps)][]byte{third, query("fullreducer"), nil}
	rec := ts.s.spaces["ws-1"]
	rec.mu.Lock()
	epoch, bodies := rec.epoch, rec.bodies
	rec.mu.Unlock()
	if epoch != 5 {
		t.Fatalf("session memo at epoch %d, want 5", epoch)
	}
	for i, op := range memoOps {
		if w := bytes.TrimSuffix(want[i], newline); !bytes.Equal(bodies[i], w) {
			t.Fatalf("memoized %s at epoch 5: %q, want %q", op, bodies[i], w)
		}
	}

	// A body built on an older handle never replaces the newer epoch's.
	rec.remember(4, 0, first)
	if got := rec.memo(5, 0); !bytes.Equal(got, bodies[0]) {
		t.Fatalf("epoch-4 body replaced epoch 5's: %q", got)
	}
	if got := rec.memo(4, 0); got != nil {
		t.Fatalf("epoch-4 lookup answered %q after epoch 5 was memoized", got)
	}

	// verdict is deliberately uncacheable: counters must not move.
	h, ms := respCacheHits.Value(), respCacheMisses.Value()
	query("verdict")
	if respCacheHits.Value() != h || respCacheMisses.Value() != ms {
		t.Fatal("verdict consulted the session's memo")
	}

	resp, metrics := do(t, "GET", ts.url+"/metricsz", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metricsz: %d", resp.StatusCode)
	}
	for _, name := range []string{"server_respcache_hits_total", "server_respcache_misses_total"} {
		if !strings.Contains(string(metrics), name) {
			t.Errorf("/metricsz missing %s", name)
		}
	}
}
