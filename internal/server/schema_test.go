package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/hypergraph"
	"repro/internal/obs"
)

// schemaEndpoints answer from the engine's text plane on a repeat.
var schemaEndpoints = []string{"/v1/analyze", "/v1/jointree", "/v1/classify"}

// bigSchemaText is a schema-mix-sized acyclic schema: about 500 edges.
func bigSchemaText() string {
	rng := rand.New(rand.NewSource(1))
	return gen.RandomAcyclic(rng, gen.RandomSpec{Edges: 497, MinArity: 3, MaxArity: 5}).Format()
}

// TestSchemaHitByteIdentical: on every schema endpoint a fresh request (a
// parse) and its hot repeat (a text-plane hit) answer byte-identical
// bodies, error bodies included, as does a respelling of the schema (a
// parse that hits the fingerprint memo). A malformed schema answers the
// same 400 "parse" body each time and is never cached.
func TestSchemaHitByteIdentical(t *testing.T) {
	schemas := []string{fig1Text, triangleText, "# Fig. 1\r\nR1: A,B,C\r\nR2: C D E\r\nA E F\r\n A C E \r\n", bigSchemaText()}
	for _, path := range schemaEndpoints {
		s, ts := newTestServer(t, Config{}, nil)
		for _, schema := range schemas {
			respell := strings.ReplaceAll(schema, " ", "  ") + "\n# respelled\n"
			var first []byte
			status := 0
			for i, text := range []string{schema, schema, respell, respell} {
				resp, body := do(t, "POST", ts.URL+path, schemaBody(text), nil)
				if i == 0 {
					first, status = body, resp.StatusCode
				} else if resp.StatusCode != status || !bytes.Equal(body, first) {
					t.Fatalf("%s request %d answered %d\n%s\nthe fresh request answered %d\n%s", path, i, resp.StatusCode, body, status, first)
				}
			}
			// Only /v1/jointree refuses the cyclic triangle (422 "cyclic").
			if status != 200 && !(path == "/v1/jointree" && schema == triangleText && status == 422) {
				t.Fatalf("%s %q: %d %s", path, schema, status, first)
			}
		}
		before := s.eng.Stats()
		var first []byte
		for i := 0; i < 2; i++ {
			resp, body := do(t, "POST", ts.URL+path, schemaBody("A B\n  : C D\n"), nil)
			if e := decodeError(t, body); resp.StatusCode != 400 || e.Code != CodeParse || e.Line != 2 || e.Col != 3 {
				t.Fatalf("%s malformed schema: %d %s", path, resp.StatusCode, body)
			}
			if i == 1 && !bytes.Equal(body, first) {
				t.Fatalf("%s repeated malformed schema answered\n%s\nthen\n%s", path, first, body)
			}
			first = body
		}
		if after := s.eng.Stats(); after != before {
			t.Fatalf("%s: a malformed schema changed the memo: %+v -> %+v", path, before, after)
		}
	}
}

// TestTracezSchemaHitSkipsParse: a fresh /v1/jointree trace holds exactly
// one hypergraph.parse span, under engine.memo with parsed=1; a hot repeat
// holds none, and its engine.memo reports hit=1, parsed=0.
func TestTracezSchemaHitSkipsParse(t *testing.T) {
	t.Cleanup(obs.Disable)
	_, ts := newTestServer(t, Config{Trace: true, SlowTraceThreshold: -1}, nil)
	for i := 0; i < 2; i++ {
		if resp, body := do(t, "POST", ts.URL+"/v1/jointree", schemaBody(fig1Text), nil); resp.StatusCode != 200 {
			t.Fatalf("jointree: %d %s", resp.StatusCode, body)
		}
	}
	seen := map[int64]bool{} // by the engine.memo hit attribute
	for _, tr := range getTracez(t, ts.URL).Traces {
		if tr.Root == nil || tr.Root.Attrs["path"] != "/v1/jointree" {
			continue
		}
		var memo []*spanNode
		parses := 0
		walk(tr.Root, func(n *spanNode) {
			switch n.Name {
			case "engine.memo":
				memo = append(memo, n)
			case "hypergraph.parse":
				parses++
			}
		})
		if len(memo) != 1 {
			t.Fatalf("trace has %d engine.memo spans, want 1", len(memo))
		}
		hit, parsed := attrInt(t, memo[0], "hit"), attrInt(t, memo[0], "parsed")
		underMemo := 0
		for _, c := range memo[0].Children {
			if c.Name == "hypergraph.parse" {
				underMemo++
			}
		}
		switch {
		case hit == 0 && (parsed != 1 || parses != 1 || underMemo != 1):
			t.Fatalf("fresh trace: parsed=%d, %d hypergraph.parse spans (%d under engine.memo), want 1, 1, 1", parsed, parses, underMemo)
		case hit == 1 && (parsed != 0 || parses != 0):
			t.Fatalf("hot trace: parsed=%d, %d hypergraph.parse spans, want 0, 0", parsed, parses)
		}
		seen[hit] = true
	}
	if !seen[0] || !seen[1] {
		t.Fatalf("want one fresh and one hot /v1/jointree trace, saw hit values %v", seen)
	}
}

// BenchmarkSchemaHit is one hot /v1/jointree request on a schema-mix-sized
// schema through Handler(): the text-plane hit, the facets already
// memoized, so it times the request envelope plus the memo probe.
func BenchmarkSchemaHit(b *testing.B) {
	s := New(Config{TenantRate: 1e9, TenantBurst: 1 << 30}, nil)
	h := s.Handler()
	body := schemaBody(bigSchemaText())
	serve := func() {
		req := httptest.NewRequest("POST", "/v1/jointree", strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("jointree: %d %s", rec.Code, rec.Body)
		}
	}
	serve() // the miss: parse and compute the facets
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
}

// schemaBodySeeds are {"schema"} bodies on the edges of the fast shape,
// each marked with whether scanSchema takes it: every escape the scan
// decodes, \u escapes and non-ASCII bytes it leaves to json.Unmarshal,
// trailing bytes it ignores as json.Decoder does, and the envelopes it
// leaves to encoding/json.
var schemaBodySeeds = []struct {
	body string
	fast bool
}{
	{`{"schema":"A B C\nC D E\nA E F\nA C E"}`, true},
	{` { "schema" : "R1: A,B\r\n\tB C" } `, true},
	{`{"schema":"q\"u\\o\/t\be\ff"}`, true},
	{`{"schema":"A é B C\ud800"}`, true},
	{"{\"schema\":\"A \xc3\xa9 \xff B\"}", true},
	{`{"schema":"A B"} trailing`, true},
	{`{"schema":"A B"}{"schema":"C D"}`, true},
	{`{"schema":""}`, true},
	{`{"schema":"A B","schema":"C D"}`, false},
	{`{"Schema":"A B"}`, false},
	{`{"schema":null}`, false},
	{`{"schema":"A B","extra":1}`, false},
	{`{"schema":12}`, false},
	{"{\"schema\":\"A\x01B\"}", false},
	{`{"schema":"A B\x"}`, false},
	{`{"schema":"A B\`, false},
	{`{}`, false},
	{``, false},
	{`[]`, false},
}

// TestScanSchemaShape pins which bodies take the one-pass scan, among them
// the schema-mix shape: a schema-sized text with \n escapes.
func TestScanSchemaShape(t *testing.T) {
	for _, c := range append(schemaBodySeeds, struct {
		body string
		fast bool
	}{schemaBody(bigSchemaText()), true}) {
		if _, ok := scanSchema([]byte(c.body)); ok != c.fast {
			t.Errorf("scanSchema(%.40q) ok %v, want %v", c.body, ok, c.fast)
		}
	}
	if got, _ := scanSchema([]byte(schemaBodySeeds[2].body)); got != "q\"u\\o/t\be\ff" {
		t.Errorf("escapes decode to %q", got)
	}
}

// FuzzSchemaBody: whenever scanSchema accepts a body, encoding/json
// decodes the same schema from it; and decodeSchema answers every body as
// decode, the path before the scan, does under a 4 KiB cap: the same
// classified status and code, or the same schema.
func FuzzSchemaBody(f *testing.F) {
	for _, c := range schemaBodySeeds {
		f.Add(c.body)
	}
	const maxBody = 4096
	f.Fuzz(func(t *testing.T, body string) {
		if schema, ok := scanSchema([]byte(body)); ok {
			var req schemaRequest
			if err := json.NewDecoder(strings.NewReader(body)).Decode(&req); err != nil || req.Schema != schema {
				t.Fatalf("scanSchema read %q, encoding/json %q (%v)", schema, req.Schema, err)
			}
		}
		req := func() *http.Request {
			r := httptest.NewRequest("POST", "/v1/analyze", strings.NewReader(body))
			r.Body = http.MaxBytesReader(nil, r.Body, maxBody)
			return r
		}
		schema, err := decodeSchema(req(), maxBody)
		var want schemaRequest
		wantErr := decode(req(), &want)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("decodeSchema err %v, decode err %v", err, wantErr)
		}
		if err != nil {
			status, eb, _ := classify(err)
			wantStatus, wantEB, _ := classify(wantErr)
			if status != wantStatus || eb.Code != wantEB.Code {
				t.Fatalf("decodeSchema answers %d %q (%v), decode %d %q (%v)", status, eb.Code, err, wantStatus, wantEB.Code, wantErr)
			}
			return
		}
		if schema != want.Schema {
			t.Fatalf("decodeSchema read %q, decode %q", schema, want.Schema)
		}
	})
}

// TestTracezParseSpans: every server parse and decode is spanned. A fresh
// /v1/analyze has one server.decode span and one hypergraph.parse span
// carrying bytes, edges and nodes; so do /v1/eval (its parse under no
// engine.memo) and a seeded workspace create.
func TestTracezParseSpans(t *testing.T) {
	t.Cleanup(obs.Disable)
	_, ts := newTestServer(t, Config{Trace: true, SlowTraceThreshold: -1}, nil)
	for _, c := range []struct{ path, body string }{
		{"/v1/analyze", schemaBody(fig1Text)},
		{"/v1/eval", plainBody},
		{"/v1/workspaces", schemaBody(fig1Text)},
	} {
		if resp, body := do(t, "POST", ts.URL+c.path, c.body, nil); resp.StatusCode != 200 {
			t.Fatalf("%s: %d %s", c.path, resp.StatusCode, body)
		}
	}
	want := map[string][3]int64{ // bytes, edges, nodes of the parsed schema
		"/v1/analyze":    {int64(len(fig1Text)), 4, 6},
		"/v1/eval":       {int64(len("A B\nB C")), 2, 3},
		"/v1/workspaces": {int64(len(fig1Text)), 4, 6},
	}
	seen := 0
	for _, tr := range getTracez(t, ts.URL).Traces {
		if tr.Root == nil {
			continue
		}
		path, _ := tr.Root.Attrs["path"].(string)
		w, ok := want[path]
		if !ok {
			continue
		}
		seen++
		var decodes int
		var parses []*spanNode
		walk(tr.Root, func(n *spanNode) {
			switch n.Name {
			case "server.decode":
				decodes++
			case "hypergraph.parse":
				parses = append(parses, n)
			}
		})
		if decodes != 1 || len(parses) != 1 {
			t.Fatalf("%s: %d server.decode and %d hypergraph.parse spans, want 1 and 1", path, decodes, len(parses))
		}
		got := [3]int64{attrInt(t, parses[0], "bytes"), attrInt(t, parses[0], "edges"), attrInt(t, parses[0], "nodes")}
		if got != w {
			t.Fatalf("%s: hypergraph.parse bytes, edges, nodes = %v, want %v", path, got, w)
		}
	}
	if seen != len(want) {
		t.Fatalf("saw %d of the %d traces", seen, len(want))
	}
}

// TestTracezLoadSpan: the exec.load span of /v1/eval carries the load's
// size, on the one-pass scan and on the encoding/json fallback alike: the
// body's bytes, the rows sent (a repeat, a null cell and a bracket inside
// a string included), the distinct rows kept, and the values interned.
func TestTracezLoadSpan(t *testing.T) {
	t.Cleanup(obs.Disable)
	_, ts := newTestServer(t, Config{Trace: true, SlowTraceThreshold: -1}, nil)
	fast := rowsBody("A B\nB C",
		`{"attrs":["A","B"],"rows":[["a1","b1"],["a1","b1"],["a[\"2","b2"]]}`,
		`{"attrs":["B","C"],"rows":[["b1",null],["b2","c2"]]}`)
	slow := `{"x":0,` + fast[1:] // an unknown key takes the fallback
	if _, _, ok := scanEval([]byte(slow), nil); ok {
		t.Fatal("the fallback body takes the scan")
	}
	want := map[int64][4]int64{} // by bytes: bytes, rows, distinct, values
	for _, body := range []string{fast, slow} {
		if resp, reply := do(t, "POST", ts.URL+"/v1/eval", body, nil); resp.StatusCode != 200 {
			t.Fatalf("%s: %d %s", body, resp.StatusCode, reply)
		}
		want[int64(len(body))] = [4]int64{int64(len(body)), 5, 4, 6}
	}
	for _, tr := range getTracez(t, ts.URL).Traces {
		walk(tr.Root, func(n *spanNode) {
			if n.Name != "exec.load" {
				return
			}
			got := [4]int64{attrInt(t, n, "bytes"), attrInt(t, n, "rows"), attrInt(t, n, "distinct"), attrInt(t, n, "values")}
			w, ok := want[got[0]]
			if !ok {
				t.Fatalf("exec.load bytes %d, want one of %v", got[0], want)
			}
			if got != w {
				t.Fatalf("exec.load bytes, rows, distinct, values = %v, want %v", got, w)
			}
			delete(want, got[0])
		})
	}
	if len(want) != 0 {
		t.Fatalf("no exec.load span for the bodies of %v bytes", want)
	}
}

// relabel prefixes every node name of a schema in the text format, so the
// result has the same shape but a text and fingerprint the memo has never
// seen.
func relabel(edges [][]string, prefix string) string {
	var b strings.Builder
	for i, e := range edges {
		if i > 0 {
			b.WriteByte('\n')
		}
		for j, n := range e {
			if j > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(prefix)
			b.WriteString(n)
		}
	}
	return b.String()
}

// BenchmarkSchemaMiss is one /v1/analyze request through Handler() on a
// schema-mix-sized schema the memo has never seen: a fresh relabelling
// every iteration, so it times the body read and scan, the parse, the
// memo insert and the MCS verdict. The server is replaced every 256
// iterations so the memo it fills stays small.
func BenchmarkSchemaMiss(b *testing.B) {
	edges := hypergraph.MustParse(bigSchemaText()).EdgeLists()
	var h http.Handler
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if i%256 == 0 {
			h = New(Config{TenantRate: 1e9, TenantBurst: 1 << 30}, nil).Handler()
		}
		req := httptest.NewRequest("POST", "/v1/analyze", strings.NewReader(schemaBody(relabel(edges, fmt.Sprintf("m%d_", i)))))
		rec := httptest.NewRecorder()
		b.StartTimer()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("analyze: %d %s", rec.Code, rec.Body)
		}
	}
}

// TestEngineMemoBounded: a stream of more distinct schemas than the
// server's memo bound through /v1/analyze keeps the resident entries at or
// under the bound — and with them the text plane, whose every key is a
// resident entry's — while a schema sent between every distinct one keeps
// answering from the text plane, and the first distinct schema, evicted
// long since, is parsed again.
func TestEngineMemoBounded(t *testing.T) {
	s := New(Config{TenantRate: 1e9, TenantBurst: 1 << 30}, nil)
	h := s.Handler()
	analyze := func(schema string) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/analyze", strings.NewReader(schemaBody(schema))))
		if rec.Code != http.StatusOK {
			t.Fatalf("analyze %q: %d %s", schema, rec.Code, rec.Body)
		}
	}
	distinct := func(i int) string { return fmt.Sprintf("A B\nB C%d", i) }
	const hot = "H1 H2\nH2 H3"
	analyze(hot)
	for i := 0; i < memoEntries+memoEntries/4; i++ {
		analyze(distinct(i))
		before := s.eng.Stats()
		analyze(hot)
		if st := s.eng.Stats(); st.Hits != before.Hits+1 || st.Misses != before.Misses {
			t.Fatalf("after %d distinct schemas the hot schema missed: %+v -> %+v", i+1, before, st)
		}
	}
	st := s.eng.Stats()
	if st.Entries > memoEntries || st.Evictions == 0 {
		t.Fatalf("memo holds %d entries after %d evictions, bound %d", st.Entries, st.Evictions, memoEntries)
	}
	analyze(distinct(0))
	if again := s.eng.Stats(); again.Misses != st.Misses+1 {
		t.Fatalf("an evicted schema answered from the memo: %+v -> %+v", st, again)
	}
}
