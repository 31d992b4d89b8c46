package server

import (
	"bytes"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/gen"
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
