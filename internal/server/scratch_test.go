package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
)

// The request scratch (scratch, scratchPool): every admitted request reads
// its body into a pooled buffer and loads an eval's tables into a pooled,
// reset Dict. These tests pin that a pooled request answers byte for byte
// what a fresh server answers, and that the pool stays bounded.

// poolCase is one request of the pool differential.
type poolCase struct {
	name, path, body string
	deadlineMs       int // X-Deadline-Ms; 0 sends none
}

// serveOnce answers one request through h.
func serveOnce(h http.Handler, c poolCase) (int, []byte) {
	req := httptest.NewRequest("POST", c.path, strings.NewReader(c.body))
	if c.deadlineMs > 0 {
		req.Header.Set("X-Deadline-Ms", strconv.Itoa(c.deadlineMs))
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// poolConfig is the config of every server the pool tests start: no
// quota, and a deadline no slow race run meets by accident.
var poolConfig = Config{TenantRate: 1e9, TenantBurst: 1 << 30, DefaultTimeout: time.Minute, MaxTimeout: time.Minute}

// joinHeavyBody is an eval body whose join phase dominates its load: R0
// = A×B and R1 = B×C over n values each, queried on {A, C}, so the join
// matches n³ pairs into n² distinct rows, deduplicated in a bitmap.
func joinHeavyBody(n int) string {
	var b strings.Builder
	b.WriteString(`{"schema":"R0: A B\nR1: B C","attrs":["A","C"],"tables":[`)
	for t, cols := range [][2]string{{"a", "b"}, {"b", "c"}} {
		if t > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"attrs":["%s","%s"],"rows":[`, strings.ToUpper(cols[0]), strings.ToUpper(cols[1]))
		for i := range n {
			for k := range n {
				if i+k > 0 {
					b.WriteByte(',')
				}
				fmt.Fprintf(&b, `["%s%d","%s%d"]`, cols[0], i, cols[1], k)
			}
		}
		b.WriteString("]}")
	}
	b.WriteString("]}")
	return b.String()
}

// midJoinDeadline returns an X-Deadline-Ms for body that expires, on this
// host, after the load and the reduction and before the join phase ends:
// halfway between an eval of body that joins nothing (its query is one
// object's attribute) and the full one.
func midJoinDeadline(t *testing.T, body string) int {
	t.Helper()
	h := New(poolConfig, nil).Handler()
	loadOnly := strings.Replace(body, `"attrs":["A","C"]`, `"attrs":["A"]`, 1)
	best := func(body string) time.Duration {
		var d time.Duration
		for i := range 3 {
			start := time.Now()
			if code, reply := serveOnce(h, poolCase{path: "/v1/eval", body: body}); code != 200 {
				t.Fatalf("eval: %d %s", code, reply)
			}
			if e := time.Since(start); i == 0 || e < d {
				d = e
			}
		}
		return d
	}
	load, full := best(loadOnly), best(body)
	t.Logf("load-only eval %v, full eval %v", load, full)
	return max(1, int((load+full)/2/time.Millisecond))
}

// TestPooledEvalMatchesFresh drives interleaved requests of every kind that
// reads a body through one server, so each request reuses a scratch an
// earlier, different request left behind: evals over dictionaries of
// different sizes, short and long values and escapes, /v1/reduce, a
// schema endpoint, a body that takes the encoding/json fallback, a 413
// over the body cap, a 400 on rows of the wrong width, and an eval whose
// deadline expires in its join phase. Every reply but the deadline's is
// byte-identical to a fresh server's; the deadline's is a 408, or, on a
// host too slow to time it, the fresh server's reply.
func TestPooledEvalMatchesFresh(t *testing.T) {
	heavy := joinHeavyBody(100)
	var long strings.Builder
	long.WriteString(`{"schema":"R0: A B\nR1: B C","attrs":["A","C"],"tables":[{"attrs":["A","B"],"rows":[`)
	for i := range 300 {
		if i > 0 {
			long.WriteByte(',')
		}
		fmt.Fprintf(&long, `["long-value-a%d","b\"%d"],["é%d","b\"%d"]`, i%37, i%11, i%5, i%13)
	}
	long.WriteString(`]},{"attrs":["C","B"],"rows":[`)
	for i := range 200 {
		if i > 0 {
			long.WriteByte(',')
		}
		fmt.Fprintf(&long, `["c\\%d","b\"%d"]`, i%23, i%17)
	}
	long.WriteString(`]}]}`)
	cases := []poolCase{
		{name: "eval 2000", path: "/v1/eval", body: string(evalJoinBody(2000))},
		{name: "eval 50", path: "/v1/eval", body: string(evalJoinBody(50))},
		{name: "join deadline", path: "/v1/eval", body: heavy, deadlineMs: midJoinDeadline(t, heavy)},
		{name: "eval long values", path: "/v1/eval", body: long.String()},
		{name: "reduce", path: "/v1/reduce", body: string(evalJoinBody(300))},
		{name: "analyze", path: "/v1/analyze", body: `{"schema":"A B C\nC D E\nA E F\nA C E"}`},
		{name: "fallback", path: "/v1/eval", body: `{"x":0,` + string(evalJoinBody(400))[1:]},
		{name: "body cap", path: "/v1/eval", body: `{"schema":"R0: A","attrs":["A"],"tables":[{"attrs":["A"],"rows":[["` + strings.Repeat("x", 1<<20) + `"]]}]}`},
		{name: "row width", path: "/v1/eval", body: `{"schema":"R0: A B","attrs":["A"],"tables":[{"attrs":["A","B"],"rows":[["a1","b1"],["a2"]]}]}`},
		{name: "eval 700", path: "/v1/eval", body: string(evalJoinBody(700))},
	}
	wantCode := map[string]int{"body cap": 413, "row width": 400}
	type reply struct {
		code int
		body []byte
	}
	fresh := make([]reply, len(cases))
	for i, c := range cases {
		c.deadlineMs = 0
		fresh[i].code, fresh[i].body = serveOnce(New(poolConfig, nil).Handler(), c)
		if want := wantCode[c.name]; want == 0 && fresh[i].code != 200 || want != 0 && fresh[i].code != want {
			t.Fatalf("%s: a fresh server answers %d %.200s", c.name, fresh[i].code, fresh[i].body)
		}
	}

	s := New(poolConfig, nil)
	h := s.Handler()
	deadlines := 0
	for round := range 4 {
		for k := range cases {
			i := (k*3 + round) % len(cases) // a different neighbour every round
			c := cases[i]
			code, body := serveOnce(h, c)
			if c.deadlineMs > 0 && code == http.StatusRequestTimeout {
				deadlines++
				continue
			}
			if code != fresh[i].code || !bytes.Equal(body, fresh[i].body) {
				t.Fatalf("round %d, %s: pooled server answers %d %.200s\nfresh server %d %.200s", round, c.name, code, body, fresh[i].code, fresh[i].body)
			}
		}
	}
	t.Logf("%d of 4 deadline evals answered 408", deadlines)
	if len(s.scratch.free) == 0 {
		t.Fatal("no scratch was pooled")
	}
}

// TestScratchPoolBounded: a request whose body buffer outgrew
// maxPooledBody, its tables past the Dict's own bound too, returns no
// scratch to the pool, nor does a request that panics mid-reduction, and
// an ordinary request after each answers byte for byte as before.
func TestScratchPoolBounded(t *testing.T) {
	cfg := poolConfig
	cfg.MaxBodyBytes = 8 << 20
	s := New(cfg, nil)
	h := s.Handler()
	small := poolCase{path: "/v1/eval", body: string(evalJoinBody(300))}
	code, want := serveOnce(h, small)
	if code != 200 {
		t.Fatalf("eval: %d %s", code, want)
	}
	pooled := func(when string, n int) {
		t.Helper()
		if len(s.scratch.free) != n {
			t.Fatalf("%s: %d scratches pooled, want %d", when, len(s.scratch.free), n)
		}
		for _, sc := range s.scratch.free {
			if cap(sc.body) > maxPooledBody {
				t.Fatalf("%s: a pooled body buffer holds %d bytes, bound %d", when, cap(sc.body), maxPooledBody)
			}
		}
	}
	pooled("after an ordinary eval", 1)

	var big strings.Builder
	big.WriteString(`{"schema":"R0: A B\nR1: B C","attrs":["B"],"tables":[{"attrs":["A","B"],"rows":[`)
	for i := range 150_000 {
		if i > 0 {
			big.WriteByte(',')
		}
		fmt.Fprintf(&big, `["a%d","b%d"]`, i, i%100)
	}
	big.WriteString(`]},{"attrs":["B","C"],"rows":[`)
	for k := range 100 {
		if k > 0 {
			big.WriteByte(',')
		}
		fmt.Fprintf(&big, `["b%d","c%d"]`, k, k)
	}
	big.WriteString(`]}]}`)
	if big.Len() <= maxPooledBody {
		t.Fatalf("the big body is %d bytes, not past %d", big.Len(), maxPooledBody)
	}
	if code, reply := serveOnce(h, poolCase{path: "/v1/eval", body: big.String()}); code != 200 {
		t.Fatalf("big eval: %d %.200s", code, reply)
	}
	pooled("after an eval past the cap", 0)
	if code, got := serveOnce(h, small); code != 200 || !bytes.Equal(got, want) {
		t.Fatalf("after an eval past the cap: %d %.200s, want %.200s", code, got, want)
	}
	pooled("after the next ordinary eval", 1)

	defer fault.Reset()
	fault.Reset()
	fault.Activate(fault.ExecReduceStep, fault.Injection{Kind: fault.KindPanic, Panic: "mid-reduction", After: 3, Count: 1})
	if code, reply := serveOnce(h, small); code != http.StatusInternalServerError {
		t.Fatalf("panicking eval: %d %.200s", code, reply)
	}
	fault.Reset()
	pooled("after a panicking eval", 0)
	if code, got := serveOnce(h, small); code != 200 || !bytes.Equal(got, want) {
		t.Fatalf("after a panicking eval: %d %.200s, want %.200s", code, got, want)
	}
	pooled("after the next ordinary eval", 1)
}
