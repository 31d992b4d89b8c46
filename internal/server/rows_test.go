package server

// The /v1/eval and /v1/reduce body path scans the envelope once by hand and
// reads table rows straight from the request bytes into exec columns
// (scanEval, exec.ScanJSONRows). These tests pin it to the path it
// replaced, kept here as the oracle: encoding/json decoding rows into
// [][]string with the envelope, then exec.FromRows per table.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/exec"
)

type oracleTableJSON struct {
	Attrs []string   `json:"attrs"`
	Rows  [][]string `json:"rows"`
}

type oracleEvalRequest struct {
	Schema string            `json:"schema"`
	Tables []oracleTableJSON `json:"tables"`
	Attrs  []string          `json:"attrs"`
}

// oracleDecodeEval is decodeEval over the old body path: rows decoded into
// [][]string with the envelope, the schema and projection checks, then one
// exec.FromRows per table over a shared Dict.
func oracleDecodeEval(r *http.Request, withAttrs bool) ([]string, *exec.Database, error) {
	var req oracleEvalRequest
	if err := decode(r, &req); err != nil {
		return nil, nil, err
	}
	h, err := parseSchema(r.Context(), req.Schema)
	if err != nil {
		return nil, nil, err
	}
	if withAttrs {
		if _, err := h.Set(req.Attrs...); err != nil {
			return nil, nil, err
		}
	}
	dict := exec.NewDict()
	tables := make([]*exec.Table, len(req.Tables))
	for i, t := range req.Tables {
		if tables[i], err = exec.FromRows(dict, t.Attrs, t.Rows); err != nil {
			return nil, nil, &errBadRequest{err: fmt.Errorf("table %d: %w", i, err)}
		}
	}
	d, err := exec.NewDatabase(h, tables)
	if err != nil {
		return nil, nil, &errBadRequest{err: err}
	}
	return req.Attrs, d, nil
}

// oracleReply answers body on path the way the server did before: the
// status, the error code (empty on success) and, on success, the reply
// with rows rendered through the relation layer.
func oracleReply(t *testing.T, path, body string, maxBody int64) (int, string, any) {
	t.Helper()
	r := httptest.NewRequest("POST", path, strings.NewReader(body))
	r.Body = http.MaxBytesReader(nil, r.Body, maxBody)
	attrs, d, err := oracleDecodeEval(r, path == "/v1/eval")
	if err != nil {
		status, eb, ok := classify(err)
		if !ok {
			t.Fatalf("oracle error %v is not classified", err)
		}
		return status, eb.Code, nil
	}
	a := engine.New().Analyze(d.Schema)
	var reply map[string]any
	if path == "/v1/eval" {
		res, err := a.Eval(context.Background(), d, attrs)
		if err != nil {
			t.Fatalf("oracle eval: %v", err)
		}
		reply = map[string]any{
			"attrs":    res.Out.Attrs(),
			"rows":     res.Out.ToRelation().Rows(),
			"joinRows": res.JoinRows,
			"rowsIn":   res.Reduce.RowsIn,
			"rowsOut":  res.Reduce.RowsOut,
		}
	} else {
		res, err := a.Reduce(context.Background(), d)
		if err != nil {
			t.Fatalf("oracle reduce: %v", err)
		}
		reply = map[string]any{"rowsIn": res.RowsIn, "rowsOut": res.RowsOut, "steps": len(res.Steps)}
	}
	return http.StatusOK, "", normalizeJSON(t, reply)
}

// normalizeJSON round-trips v through JSON into generic values, so replies
// compare by content whatever their Go types.
func normalizeJSON(t *testing.T, v any) any {
	t.Helper()
	b, ok := v.([]byte)
	if !ok {
		var err error
		if b, err = json.Marshal(v); err != nil {
			t.Fatal(err)
		}
	}
	var out any
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatalf("normalize %s: %v", b, err)
	}
	return out
}

// rowsBody builds an eval/reduce body over the chain A B — B C with the
// given raw JSON tables.
func rowsBody(schema string, tables ...string) string {
	return `{"schema":` + strconv.Quote(schema) + `,"attrs":["A","C"],"tables":[` + strings.Join(tables, ",") + `]}`
}

// plainBody is a well-formed eval body over the chain A B — B C.
var plainBody = rowsBody("A B\nB C",
	`{"attrs":["A","B"],"rows":[["a1","b1"],["a2","b2"]]}`,
	`{"attrs":["B","C"],"rows":[["b1","c1"],["b2","c2"]]}`)

// parityCases are malformed and well-formed eval/reduce bodies, each with
// the code /v1/eval answers ("" for 200).
var parityCases = []struct {
	name, body, code string
}{
	{"plain", rowsBody("A B\nB C",
		`{"attrs":["A","B"],"rows":[["a1","b1"],["a2","b2"],["a3","b9"]]}`,
		`{"attrs":["C","B"],"rows":[["c1","b1"],["c2","b2"],["c3","b3"]]}`), ""},
	{"reply order", rowsBody("A B\nB C",
		`{"attrs":["A","B"],"rows":[["b","x"],["9","x"],["10","x"]]}`,
		`{"attrs":["B","C"],"rows":[["x","c2"],["x","c10"],["x","c1"]]}`), ""},
	{"escapes", rowsBody("A B\nB C",
		`{"attrs":["A","B"],"rows":[["q\"uote","é"],["back\\slash","😀"],["\/\b\f\n\r\t","x"]]}`,
		`{"attrs":["B","C"],"rows":[["é","c1"],["😀","c2"],["x","c3"]]}`), ""},
	{"lone surrogate", rowsBody("A B\nB C",
		`{"attrs":["A","B"],"rows":[["a","\ud800"]]}`,
		`{"attrs":["B","C"],"rows":[["�","c"]]}`), ""},
	{"invalid utf8", rowsBody("A B\nB C",
		"{\"attrs\":[\"A\",\"B\"],\"rows\":[[\"a\",\"b\xff\"],[\"a\xc3\",\"b\"]]}",
		`{"attrs":["B","C"],"rows":[["b�","c1"],["b","c2"]]}`), ""},
	{"whitespace everywhere", " {\n\t\"schema\" : \"A B\\nB C\" ,\r\n \"attrs\" : [ \"A\" , \"C\" ] , \"tables\" : [ " +
		"{ \"attrs\" : [ \"A\" , \"B\" ] , \"rows\" : [\n [ \"a\" , \"b\" ] \r\n, [\t\"a\"\t,\t\"b2\"\t]\n ] } , " +
		"{\"rows\":\n[ [\"b\",\"c\"] ]\n,\"attrs\":[\"B\",\"C\"]}\n] }\n ", ""},
	{"empty tables", rowsBody("A B\nB C", `{"attrs":["A","B"],"rows":[]}`, `{"attrs":["B","C"],"rows":[ ]}`), ""},
	{"rows null", rowsBody("A B\nB C", `{"attrs":["A","B"],"rows":null}`, `{"attrs":["B","C"],"rows":[["b","c"]]}`), ""},
	{"rows absent", rowsBody("A B\nB C", `{"attrs":["A","B"]}`, `{"attrs":["B","C"],"rows":[["b","c"]]}`), ""},
	{"duplicate rows", rowsBody("A B\nB C",
		`{"attrs":["A","B"],"rows":[["a","b"],["a","b"],["a","b"],["a2","b"]]}`,
		`{"attrs":["B","C"],"rows":[["b","c"],["b","c"]]}`), ""},
	{"null cell", rowsBody("A B\nB C",
		`{"attrs":["A","B"],"rows":[["a",null],["a2",""]]}`,
		`{"attrs":["B","C"],"rows":[[null,"c"]]}`), ""},
	{"null row", rowsBody("A B\nB C", `{"attrs":["A","B"],"rows":[null]}`, `{"attrs":["B","C"],"rows":[]}`), CodeBadRequest},
	{"number cell", rowsBody("A B\nB C", `{"attrs":["A","B"],"rows":[["a",1]]}`, `{"attrs":["B","C"],"rows":[]}`), CodeBadJSON},
	{"bool cell", rowsBody("A B\nB C", `{"attrs":["A","B"],"rows":[["a",true]]}`, `{"attrs":["B","C"],"rows":[]}`), CodeBadJSON},
	{"object cell", rowsBody("A B\nB C", `{"attrs":["A","B"],"rows":[[{"v":"a"},"b"]]}`, `{"attrs":["B","C"],"rows":[]}`), CodeBadJSON},
	{"nested array cell", rowsBody("A B\nB C", `{"attrs":["A","B"],"rows":[[["a"],"b"]]}`, `{"attrs":["B","C"],"rows":[]}`), CodeBadJSON},
	{"rows string", rowsBody("A B\nB C", `{"attrs":["A","B"],"rows":"ab"}`, `{"attrs":["B","C"],"rows":[]}`), CodeBadJSON},
	{"rows object", rowsBody("A B\nB C", `{"attrs":["A","B"],"rows":{}}`, `{"attrs":["B","C"],"rows":[]}`), CodeBadJSON},
	{"row number", rowsBody("A B\nB C", `{"attrs":["A","B"],"rows":[1]}`, `{"attrs":["B","C"],"rows":[]}`), CodeBadJSON},
	{"row too wide", rowsBody("A B\nB C", `{"attrs":["A","B"],"rows":[]}`, `{"attrs":["B","C"],"rows":[["b","c","d"]]}`), CodeBadRequest},
	{"row too narrow", rowsBody("A B\nB C", `{"attrs":["A","B"],"rows":[]}`, `{"attrs":["B","C"],"rows":[["b","c"],["b"]]}`), CodeBadRequest},
	{"width then number", rowsBody("A B\nB C", `{"attrs":["A","B"],"rows":[["a"]]}`, `{"attrs":["B","C"],"rows":[["b",2]]}`), CodeBadJSON},
	{"number after width", rowsBody("A B\nB C", `{"attrs":["A","B"],"rows":[["a"],["a",2]]}`, `{"attrs":["B","C"],"rows":[]}`), CodeBadJSON},
	{"bad schema and number", rowsBody("", `{"attrs":["A","B"],"rows":[["a",1]]}`), CodeBadJSON},
	{"bad schema and width", rowsBody("", `{"attrs":["A","B"],"rows":[["a"]]}`), CodeParse},
	{"unknown attr and width", strings.Replace(rowsBody("A B\nB C",
		`{"attrs":["A","B"],"rows":[["a"]]}`, `{"attrs":["B","C"],"rows":[]}`), `"attrs":["A","C"]`, `"attrs":["A","Z"]`, 1), CodeUnknownNode},
	{"duplicate attr", rowsBody("A B\nB C", `{"attrs":["A","A"],"rows":[["a","b"]]}`, `{"attrs":["B","C"],"rows":[]}`), CodeBadRequest},
	{"empty attr", rowsBody("A B\nB C", `{"attrs":["A",""],"rows":[]}`, `{"attrs":["B","C"],"rows":[]}`), CodeBadRequest},
	{"attrs not the edge", rowsBody("A B\nB C", `{"attrs":["A","C"],"rows":[]}`, `{"attrs":["B","C"],"rows":[]}`), CodeBadRequest},
	{"table count", rowsBody("A B\nB C", `{"attrs":["A","B"],"rows":[["a","b"]]}`), CodeBadRequest},
	{"truncated", rowsBody("A B\nB C", `{"attrs":["A","B"],"rows":[["a","b"]]}`)[:60], CodeBadJSON},
	// Envelope edges: bodies outside the one-pass scan's shape take
	// encoding/json, whose key matching, duplicates and trailing bytes the
	// answers keep.
	{"case-variant keys", strings.Replace(strings.Replace(plainBody, `"schema"`, `"Schema"`, 1), `"attrs":["A","C"]`, `"ATTRS":["A","C"]`, 1), ""},
	{"duplicate tables", strings.Replace(plainBody, `"tables":`, `"tables":[],"tables":`, 1), ""},
	{"duplicate tables last wins", strings.TrimSuffix(plainBody, "}") + `,"tables":[]}`, CodeBadRequest},
	{"unknown key", strings.Replace(plainBody, `{"schema"`, `{"note":{"k":[1,{"v":null}],"s":"x"},"schema"`, 1), ""},
	{"escaped key", strings.Replace(plainBody, `"schema"`, `"sch\u0065ma"`, 1), ""},
	{"shadowed rows", rowsBody("A B\nB C",
		`{"attrs":["A","B"],"rows":[["a",1]],"rows":[]}`, `{"attrs":["B","C"],"rows":[]}`), CodeBadJSON},
	{"rows before attrs", rowsBody("A B\nB C",
		`{"rows":[["a1","b1"]],"attrs":["A","B"]}`, `{"rows":[["b1","c1"]],"attrs":["B","C"]}`), ""},
	{"null schema", strings.Replace(plainBody, `"schema":"A B\nB C"`, `"schema":null`, 1), CodeParse},
	{"null attrs", strings.Replace(plainBody, `"attrs":["A","C"]`, `"attrs":null`, 1), ""},
	{"null tables", `{"schema":"A B\nB C","attrs":["A","C"],"tables":null}`, CodeBadRequest},
	{"empty body", "", CodeBadJSON},
	{"whitespace body", " \n\t ", CodeBadJSON},
	{"trailing garbage", plainBody + ` {"x" ]]`, ""},
	{"trailing past cap", plainBody + strings.Repeat("x", 5000), ""},
	{"non-ascii schema", strings.NewReplacer(`A B\nB C`, `Ä B\nB Ç`, `"A"`, `"Ä"`, `"C"`, `"Ç"`).Replace(plainBody), ""},
	{"invalid utf8 attrs", strings.NewReplacer(`A B\nB C`, "A B\\nB C\xff", `"C"`, "\"C\xfe\"").Replace(plainBody), ""},
	{"body cap", rowsBody("A B\nB C", `{"attrs":["A","B"],"rows":[`+strings.Repeat(`["a","b"],`, 500)+`["a","b"]]}`,
		`{"attrs":["B","C"],"rows":[]}`), CodeBodyTooLarge},
}

// TestEvalRowsParity pins every parity case, on /v1/eval and /v1/reduce, to
// the old body path: the same status and error code, and on success the
// same reply. A width error names its table.
func TestEvalRowsParity(t *testing.T) {
	const maxBody = 4096
	_, ts := newTestServer(t, Config{MaxBodyBytes: maxBody, TenantBurst: 1 << 20}, nil)
	for _, tc := range parityCases {
		for _, path := range []string{"/v1/eval", "/v1/reduce"} {
			t.Run(tc.name+path, func(t *testing.T) {
				resp, body := do(t, "POST", ts.URL+path, tc.body, nil)
				status, code, reply := oracleReply(t, path, tc.body, maxBody)
				if resp.StatusCode != status {
					t.Fatalf("status %d (body %s), old path %d %q", resp.StatusCode, body, status, code)
				}
				if path == "/v1/eval" && code != tc.code {
					t.Fatalf("old path answers %q, case expects %q", code, tc.code)
				}
				if status != http.StatusOK {
					e := decodeError(t, body)
					if e.Code != code {
						t.Fatalf("code %q (%s), old path %q", e.Code, e.Message, code)
					}
					if strings.HasPrefix(tc.name, "row too") && !strings.Contains(e.Message, "table 1") {
						t.Fatalf("width error %q does not name table 1", e.Message)
					}
					return
				}
				if got := normalizeJSON(t, body); !reflect.DeepEqual(got, reply) {
					t.Fatalf("reply\n%v\nold path\n%v", got, reply)
				}
			})
		}
	}
}

// TestEvalReplyRowsMatchRelation pins replyRows to the relation layer's
// rendering, res.Out.ToRelation().Rows(), over the server test corpus: the
// chain body of the chaos and tracing suites and every well-formed parity
// case.
func TestEvalReplyRowsMatchRelation(t *testing.T) {
	bodies := []string{evalBody(64)}
	for _, tc := range parityCases {
		if tc.code == "" {
			bodies = append(bodies, tc.body)
		}
	}
	for i, body := range bodies {
		r := httptest.NewRequest("POST", "/v1/eval", strings.NewReader(body))
		attrs, d, err := decodeEval(r, 1<<20, true)
		if err != nil {
			t.Fatalf("body %d: %v", i, err)
		}
		res, err := engine.New().Analyze(d.Schema).Eval(context.Background(), d, attrs)
		if err != nil {
			t.Fatalf("body %d: %v", i, err)
		}
		if got, want := replyRows(res.Out), res.Out.ToRelation().Rows(); !reflect.DeepEqual(got, want) {
			t.Fatalf("body %d: reply rows %v, relation rows %v", i, got, want)
		}
	}
}

// BenchmarkEvalLoad decodes and loads an eval-join-shaped /v1/eval body
// (see evalJoinBody, 2000–3000 rows per object) as the benchmark harness's
// eval-join workload sends it. Run with -benchmem: allocs/op is the
// repeatable figure.
func BenchmarkEvalLoad(b *testing.B) {
	body := evalJoinBody(2000)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		r := httptest.NewRequest("POST", "/v1/eval", bytes.NewReader(body))
		if _, _, err := decodeEval(r, 1<<20, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvalRequest is one warm /v1/eval request of an eval-join-shaped
// body (see evalJoinBody) through Handler(): the body read, the load, the
// parse, the reduction, the join phase and the reply. One request before
// the timer answers the cold work (the schema's analysis, the first
// request scratch). Run with -benchmem: B/op and allocs/op show what a
// warm request allocates.
func BenchmarkEvalRequest(b *testing.B) {
	h := New(Config{TenantRate: 1e9, TenantBurst: 1 << 30}, nil).Handler()
	body := evalJoinBody(2000)
	request := func() (*httptest.ResponseRecorder, *http.Request) {
		return httptest.NewRecorder(), httptest.NewRequest("POST", "/v1/eval", bytes.NewReader(body))
	}
	h.ServeHTTP(request())
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rec, req := request()
		b.StartTimer()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("eval: %d %s", rec.Code, rec.Body)
		}
	}
}

// evalJoinBody builds an eval-join-shaped /v1/eval body: the 8-object bushy
// schema with minRows to 1.5×minRows rows per object, values drawn from a
// 400-value domain (12 on the leaf attributes), projected on G and J.
func evalJoinBody(minRows int) []byte {
	edges := [][]string{{"A", "B", "C"}, {"A", "D"}, {"B", "E"}, {"C", "F"}, {"D", "G"}, {"E", "H"}, {"F", "I"}, {"A", "J"}}
	var schema []string
	var tables []oracleTableJSON
	seed := uint64(1)
	next := func(n int) int { // xorshift64: a fixed stream, no global rand state
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		return int(seed % uint64(n))
	}
	for i, e := range edges {
		schema = append(schema, fmt.Sprintf("R%d: %s", i, strings.Join(e, " ")))
		tab := oracleTableJSON{Attrs: e}
		for r := 0; r < minRows+minRows/2*i/(len(edges)-1); r++ {
			row := make([]string, len(e))
			for k, a := range e {
				dom := 400
				if strings.Contains("GHIJ", a) {
					dom = 12
				}
				row[k] = "v" + strconv.Itoa(next(dom))
			}
			tab.Rows = append(tab.Rows, row)
		}
		tables = append(tables, tab)
	}
	body, err := json.Marshal(oracleEvalRequest{Schema: strings.Join(schema, "\n"), Tables: tables, Attrs: []string{"G", "J"}})
	if err != nil {
		panic(err)
	}
	return body
}

// TestEvalLoadIndependentOfSeed: every scan draws a Dict of its own
// random multiplier and seed, yet two scans of the eval-join body build
// the same value ids and the same columns, and /v1/eval answers it byte
// for byte as it answers the same body through the encoding/json fallback
// and exec.FromRows.
func TestEvalLoadIndependentOfSeed(t *testing.T) {
	body := evalJoinBody(2000)
	_, a, okA := scanEval(body, nil)
	_, b, okB := scanEval(body, nil)
	if !okA || !okB {
		t.Fatal("eval-join body falls back")
	}
	da, db := a[0].Dict(), b[0].Dict()
	if da.Len() != db.Len() {
		t.Fatalf("%d values, then %d", da.Len(), db.Len())
	}
	for id := range int32(da.Len()) {
		if da.Value(id) != db.Value(id) {
			t.Fatalf("value %d: %q, then %q", id, da.Value(id), db.Value(id))
		}
	}
	for i := range a {
		if a[i].NumRows() != b[i].NumRows() {
			t.Fatalf("table %d: %d rows, then %d", i, a[i].NumRows(), b[i].NumRows())
		}
		for r := range a[i].NumRows() {
			for c := range a[i].NumAttrs() {
				idA, _ := da.Lookup(a[i].Value(r, c))
				idB, _ := db.Lookup(b[i].Value(r, c))
				if idA != idB {
					t.Fatalf("table %d cell (%d, %d): id %d, then %d", i, r, c, idA, idB)
				}
			}
		}
	}

	_, ts := newTestServer(t, Config{}, nil)
	fallback := `{"x":0,` + string(body[1:]) // an unknown key takes the fallback
	if _, _, ok := scanEval([]byte(fallback), nil); ok {
		t.Fatal("the fallback body takes the scan")
	}
	var replies [][]byte
	for _, in := range []string{string(body), string(body), fallback} {
		resp, reply := do(t, "POST", ts.URL+"/v1/eval", in, nil)
		if resp.StatusCode != 200 {
			t.Fatalf("%d %s", resp.StatusCode, reply)
		}
		replies = append(replies, reply)
	}
	if !bytes.Equal(replies[0], replies[1]) || !bytes.Equal(replies[0], replies[2]) {
		t.Fatalf("replies differ:\n%.200s\n%.200s\n%.200s", replies[0], replies[1], replies[2])
	}
}

// TestScanEvalShape pins which bodies take the one-pass envelope scan:
// eval-join's and the parity cases of the fast shape do; every envelope
// edge encoding/json could read differently, and every body that is not
// well-formed rows of the right width, does not.
func TestScanEvalShape(t *testing.T) {
	if _, _, ok := scanEval(evalJoinBody(50), nil); !ok {
		t.Fatal("eval-join body falls back")
	}
	fast := map[string]bool{
		"plain": true, "reply order": true, "escapes": true, "lone surrogate": true, "invalid utf8": true,
		"empty tables": true, "rows null": true, "rows absent": true, "duplicate rows": true, "null cell": true,
		"trailing garbage": true, "trailing past cap": true, "non-ascii schema": true, "invalid utf8 attrs": true,
		"table count": true, "attrs not the edge": true,
		"body cap": true, // whole; the prefix under the cap falls back
	}
	for _, tc := range parityCases {
		_, _, ok := scanEval([]byte(tc.body), nil)
		if ok != fast[tc.name] {
			t.Errorf("%s: scanEval ok %v, want %v", tc.name, ok, fast[tc.name])
		}
	}
}

// FuzzEvalBody differences decodeEval against oracleDecodeEval, the body
// path before the one-pass scan, on arbitrary bodies under a 4 KiB cap: the
// same classified status and code, and on success the same schema, the
// same projection attributes and the same rows in every table.
func FuzzEvalBody(f *testing.F) {
	for _, tc := range parityCases {
		f.Add(tc.body, true)
	}
	f.Add(string(evalJoinBody(4)), true)
	f.Add(plainBody, false)
	const maxBody = 4096
	f.Fuzz(func(t *testing.T, body string, withAttrs bool) {
		req := func() *http.Request {
			r := httptest.NewRequest("POST", "/v1/eval", strings.NewReader(body))
			r.Body = http.MaxBytesReader(nil, r.Body, maxBody)
			return r
		}
		attrs, d, err := decodeEval(req(), maxBody, withAttrs)
		wantAttrs, want, wantErr := oracleDecodeEval(req(), withAttrs)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("decodeEval err %v, oracle err %v", err, wantErr)
		}
		if err != nil {
			status, eb, ok := classify(err)
			wantStatus, wantEB, wantOK := classify(wantErr)
			if !ok || !wantOK || status != wantStatus || eb.Code != wantEB.Code {
				t.Fatalf("decodeEval answers %d %q (%v), oracle %d %q (%v)", status, eb.Code, err, wantStatus, wantEB.Code, wantErr)
			}
			return
		}
		if d.Schema.Fingerprint128() != want.Schema.Fingerprint128() {
			t.Fatalf("schema %v, oracle %v", d.Schema, want.Schema)
		}
		if !reflect.DeepEqual(attrs, wantAttrs) {
			t.Fatalf("attrs %q, oracle %q", attrs, wantAttrs)
		}
		for i, tab := range d.Tables {
			if !tab.ToRelation().Equal(want.Tables[i].ToRelation()) {
				t.Fatalf("table %d\n%v\noracle\n%v", i, tab, want.Tables[i])
			}
		}
		// The exec.load span's row count is the rows the tables were sent
		// with.
		var rows int
		if _, _, ok := scanEval([]byte(body), &rows); ok {
			var sent oracleEvalRequest
			if err := json.NewDecoder(strings.NewReader(body)).Decode(&sent); err != nil {
				t.Fatalf("oracle decode: %v", err)
			}
			n := 0
			for _, tab := range sent.Tables {
				n += len(tab.Rows)
			}
			if rows != n {
				t.Fatalf("scan counted %d rows, the body has %d", rows, n)
			}
		}
	})
}
