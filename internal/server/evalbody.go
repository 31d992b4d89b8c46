package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

	"repro/internal/exec"
	"repro/internal/obs"
)

// The request bodies read by hand. readBody reads a body once into one
// buffer, the request's scratch. For /v1/eval and /v1/reduce,
// scanEvalInto then reads the envelope
//
//	{"schema": "...", "attrs": [...], "tables": [{"attrs": [...], "rows": [[...], ...]}, ...]}
//
// in one hand-rolled pass, handing each table's rows to exec.ScanJSONRows
// where they sit. For the schema endpoints and workspace create, scanSchema
// reads exactly {"schema": "..."}. encoding/json matches keys
// case-insensitively, lets the last duplicate win and ignores unknown keys,
// so the scans take only the shape whose meaning cannot differ from
// encoding/json's: the keys spelled exactly, each at most once, never null;
// a table's "attrs" first and its optional "rows" second; strings and
// arrays of strings where the struct has them. A string's escapes \" \\ \/
// \b \f \n \r \t are decoded by the scan; a string holding a \u escape or
// a byte outside ASCII is decoded by json.Unmarshal alone. Any other body,
// and any body the scan finds wrong, takes the path the scan stands in
// for: encoding/json decodes it over a replay of the same bytes (for eval,
// with the rows as [][]string, each table loaded by exec.FromRows), so the
// answer, errors included, is theirs.

// scratch is the reusable memory of one request: the buffer readBody reads
// its body into, and the Dict an eval or reduce body's tables load into.
// guard takes one from the server's free list (scratchPool) for every
// admitted request, hands it down in the request's context (see
// requestScratch), and puts it back after the reply is written, so nothing
// reads its bytes or its tables after that. Nothing built for the reply
// aliases them either: the scans copy every string they keep, and the Dict
// copies each value on first sight.
type scratch struct {
	body []byte
	dict *exec.Dict
}

// scratchKey keys a request's scratch in its context.
type scratchKey struct{}

// requestScratch returns the scratch guard handed r, or a fresh one for a
// request that did not come through guard.
func requestScratch(r *http.Request) *scratch {
	if sc, ok := r.Context().Value(scratchKey{}).(*scratch); ok {
		return sc
	}
	return &scratch{dict: exec.NewDict()}
}

// maxPooledBody bounds the body buffer a pooled scratch keeps: a scratch
// whose buffer grew past it is dropped, not pooled. Eval-join's bodies,
// about 300 KB, fit well inside it.
const maxPooledBody = 1 << 20

// scratchPool is the server's free list of request scratch. Only admitted
// requests hold one, so the list never holds more than MaxInFlight, and
// each keeps at most maxPooledBody body bytes plus what its Dict keeps for
// reuse, which exec bounds (see exec.Dict.Reset).
type scratchPool struct {
	mu   sync.Mutex
	free []*scratch
}

// get returns a pooled scratch, or a new one when none is free.
func (p *scratchPool) get() *scratch {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		sc := p.free[n-1]
		p.free = p.free[:n-1]
		return sc
	}
	return &scratch{dict: exec.NewDict()}
}

// put resets sc and pools it for the next request, unless its body buffer
// grew past maxPooledBody or the list is full.
func (p *scratchPool) put(sc *scratch) {
	if cap(sc.body) > maxPooledBody {
		return
	}
	sc.dict.Reset()
	p.mu.Lock()
	if len(p.free) < cap(p.free) {
		p.free = append(p.free, sc)
	}
	p.mu.Unlock()
}

// readBody reads r's body into one buffer, sc's when it is large enough,
// else one presized from Content-Length capped at limit, the body cap, and
// keeps it in sc. It returns the bytes read and the error that stopped the
// read, nil at the end of the body; on an error the bytes are the prefix
// read before it, such as the first limit bytes on a cap hit.
func (sc *scratch) readBody(r *http.Request, limit int64) ([]byte, error) {
	n := int64(512)
	if r.ContentLength > 0 {
		// One byte over the body so the read that reports its end does
		// not regrow the buffer.
		n = min(r.ContentLength, limit) + 1
	}
	b := sc.body[:0]
	if int64(cap(b)) < n {
		b = make([]byte, 0, n)
	}
	var err error
	for err == nil {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		var m int
		m, err = r.Body.Read(b[len(b):cap(b)])
		b = b[:len(b)+m]
	}
	sc.body = b
	if err == io.EOF {
		err = nil
	}
	return b, err
}

// replay reads a body readBody has read: its bytes, then the error that
// stopped the read, io.EOF if none. A json.Decoder over it answers what one
// over the request body would have: a value that ends inside the bytes
// decodes whatever follows, and one that does not meets the read error.
type replay struct {
	b   []byte
	err error
}

func (r *replay) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		if r.err == nil {
			return 0, io.EOF
		}
		return 0, r.err
	}
	n := copy(p, r.b)
	r.b = r.b[n:]
	return n, nil
}

// loadEval reads an eval body's envelope and tables over one shared Dict:
// scanEvalInto's one pass when the body has its shape, else encoding/json
// and exec.FromRows, dict reset first. A JSON error (bad_json, rows that are not strings
// included, or the body cap) comes back as err at once; the first table
// whose attributes or row widths are wrong comes back as rejected, a
// bad_request the caller reports after the schema checks. A load that
// succeeds records its size on sp, when sp is recording (see loadAttrs).
func loadEval(body []byte, readErr error, dict *exec.Dict, sp *obs.Span) (req evalRequest, tables []*exec.Table, rejected, err error) {
	var rows *int // counted only for sp
	if sp != nil {
		rows = new(int)
	}
	if req, tables, ok := scanEvalInto(body, dict, rows); ok {
		loadAttrs(sp, body, rows, tables)
		return req, tables, nil, nil
	}
	if err := decodeFrom(&replay{b: body, err: readErr}, &req); err != nil {
		return req, nil, nil, err
	}
	dict.Reset() // forget what the scan interned before it gave up
	tables = make([]*exec.Table, len(req.Tables))
	for i, t := range req.Tables {
		if tables[i], err = exec.FromRows(dict, t.Attrs, t.Rows); err != nil {
			return req, nil, &errBadRequest{err: fmt.Errorf("table %d: %w", i, err)}, nil
		}
		if rows != nil {
			*rows += len(t.Rows)
		}
	}
	loadAttrs(sp, body, rows, tables)
	return req, tables, nil, nil
}

// loadAttrs records a load's size on its exec.load span: the body's bytes,
// the rows its tables were sent with, the distinct rows they kept, and the
// values in their shared Dict.
func loadAttrs(sp *obs.Span, body []byte, rows *int, tables []*exec.Table) {
	if sp == nil {
		return
	}
	distinct, values := 0, 0
	for _, t := range tables {
		distinct += t.NumRows()
		values = t.Dict().Len()
	}
	sp.SetInt("bytes", int64(len(body)))
	sp.SetInt("rows", int64(*rows))
	sp.SetInt("distinct", int64(distinct))
	sp.SetInt("values", int64(values))
}

// scanEval is scanEvalInto over a fresh Dict.
func scanEval(b []byte, rows *int) (evalRequest, []*exec.Table, bool) {
	return scanEvalInto(b, exec.NewDict(), rows)
}

// scanEvalInto reads an envelope of the fast shape from the start of b and
// ignores what follows it, as json.Decoder.Decode does. Its tables load
// into dict and leave req.Tables nil. ok is false for any body outside the
// shape and for rows exec.ScanJSONRows rejects, whose error the caller
// owes. When rows is not nil, the rows the tables were sent with are added
// to it.
func scanEvalInto(b []byte, dict *exec.Dict, rows *int) (req evalRequest, tables []*exec.Table, ok bool) {
	s := envScanner{b: b, dict: dict, rows: rows}
	tables = []*exec.Table{} // no "tables" is no tables, as in loadEval's fallback
	var seenSchema, seenAttrs, seenTables bool
	s.space()
	if !s.consume('{') {
		return req, nil, false
	}
	if s.space(); s.consume('}') {
		return req, tables, true
	}
	for {
		switch string(s.key()) {
		case "schema":
			if seenSchema {
				return req, nil, false
			}
			seenSchema = true
			req.Schema, ok = s.str()
		case "attrs":
			if seenAttrs {
				return req, nil, false
			}
			seenAttrs = true
			req.Attrs, ok = s.strs()
		case "tables":
			if seenTables {
				return req, nil, false
			}
			seenTables = true
			tables, ok = s.tables()
		default:
			return req, nil, false
		}
		if !ok {
			return req, nil, false
		}
		if s.space(); s.consume(',') {
			s.space()
			continue
		}
		return req, tables, s.consume('}')
	}
}

// scanSchema reads a body of exactly {"schema": "..."} from the start of b
// and ignores what follows it, as json.Decoder.Decode does. ok is false for
// any other body.
func scanSchema(b []byte) (schema string, ok bool) {
	s := envScanner{b: b}
	if s.space(); !s.consume('{') {
		return "", false
	}
	if s.space(); string(s.key()) != "schema" {
		return "", false
	}
	if schema, ok = s.str(); !ok {
		return "", false
	}
	s.space()
	return schema, s.consume('}')
}

// envScanner walks a request body. Every read is bounds-checked against
// b; dict, which only eval bodies use, holds their tables' values, rows,
// when not nil, counts their rows, and names backs their attribute lists.
type envScanner struct {
	b     []byte
	i     int
	dict  *exec.Dict
	rows  *int
	names []string
}

// space skips JSON whitespace.
func (s *envScanner) space() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// consume advances past c if it is the next byte.
func (s *envScanner) consume(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// key reads an object key and its colon, and returns the key's bytes as
// written, still in b, for the caller to compare. A key with an escape or a
// byte outside printable ASCII comes back empty, which matches no key of
// the shape.
func (s *envScanner) key() []byte {
	if !s.consume('"') {
		return nil
	}
	start := s.i
	for s.i < len(s.b) {
		c := s.b[s.i]
		if c == '"' {
			k := s.b[start:s.i]
			s.i++
			if s.space(); !s.consume(':') {
				return nil
			}
			s.space()
			return k
		}
		if c == '\\' || c < 0x20 || c >= 0x7f {
			return nil
		}
		s.i++
	}
	return nil
}

// str reads one string. The escapes in simpleEscapes are decoded here,
// into a strings.Builder grown to the raw length, so a string costs one
// copy either way. A string holding a \u escape or a non-ASCII byte is
// decoded alone by json.Unmarshal, so surrogates and invalid-UTF-8
// replacement match encoding/json.
func (s *envScanner) str() (string, bool) {
	if !s.consume('"') {
		return "", false
	}
	open := s.i - 1
	escaped, slow := false, false
	for s.i < len(s.b) {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			raw := s.b[open+1 : s.i-1]
			switch {
			case slow:
				var v string
				err := json.Unmarshal(s.b[open:s.i], &v)
				return v, err == nil
			case escaped:
				return unescape(raw), true
			}
			return string(raw), true
		case c == '\\':
			if s.i+1 < len(s.b) && simpleEscapes[s.b[s.i+1]] == 0 {
				slow = true
			}
			escaped = true
			s.i += 2
			continue
		case c >= 0x80:
			slow = true
		case c < 0x20:
			return "", false
		}
		s.i++
	}
	return "", false
}

// simpleEscapes maps the byte after a backslash to the byte it stands for,
// for every JSON escape but \u; 0 marks the rest.
var simpleEscapes = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// unescape decodes raw, the bytes between a string's quotes, whose every
// backslash starts an escape in simpleEscapes.
func unescape(raw []byte) string {
	var b strings.Builder
	b.Grow(len(raw))
	for {
		k := bytes.IndexByte(raw, '\\')
		if k < 0 {
			b.Write(raw)
			return b.String()
		}
		b.Write(raw[:k])
		b.WriteByte(simpleEscapes[raw[k+1]])
		raw = raw[k+2:]
	}
}

// strs reads an array of strings; [] is an empty, non-nil slice, as
// encoding/json makes it. Every array is cut from the one backing slice
// s.names, capped, so no array grows into the next.
func (s *envScanner) strs() ([]string, bool) {
	if !s.consume('[') {
		return nil, false
	}
	if s.space(); s.consume(']') {
		return []string{}, true
	}
	start := len(s.names)
	for {
		v, ok := s.str()
		if !ok {
			return nil, false
		}
		s.names = append(s.names, v)
		if s.space(); s.consume(',') {
			s.space()
			continue
		}
		end := len(s.names)
		return s.names[start:end:end], s.consume(']')
	}
}

// tables reads the tables array.
func (s *envScanner) tables() ([]*exec.Table, bool) {
	if !s.consume('[') {
		return nil, false
	}
	out := []*exec.Table{}
	if s.space(); s.consume(']') {
		return out, true
	}
	for {
		t, ok := s.table()
		if !ok {
			return nil, false
		}
		out = append(out, t)
		if s.space(); s.consume(',') {
			s.space()
			continue
		}
		return out, s.consume(']')
	}
}

// table reads {"attrs": [...]} or {"attrs": [...], "rows": ...}; an absent
// "rows" is no rows.
func (s *envScanner) table() (*exec.Table, bool) {
	if !s.consume('{') {
		return nil, false
	}
	if s.space(); string(s.key()) != "attrs" {
		return nil, false
	}
	attrs, ok := s.strs()
	if !ok {
		return nil, false
	}
	var t *exec.Table
	if s.space(); s.consume(',') {
		if s.space(); string(s.key()) != "rows" {
			return nil, false
		}
		start := s.i
		t, s.i, ok = exec.ScanJSONRows(s.dict, attrs, s.b, s.i)
		if ok && s.rows != nil {
			*s.rows += rowCount(s.b[start:s.i], len(attrs))
		}
	} else {
		var err error
		t, err = exec.NewTable(s.dict, attrs)
		ok = err == nil
	}
	if !ok {
		return nil, false
	}
	s.space()
	return t, s.consume('}')
}

// rowCount returns the number of rows in v, a rows value of width w that
// exec.ScanJSONRows accepted. With no backslash and no null in v, each row
// is w strings of two quotes each, so one vectorized count of the quotes
// suffices; otherwise the arrays and nulls directly inside v are counted
// by walking it.
func rowCount(v []byte, w int) int {
	if w > 0 && bytes.IndexByte(v, '\\') < 0 && !bytes.Contains(v, []byte("null")) {
		return bytes.Count(v, []byte{'"'}) / (2 * w)
	}
	n, depth := 0, 0
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '"':
			for i++; v[i] != '"'; i++ {
				if v[i] == '\\' {
					i++
				}
			}
		case '[':
			if depth++; depth == 2 {
				n++
			}
		case ']':
			depth--
		case 'n':
			if depth == 1 {
				n++
			}
			i += len("null") - 1
		}
	}
	return n
}
