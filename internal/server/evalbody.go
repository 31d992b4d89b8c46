package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/exec"
	"repro/internal/obs"
)

// The request bodies read by hand. readBody reads a body once into one
// buffer. For /v1/eval and /v1/reduce, scanEval then reads the envelope
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

// readBody reads r's body into one buffer, presized from Content-Length
// capped at limit, the body cap. It returns the bytes read and the error
// that stopped the read, nil at the end of the body; on an error the bytes
// are the prefix read before it, such as the first limit bytes on a cap
// hit.
func readBody(r *http.Request, limit int64) ([]byte, error) {
	n := int64(512)
	if r.ContentLength > 0 {
		// One byte over the body so the read that reports its end does
		// not regrow the buffer.
		n = min(r.ContentLength, limit) + 1
	}
	b := make([]byte, 0, n)
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		m, err := r.Body.Read(b[len(b):cap(b)])
		b = b[:len(b)+m]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
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
// scanEval's one pass when the body has its shape, else encoding/json and
// exec.FromRows. A JSON error (bad_json, rows that are not strings
// included, or the body cap) comes back as err at once; the first table
// whose attributes or row widths are wrong comes back as rejected, a
// bad_request the caller reports after the schema checks. A load that
// succeeds records its size on sp, when sp is recording (see loadAttrs).
func loadEval(body []byte, readErr error, sp *obs.Span) (req evalRequest, tables []*exec.Table, rejected, err error) {
	var rows *int // counted only for sp
	if sp != nil {
		rows = new(int)
	}
	if req, tables, ok := scanEval(body, rows); ok {
		loadAttrs(sp, body, rows, tables)
		return req, tables, nil, nil
	}
	if err := decodeFrom(&replay{b: body, err: readErr}, &req); err != nil {
		return req, nil, nil, err
	}
	dict := exec.NewDict()
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

// scanEval reads an envelope of the fast shape from the start of b and
// ignores what follows it, as json.Decoder.Decode does. Its tables share one
// Dict and leave req.Tables nil. ok is false for any body outside the shape
// and for rows exec.ScanJSONRows rejects, whose error the caller owes. When
// rows is not nil, the rows the tables were sent with are added to it.
func scanEval(b []byte, rows *int) (req evalRequest, tables []*exec.Table, ok bool) {
	s := envScanner{b: b, dict: exec.NewDict(), rows: rows}
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
		switch s.key() {
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
	if s.space(); s.key() != "schema" {
		return "", false
	}
	if schema, ok = s.str(); !ok {
		return "", false
	}
	s.space()
	return schema, s.consume('}')
}

// envScanner walks a request body. Every read is bounds-checked against
// b; dict, which only eval bodies use, holds their tables' values, and
// rows, when not nil, counts their rows.
type envScanner struct {
	b    []byte
	i    int
	dict *exec.Dict
	rows *int
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
// written. A key with an escape or a byte outside printable ASCII comes back
// as "", which matches no key of the shape.
func (s *envScanner) key() string {
	if !s.consume('"') {
		return ""
	}
	start := s.i
	for s.i < len(s.b) {
		c := s.b[s.i]
		if c == '"' {
			k := s.b[start:s.i]
			s.i++
			if s.space(); !s.consume(':') {
				return ""
			}
			s.space()
			return string(k)
		}
		if c == '\\' || c < 0x20 || c >= 0x7f {
			return ""
		}
		s.i++
	}
	return ""
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
// encoding/json makes it.
func (s *envScanner) strs() ([]string, bool) {
	if !s.consume('[') {
		return nil, false
	}
	out := []string{}
	if s.space(); s.consume(']') {
		return out, true
	}
	for {
		v, ok := s.str()
		if !ok {
			return nil, false
		}
		out = append(out, v)
		if s.space(); s.consume(',') {
			s.space()
			continue
		}
		return out, s.consume(']')
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
	if s.space(); s.key() != "attrs" {
		return nil, false
	}
	attrs, ok := s.strs()
	if !ok {
		return nil, false
	}
	var t *exec.Table
	if s.space(); s.consume(',') {
		if s.space(); s.key() != "rows" {
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
