package exec

import "encoding/json"

// ScanJSONRows reads the JSON rows value that starts at b[i], after any
// whitespace, in one pass, and returns its table and the offset just past
// the value: an array of rows each holding one string cell per attribute
// in the order of attrs. The table is the one json.Unmarshal into
// [][]string followed by FromRows builds: a null rows value is no rows, a
// null row has width 0, and a null cell reads as "". Bytes after the value
// are not looked at, so a caller scanning a larger document, such as a
// request envelope, reads the rows in place.
//
// Each cell is interned into dict straight from the bytes: a value already
// in dict costs one map probe and no allocation, and a first sight copies
// the bytes, so dict never pins b. A cell holding a backslash escape or a
// non-ASCII byte is decoded alone by json.Unmarshal, so escapes and
// invalid-UTF-8 replacement match encoding/json.
//
// ok is false when the value is not rows of strings of the width of attrs,
// or attrs are invalid. The caller then owes the error, and takes it from
// the path the scan stands in for, json.Unmarshal and FromRows, which
// reject every value the scan rejects. The cells interned before the scan
// gave up stay in dict, as they do when FromRows fails part way.
func ScanJSONRows(dict *Dict, attrs []string, b []byte, i int) (t *Table, next int, ok bool) {
	t, err := NewTable(dict, attrs)
	if err != nil {
		return nil, i, false
	}
	perm := sortedPerm(t.attrs, attrs)
	row := make([]int32, len(attrs))
	s := jsonScanner{b: b, i: i}
	s.space()
	if s.literal("null") {
		return t, s.i, true
	}
	if !s.consume('[') {
		return nil, i, false
	}
	if s.space(); s.consume(']') {
		return t, s.i, true
	}
	for {
		switch {
		case s.literal("null"):
			if len(attrs) != 0 {
				return nil, i, false // a null row has width 0
			}
		case s.row(dict, row):
			for c := range t.cols {
				t.cols[c] = append(t.cols[c], row[perm[c]])
			}
		default:
			return nil, i, false
		}
		t.rows++
		if s.space(); s.consume(',') {
			s.space()
			continue
		}
		if s.consume(']') {
			return t.dedup(), s.i, true
		}
		return nil, i, false
	}
}

// jsonScanner walks JSON rows. Every read is bounds-checked against b.
type jsonScanner struct {
	b []byte
	i int
}

// space skips JSON whitespace.
func (s *jsonScanner) space() {
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
func (s *jsonScanner) consume(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// literal advances past lit if it comes next.
func (s *jsonScanner) literal(lit string) bool {
	if len(s.b)-s.i >= len(lit) && string(s.b[s.i:s.i+len(lit)]) == lit {
		s.i += len(lit)
		return true
	}
	return false
}

// row reads one array of exactly len(row) cells into row.
func (s *jsonScanner) row(dict *Dict, row []int32) bool {
	if !s.consume('[') {
		return false
	}
	n := 0
	if s.space(); s.consume(']') {
		return n == len(row)
	}
	for n < len(row) {
		id, ok := s.cell(dict)
		if !ok {
			return false
		}
		row[n] = id
		n++
		if s.space(); s.consume(',') {
			s.space()
			continue
		}
		return n == len(row) && s.consume(']')
	}
	return false
}

// cell reads one string or null cell and interns its value.
func (s *jsonScanner) cell(dict *Dict) (int32, bool) {
	if s.literal("null") {
		return dict.Intern(""), true
	}
	if !s.consume('"') {
		return 0, false
	}
	start := s.i
	for s.i < len(s.b) {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return dict.internBytes(s.b[start : s.i-1]), true
		case c == '\\' || c >= 0x80:
			return s.slowString(dict, start-1)
		case c < 0x20:
			return 0, false
		}
		s.i++
	}
	return 0, false
}

// slowString decodes the string token opening at b[open] with
// json.Unmarshal, for cells with escapes or non-ASCII bytes.
func (s *jsonScanner) slowString(dict *Dict, open int) (int32, bool) {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case '\\':
			s.i += 2
			continue
		case '"':
			s.i++
			var v string
			if json.Unmarshal(s.b[open:s.i], &v) != nil {
				return 0, false
			}
			return dict.Intern(v), true
		}
		s.i++
	}
	return 0, false
}
