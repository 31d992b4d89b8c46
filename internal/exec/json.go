package exec

import (
	"encoding/json"
	"slices"
)

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
// in dict costs one dictionary probe and no allocation, and a first sight
// copies the bytes, so dict never pins b. A cell holding a backslash escape
// or a non-ASCII byte is decoded alone by json.Unmarshal, so escapes and
// invalid-UTF-8 replacement match encoding/json. The rows are staged and
// deduplicated in dict's scratch, and the columns cut from its slab (see
// Table.loadRows).
//
// ok is false when the value is not rows of strings of the width of attrs,
// or attrs are invalid. The caller then owes the error, and takes it from
// the path the scan stands in for, json.Unmarshal and FromRows, which
// reject every value the scan rejects. The cells interned before the scan
// gave up stay in dict, as they do when FromRows fails part way.
func ScanJSONRows(dict *Dict, attrs []string, b []byte, i int) (t *Table, next int, ok bool) {
	sc := dict.take()
	t, next, ok = scanRows(dict, sc, attrs, b, i)
	dict.give(sc)
	return t, next, ok
}

// scanRows is ScanJSONRows on sc, the scratch taken from dict.
func scanRows(dict *Dict, sc *evalScratch, attrs []string, b []byte, i int) (*Table, int, bool) {
	t, err := NewTable(dict, attrs)
	if err != nil {
		return nil, i, false
	}
	// pos[n] is the sorted column of the n-th cell of a row.
	pos := make([]int, len(attrs))
	for c, a := range t.attrs {
		pos[slices.Index(attrs, a)] = c
	}
	sc.rows.cells = sc.rows.cells[:0]
	s := jsonScanner{b: b, i: i, dict: dict, set: &sc.rows}
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
	n := 0
	for {
		switch {
		case s.literal("null"):
			if len(attrs) != 0 {
				return nil, i, false // a null row has width 0
			}
		case s.row(pos):
		default:
			return nil, i, false
		}
		n++
		if s.space(); s.consume(',') {
			s.space()
			continue
		}
		if s.consume(']') {
			t.loadRows(n, sc)
			return t, s.i, true
		}
		return nil, i, false
	}
}

// jsonScanner walks JSON rows, interning their cells into dict and staging
// them in set's cells. Every read is bounds-checked against b.
type jsonScanner struct {
	b    []byte
	i    int
	dict *Dict
	set  *rowSet
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

// row reads one array of exactly len(pos) cells onto the end of the staged
// cells, the n-th cell into sorted column pos[n].
func (s *jsonScanner) row(pos []int) bool {
	if !s.consume('[') {
		return false
	}
	if s.space(); s.consume(']') {
		return len(pos) == 0
	}
	base := len(s.set.cells)
	s.set.cells = slices.Grow(s.set.cells, len(pos))[:base+len(pos)]
	row := s.set.cells[base:]
	for n := range pos {
		id, ok := s.cell()
		if !ok {
			return false
		}
		row[pos[n]] = id
		if s.space(); s.consume(',') {
			s.space()
			continue
		}
		return n+1 == len(pos) && s.consume(']')
	}
	return false
}

// cell reads one string or null cell and interns its value. A string, the
// common case, is tested for first, and its bytes are walked on locals.
func (s *jsonScanner) cell() (int32, bool) {
	b, i, dict := s.b, s.i, s.dict
	if i >= len(b) || b[i] != '"' {
		if s.literal("null") {
			return dict.Intern(""), true
		}
		return 0, false
	}
	start := i + 1
	for i = start; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			s.i = i + 1
			return dict.internBytes(b[start:i]), true
		case c == '\\' || c >= 0x80:
			s.i = i
			return s.slowString(start - 1)
		case c < 0x20:
			return 0, false
		}
	}
	return 0, false
}

// slowString decodes the string token opening at b[open] with
// json.Unmarshal, for cells with escapes or non-ASCII bytes.
func (s *jsonScanner) slowString(open int) (int32, bool) {
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
			return s.dict.Intern(v), true
		}
		s.i++
	}
	return 0, false
}
