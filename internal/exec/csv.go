package exec

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// LoadCSV reads a table from CSV: the first record is the header naming the
// attributes (any order; columns are normalized to sorted attribute order),
// every following record is one row. Values are interned into dict and
// duplicate rows collapse (set semantics). Ragged records, empty or
// duplicate attribute names, and an empty input are errors.
//
// Fields are canonicalized to "\n" line endings (encoding/csv already
// rewrites quoted "\r\n" to "\n"; collapsing any remainder makes the loaded
// table a fixed point of WriteCSV∘LoadCSV, which the fuzz harness pins).
func LoadCSV(dict *Dict, r io.Reader) (*Table, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err == io.EOF {
		return nil, fmt.Errorf("exec: empty CSV input: missing header")
	}
	if err != nil {
		return nil, fmt.Errorf("exec: reading CSV header: %w", err)
	}
	attrs := make([]string, len(header))
	for i, a := range header {
		attrs[i] = strings.Clone(normalizeCRLF(a))
	}
	t, err := NewTable(dict, attrs)
	if err != nil {
		return nil, err
	}
	perm := sortedPerm(t.attrs, attrs)
	sc := dict.take()
	cells, n := sc.rows.cells[:0], 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			dict.give(sc)
			return nil, fmt.Errorf("exec: reading CSV row: %w", err)
		}
		// encoding/csv materializes all fields of a record as substrings of
		// one backing string, so each field is cloned on first sight rather
		// than pinning its whole line in the dictionary; a hit costs one
		// probe and no copy.
		for _, p := range perm {
			cells = append(cells, dict.internClone(normalizeCRLF(rec[p])))
		}
		n++
	}
	sc.rows.cells = cells
	t.loadRows(n, sc)
	dict.give(sc)
	return t, nil
}

func normalizeCRLF(s string) string {
	if strings.Contains(s, "\r\n") {
		return strings.ReplaceAll(s, "\r\n", "\n")
	}
	return s
}

// WriteCSV writes the table as CSV — a sorted-attribute header followed by
// one record per row — the inverse of LoadCSV up to row order. The writer
// is hand-rolled rather than encoding/csv because a row whose only field is
// empty must be emitted as `""`: csv.Writer prints it as a blank line,
// which readers skip as a non-record.
func (t *Table) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	writeRecord := func(rec []string) {
		for i, f := range rec {
			if i > 0 {
				bw.WriteByte(',')
			}
			if strings.ContainsAny(f, ",\"\r\n") || (f == "" && len(rec) == 1) {
				bw.WriteByte('"')
				bw.WriteString(strings.ReplaceAll(f, `"`, `""`))
				bw.WriteByte('"')
			} else {
				bw.WriteString(f)
			}
		}
		bw.WriteByte('\n')
	}
	writeRecord(t.attrs)
	rec := make([]string, len(t.attrs))
	for r := 0; r < t.rows; r++ {
		for c := range t.cols {
			rec[c] = t.dict.Value(t.cols[c][r])
		}
		writeRecord(rec)
	}
	return bw.Flush()
}
