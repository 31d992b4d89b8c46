package exec

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzTableLoad hammers the CSV loader with arbitrary bytes: it must never
// panic, and whenever it accepts an input the resulting table must satisfy
// the Table invariants (sorted unique attributes, rectangular columns,
// distinct rows) and survive a WriteCSV/LoadCSV round trip unchanged.
func FuzzTableLoad(f *testing.F) {
	f.Add([]byte("A,B\n1,2\n3,4\n"))
	f.Add([]byte("B,A\n1,x\n1,x\n2,\"y,z\"\n"))
	f.Add([]byte("A\n\"multi\nline\"\n"))
	f.Add([]byte("A,B\n1\n"))
	f.Add([]byte(""))
	f.Add([]byte("A,A\n1,2\n"))
	f.Add([]byte(",\n1,2\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tab, err := LoadCSV(NewDict(), bytes.NewReader(data))
		if err != nil {
			return
		}
		for i := 0; i < tab.NumAttrs(); i++ {
			if tab.Attr(i) == "" {
				t.Fatal("accepted empty attribute name")
			}
			if i > 0 && tab.Attr(i-1) >= tab.Attr(i) {
				t.Fatalf("attributes not sorted-unique: %v", tab.Attrs())
			}
		}
		for c := range tab.cols {
			if len(tab.cols[c]) != tab.rows {
				t.Fatalf("ragged column %d: %d cells for %d rows", c, len(tab.cols[c]), tab.rows)
			}
		}
		// Row distinctness: rebuilding through the deduplicating FromRows
		// must not shrink the table.
		rows := make([][]string, tab.NumRows())
		for r := range rows {
			row := make([]string, tab.NumAttrs())
			for c := range row {
				row[c] = tab.Value(r, c)
			}
			rows[r] = row
		}
		rebuilt, err := FromRows(NewDict(), tab.Attrs(), rows)
		if err != nil {
			t.Fatalf("rebuilding accepted table: %v", err)
		}
		if rebuilt.NumRows() != tab.NumRows() {
			t.Fatalf("loader left duplicate rows: %d distinct of %d", rebuilt.NumRows(), tab.NumRows())
		}
		var buf bytes.Buffer
		if err := tab.WriteCSV(&buf); err != nil {
			t.Fatalf("WriteCSV on accepted table: %v", err)
		}
		back, err := LoadCSV(NewDict(), &buf)
		if err != nil {
			t.Fatalf("reloading written CSV: %v", err)
		}
		if !back.ToRelation().Equal(tab.ToRelation()) {
			t.Fatalf("round trip changed the table:\n%v\nvs\n%v", tab, back)
		}
	})
}

// FuzzJSONRows differences ScanJSONRows against the path it stands in
// for, json.Unmarshal into [][]string followed by FromRows: when the scan
// accepts and only whitespace follows the value, the oracle accepts and
// builds an Equal table; when the oracle accepts, the scan does too, so a
// caller's encoding/json fallback only ever reports errors. Neither may
// panic. The width byte picks the attributes, unsorted, up to a duplicate
// that FromRows rejects.
func FuzzJSONRows(f *testing.F) {
	for _, s := range []string{
		`[["a","b"],["c","d"]]`,
		` [ [ "a" , "b" ] ,[ "a","b"] ] `,
		`[["\"q\\\\","é"],["😀","é"],["\ud800","x\/y"]]`,
		"[[\"\xff\xfe\",\"a\"]]",
		`null`,
		`[]`,
		`[null]`,
		`[["a",null]]`,
		`[["a",1]]`,
		`[["a","b","c"]]`,
		`[["a"]]`,
		`[[["a"],"b"]]`,
		`{"a":["b"]}`,
		`[["a","b"]`,
		`[["a","b"]] x`,
		"[[\"a\tb\",\"c\"]]",
		``,
	} {
		f.Add(uint8(2), []byte(s))
	}
	f.Add(uint8(0), []byte(`[[],[]]`))
	f.Add(uint8(0), []byte(`[null,[]]`))
	f.Add(uint8(4), []byte(`[["a","b","c","d"]]`))
	f.Add(uint8(4), []byte(`[["a","b","c",7]]`))
	all := []string{"C", "A", "B", "A"}
	f.Fuzz(func(t *testing.T, width uint8, data []byte) {
		attrs := all[:int(width)%(len(all)+1)]
		dict := NewDict()
		got, next, ok := ScanJSONRows(dict, attrs, data, 0)
		accepted := ok && len(bytes.TrimLeft(data[next:], " \t\r\n")) == 0
		var rows [][]string
		want, wantErr := (*Table)(nil), json.Unmarshal(data, &rows)
		if wantErr == nil {
			want, wantErr = FromRows(dict, attrs, rows)
		}
		switch {
		case accepted && wantErr != nil:
			t.Fatalf("ScanJSONRows accepted %q, oracle err %v", data, wantErr)
		case !accepted && wantErr == nil:
			t.Fatalf("ScanJSONRows rejected rows the oracle accepts: %q", data)
		case !accepted:
			return
		}
		for c := range got.cols {
			if len(got.cols[c]) != got.rows {
				t.Fatalf("ragged column %d: %d cells for %d rows", c, len(got.cols[c]), got.rows)
			}
		}
		if !got.Equal(want) {
			t.Fatalf("ScanJSONRows built\n%v\noracle built\n%v", got, want)
		}
	})
}
