package exec

import (
	"context"
	"fmt"
	"hash/maphash"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/hypergraph"
	"repro/internal/jointree"
)

// dictOracle is the map-based dictionary Dict replaced: ids dense in
// first-sight order.
type dictOracle struct {
	ids  map[string]int32
	vals []string
}

func (o *dictOracle) intern(s string) int32 {
	if id, ok := o.ids[s]; ok {
		return id
	}
	id := int32(len(o.vals))
	o.ids[s] = id
	o.vals = append(o.vals, s)
	return id
}

// internVia interns b, the bytes of one value, through one of Dict's
// intern paths: Intern, the cloning intern, and the in-place bytes intern
// over b as given and over a copy with no capacity past its length, which
// takes the byte loop for a short value.
func internVia(d *Dict, path int, b []byte) int32 {
	switch path % 4 {
	case 0:
		return d.Intern(string(b))
	case 1:
		return d.internClone(string(b))
	case 2:
		return d.internBytes(b)
	default:
		return d.internBytes(append([]byte(nil), b...)[:len(b):len(b)])
	}
}

// checkDict compares every value and id of d with the oracle, through
// Value and Lookup.
func checkDict(t *testing.T, d *Dict, o *dictOracle) {
	t.Helper()
	if d.Len() != len(o.vals) {
		t.Fatalf("Len %d, oracle %d", d.Len(), len(o.vals))
	}
	for id, v := range o.vals {
		if got := d.Value(int32(id)); got != v {
			t.Fatalf("Value(%d) = %q, oracle %q", id, got, v)
		}
		if got, ok := d.Lookup(v); !ok || got != int32(id) {
			t.Fatalf("Lookup(%q) = %d, %v; oracle %d", v, got, ok, id)
		}
	}
}

// TestDictMatchesMap interns the values whose keys sit at the edges of
// the exact-key packing through every intern path, in several dictionaries
// whose multipliers include the degenerate 1: ids must be the oracle's
// dense first-sight ids, present and absent values must look up as in the
// oracle, and every id must map back to its value.
func TestDictMatchesMap(t *testing.T) {
	vals := []string{
		"", "a", "a\x00", "a\x00\x00", "\x00", "\x00\x00", "\x00\x00\x00\x00\x00\x00\x00",
		"abcdefg", "abcdefgh", "abcdefgX", "abcdefgY", "abcdefgXY", "abcdefg\x00",
		"\xff\xff\xff\xff\xff\xff\xff", "\xff\xff\xff\xff\xff\xff\xff\xff", "é", strings.Repeat("x", 100),
	}
	absent := []string{"b", "a\x00\x00\x00", "abcdef", "abcdefgZ", "abcdefgXYZ", "\x00\x00\x00\x00\x00\x00\x00\x00", "\xff"}
	for _, mul := range []uint64{1, 0x9e3779b97f4a7c15, 1 << 63} {
		d, o := newDict(mul, maphash.MakeSeed()), &dictOracle{ids: map[string]int32{}}
		for round := 0; round < 2; round++ { // the second round is all hits
			for path := 0; path < 4; path++ {
				for _, v := range vals {
					if got, want := internVia(d, path, []byte(v)), o.intern(v); got != want {
						t.Fatalf("mul %#x path %d: %q got id %d, oracle %d", mul, path, v, got, want)
					}
				}
			}
		}
		for _, v := range absent {
			if id, ok := d.Lookup(v); ok {
				t.Fatalf("mul %#x: absent %q found as %d", mul, v, id)
			}
		}
		checkDict(t, d, o)
	}
}

// TestDictCellAtBufferEnd interns short cells cut from a buffer twice:
// with the buffer's capacity running on past them, so the key is one word
// read past the cell unless the cell ends within 8 bytes of the buffer's
// end, and with no capacity past them, so the key is read byte by byte.
// Both must give the id of the same value interned as a string.
func TestDictCellAtBufferEnd(t *testing.T) {
	buf := []byte(`["ab","abcdefg","a"]`)
	d := NewDict()
	for _, cell := range []string{"ab", "abcdefg", "a", ""} {
		want := d.Intern(cell)
		end := strings.LastIndex(string(buf), cell)
		if cell == "" {
			end = len(buf)
		}
		for _, b := range [][]byte{buf[end : end+len(cell)], buf[end : end+len(cell) : end+len(cell)]} {
			if got := d.internBytes(b); got != want {
				t.Fatalf("%q with capacity %d: id %d, want %d", cell, cap(b), got, want)
			}
		}
	}
	if d.Len() != 4 {
		t.Fatalf("%d values, want 4", d.Len())
	}
}

// TestDictGrows interns 10⁵ distinct short and long values, so the table
// doubles many times, and checks every id against the oracle.
func TestDictGrows(t *testing.T) {
	d, o := NewDict(), &dictOracle{ids: map[string]int32{}}
	for i := 0; i < 100_000; i++ {
		v := fmt.Sprint(i) // up to 5 bytes: exact keys
		if i%3 == 0 {
			v = fmt.Sprintf("long-value-%d", i)
		}
		if got, want := internVia(d, i, []byte(v)), o.intern(v); got != want {
			t.Fatalf("%q: id %d, oracle %d", v, got, want)
		}
	}
	if 4*d.Len() > 3*len(d.slots) {
		t.Fatalf("%d values in %d slots, over 3/4 full", d.Len(), len(d.slots))
	}
	checkDict(t, d, o)
}

// FuzzDict drives a Dict with arbitrary values against the oracle. Each
// value is one length-prefixed chunk of data (low 5 bits: length, high 3:
// the intern path, 7 for a lookup only); a value's bytes run on into the
// rest of data, so the in-place intern sees every capacity from none to
// plenty. The multiplier is fuzzed too, down to the degenerate 1.
func FuzzDict(f *testing.F) {
	f.Add(uint64(1), []byte("\x01a\x02a\x00\x22a\x00\x07abcdefg\x08abcdefgh\x48abcdefgX\xe1a\xe2zz\x00\x20"))
	f.Add(uint64(0x9e3779b97f4a7c15), []byte("\x03abc\x23abc\x43abc\x63abc\x0aabcdefghij\x2aabcdefghij\xe9abcdefghi"))
	f.Fuzz(func(t *testing.T, mul uint64, data []byte) {
		d, o := newDict(mul, maphash.MakeSeed()), &dictOracle{ids: map[string]int32{}}
		for len(data) > 0 {
			path, n := int(data[0]>>5), min(int(data[0]&31), len(data)-1)
			v := data[1 : 1+n]
			data = data[1+n:]
			if path == 7 {
				id, ok := d.Lookup(string(v))
				want, wantOK := o.ids[string(v)]
				if ok != wantOK || id != want && ok {
					t.Fatalf("Lookup(%q) = %d, %v; oracle %d, %v", v, id, ok, want, wantOK)
				}
				continue
			}
			if got, want := internVia(d, path, v), o.intern(string(v)); got != want {
				t.Fatalf("path %d: %q got id %d, oracle %d", path, v, got, want)
			}
		}
		checkDict(t, d, o)
	})
}

// TestLoadIndependentOfSeed loads one rows document into dictionaries of
// different multipliers and seeds through each row loader: the value ids
// and the columns come out identical, since ids follow first sight and
// rows keep their first occurrences in order whatever the hashes.
func TestLoadIndependentOfSeed(t *testing.T) {
	var doc, csv strings.Builder
	var rows [][]string
	doc.WriteByte('[')
	csv.WriteString("C,A,B\n")
	for r := 0; r < 3000; r++ {
		k := r % 500 // each of 500 distinct rows six times
		row := []string{fmt.Sprint(k % 97), fmt.Sprintf("long-value-%d", k%41), fmt.Sprint(k % 13)}
		rows = append(rows, row)
		if r > 0 {
			doc.WriteByte(',')
		}
		fmt.Fprintf(&doc, `[%q,%q,%q]`, row[0], row[1], row[2])
		csv.WriteString(strings.Join(row, ",") + "\n")
	}
	doc.WriteByte(']')
	attrs := []string{"C", "A", "B"}
	loaders := map[string]func(d *Dict) (*Table, error){
		"ScanJSONRows": func(d *Dict) (*Table, error) {
			tab, _, ok := ScanJSONRows(d, attrs, []byte(doc.String()), 0)
			if !ok {
				return nil, fmt.Errorf("rejected")
			}
			return tab, nil
		},
		"FromRows": func(d *Dict) (*Table, error) { return FromRows(d, attrs, rows) },
		"LoadCSV":  func(d *Dict) (*Table, error) { return LoadCSV(d, strings.NewReader(csv.String())) },
	}
	for name, load := range loaders {
		var first *Table
		for _, d := range []*Dict{newDict(1, maphash.MakeSeed()), newDict(0x9e3779b97f4a7c15, maphash.MakeSeed()), NewDict()} {
			tab, err := load(d)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if first == nil {
				first = tab
				if tab.rows != 500 {
					t.Fatalf("%s: %d distinct rows, want 500", name, tab.rows)
				}
				continue
			}
			if tab.rows != first.rows || !reflect.DeepEqual(tab.cols, first.cols) || !reflect.DeepEqual(d.vals, first.dict.vals) {
				t.Fatalf("%s: the load depends on the dictionary's seed", name)
			}
		}
	}
}

// TestKernelsIndependentOfSeed runs Semijoin, Join, Project and Eval over
// one database loaded into dictionaries of different multipliers and
// seeds, each with the dense scratch and without: the columns come out
// identical, row order included, since probe chains and row sets keep row
// order whatever the hashes. r and s share two columns, so the hash probe
// runs on the scratch too, and a projection onto two of their wide columns
// overflows the bitmap bound, so the row set's slots run as well; the
// multiplier 1 puts every row in one bucket.
func TestKernelsIndependentOfSeed(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewPCG(7, 7))
	draw := func(attrs string) [][]string {
		rows := make([][]string, 200)
		for i := range rows {
			for _, a := range attrs {
				n := 150 // wide columns
				if a == 'B' || a == 'C' {
					n = 4 // key columns, so pairs match
				}
				rows[i] = append(rows[i], fmt.Sprintf("%c%d", a, rng.IntN(n)))
			}
		}
		return rows
	}
	edges := []string{"ABC", "BCD", "DE"}
	data := make([][][]string, len(edges))
	for i, e := range edges {
		data[i] = draw(e)
	}
	h := hypergraph.New([][]string{{"A", "B", "C"}, {"B", "C", "D"}, {"D", "E"}})
	jt, ok := jointree.BuildMCS(h)
	if !ok {
		t.Fatal("schema not acyclic")
	}
	// run returns every kernel's output over the database in d, with the
	// dense scratch and without, and pads d to run Eval both ways.
	run := func(d *Dict) (outs []*Table, kernels []joinKernels) {
		tabs := make([]*Table, len(edges))
		for i, e := range edges {
			tabs[i] = mustTable(t, d, strings.Split(e, ""), data[i]...)
		}
		r, s, u := tabs[0], tabs[1], tabs[2]
		add := func(out *Table, k joinKernels, err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
			outs, kernels = append(outs, out), append(kernels, k)
		}
		for _, sc := range []*evalScratch{new(evalScratch), nil} {
			for _, pair := range [][2]*Table{{r, s}, {s, u}} {
				out, kernel, err := semijoin(ctx, pair[0], pair[1], sc)
				add(out, joinKernels{dense: kernel == "dense"}, err)
			}
			for _, keep := range [][]string{{"A", "D"}, {"C", "D"}, {"A", "B", "C", "D"}} {
				out, _, k, err := joinProject(ctx, r, s, keep, sc)
				add(out, k, err)
			}
			for _, keep := range [][]string{{"A", "C"}, {"B"}} {
				add(project(ctx, r, keep, sc))
			}
		}
		for _, pad := range []bool{false, true} {
			if pad {
				for i := 0; i <= 3*len(edges)*200; i++ {
					d.Intern(fmt.Sprint("pad-", i))
				}
			}
			db, err := NewDatabase(h, tabs)
			if err != nil {
				t.Fatal(err)
			}
			if denseFits(db) == pad {
				t.Fatalf("padded %v: denseFits %v", pad, !pad)
			}
			res, err := Eval(ctx, db, jt, []string{"A", "E"})
			if err != nil {
				t.Fatal(err)
			}
			add(res.Out, joinKernels{}, nil)
			for _, red := range res.Reduce.DB.Tables {
				add(red, joinKernels{}, nil)
			}
		}
		return outs, kernels
	}
	want, kernels := run(newDict(1, maphash.MakeSeed()))
	// On the scratch: the two semijoins, the three joins, the two
	// projections.
	onScratch := []joinKernels{{}, {dense: true}, {dedup: dedupSet}, {dedup: dedupSet}, {}, {dedup: dedupSet}, {dedup: dedupBitmap}}
	if !slices.Equal(kernels[:len(onScratch)], onScratch) {
		t.Fatalf("kernels on the scratch %v, want %v", kernels[:len(onScratch)], onScratch)
	}
	for _, d := range []*Dict{newDict(0x9e3779b97f4a7c15, maphash.MakeSeed()), NewDict()} {
		got, _ := run(d)
		for i := range want {
			if got[i].rows != want[i].rows || !slices.Equal(got[i].attrs, want[i].attrs) || !reflect.DeepEqual(got[i].cols, want[i].cols) {
				t.Fatalf("output %d (%v, %d rows) depends on the dictionary's seed", i, want[i].attrs, want[i].rows)
			}
		}
	}
}

// BenchmarkDict times one dictionary probe per value over 4096 values in
// place in one buffer, as cells sit in a request body: short values (at
// most 7 bytes, exact keys) and long ones (hashed), each as hits (every
// value already interned) and misses (Lookup of values never interned).
// Run with -benchmem: hits and misses allocate nothing.
func BenchmarkDict(b *testing.B) {
	for _, kind := range []struct {
		name   string
		format string
	}{{"short", "v%d"}, {"long", "long-value-%d"}} {
		var buf []byte
		var cells [][2]int
		for i := range 4096 {
			start := len(buf)
			buf = fmt.Appendf(buf, kind.format, i)
			cells = append(cells, [2]int{start, len(buf)})
		}
		d := NewDict()
		for _, c := range cells {
			d.internBytes(buf[c[0]:c[1]])
		}
		absent := make([]string, len(cells))
		for i := range absent {
			absent[i] = fmt.Sprintf(kind.format, -i-1)
		}
		b.Run(kind.name+"/hit", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				for _, c := range cells {
					d.internBytes(buf[c[0]:c[1]])
				}
			}
		})
		b.Run(kind.name+"/miss", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				for _, s := range absent {
					if _, ok := d.Lookup(s); ok {
						b.Fatal("absent value found")
					}
				}
			}
		})
	}
}
