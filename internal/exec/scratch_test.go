package exec

import (
	"context"
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/hypergraph"
	"repro/internal/jointree"
)

// scratchDB is a three-object database whose Eval runs semijoins that
// filter (gather), a dense join and a projection, all on the Dict's
// scratch: its data, schema and join tree.
type scratchDB struct {
	edges [][]string
	data  [][][]string
	h     *hypergraph.Hypergraph
	jt    *jointree.JoinTree
}

func newScratchDB(t *testing.T, seed uint64, rows int) *scratchDB {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, seed))
	db := &scratchDB{edges: [][]string{{"A", "B"}, {"B", "C"}, {"C", "D"}}}
	for _, e := range db.edges {
		var tab [][]string
		for range rows {
			var row []string
			for _, a := range e {
				n := 40
				if a == "B" || a == "C" {
					n = 60 // some rows find no partner, so semijoins filter
				}
				row = append(row, fmt.Sprintf("%s%d", strings.ToLower(a), rng.IntN(n)))
			}
			tab = append(tab, row)
		}
		db.data = append(db.data, tab)
	}
	db.h = hypergraph.New(db.edges)
	var ok bool
	if db.jt, ok = jointree.BuildMCS(db.h); !ok {
		t.Fatal("schema not acyclic")
	}
	return db
}

// load loads the database into d.
func (s *scratchDB) load(t *testing.T, d *Dict) *Database {
	t.Helper()
	tabs := make([]*Table, len(s.edges))
	for i, e := range s.edges {
		tabs[i] = mustTable(t, d, e, s.data[i]...)
	}
	db, err := NewDatabase(s.h, tabs)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// eval answers the query {A, D} over the database loaded into d, and
// returns the output and the reduced tables.
func (s *scratchDB) eval(t *testing.T, ctx context.Context, d *Dict) ([]*Table, error) {
	t.Helper()
	res, err := Eval(ctx, s.load(t, d), s.jt, []string{"A", "D"})
	if err != nil {
		return nil, err
	}
	return append([]*Table{res.Out}, res.Reduce.DB.Tables...), nil
}

// sameTables fails unless got and want hold the same attributes, values
// and rows, row order included.
func sameTables(t *testing.T, got, want []*Table) {
	t.Helper()
	for i := range want {
		g, w := got[i], want[i]
		if g.rows != w.rows || !slices.Equal(g.attrs, w.attrs) {
			t.Fatalf("table %d: %v, %d rows; want %v, %d rows", i, g.attrs, g.rows, w.attrs, w.rows)
		}
		for r := range g.rows {
			for c := range g.cols {
				if g.Value(r, c) != w.Value(r, c) {
					t.Fatalf("table %d cell (%d, %d): %q, want %q", i, r, c, g.Value(r, c), w.Value(r, c))
				}
			}
		}
	}
}

// TestResetDrawsFreshSeed: a Dict reset between loads draws a new
// multiplier and seed each time, yet every load through each row loader
// assigns the value ids and columns a fresh Dict assigns, and an Eval over
// the reset Dict, whose columns are cut from the rewound slab, answers
// what one over a fresh Dict answers.
func TestResetDrawsFreshSeed(t *testing.T) {
	var doc, csv strings.Builder
	var rows [][]string
	doc.WriteByte('[')
	csv.WriteString("B,A\n")
	for r := range 2000 {
		row := []string{fmt.Sprint(r % 97), fmt.Sprintf("long-value-%d", r%131)}
		rows = append(rows, row)
		if r > 0 {
			doc.WriteByte(',')
		}
		fmt.Fprintf(&doc, `[%q,%q]`, row[0], row[1])
		csv.WriteString(strings.Join(row, ",") + "\n")
	}
	doc.WriteByte(']')
	attrs := []string{"B", "A"}
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
		fresh := NewDict()
		want, err := load(fresh)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		d := NewDict()
		muls := map[uint64]bool{}
		for round := range 3 {
			if round > 0 {
				d.Reset()
			}
			muls[d.mul] = true
			got, err := load(d)
			if err != nil {
				t.Fatalf("%s round %d: %v", name, round, err)
			}
			if got.rows != want.rows || !reflect.DeepEqual(got.cols, want.cols) || !slices.Equal(d.vals, fresh.vals) {
				t.Fatalf("%s round %d: the load on a reset Dict differs from a fresh Dict's", name, round)
			}
		}
		if len(muls) != 3 {
			t.Fatalf("%s: three loads drew %d multipliers", name, len(muls))
		}
	}

	db := newScratchDB(t, 3, 600)
	want, err := db.eval(t, context.Background(), NewDict())
	if err != nil {
		t.Fatal(err)
	}
	d := NewDict()
	for round := range 3 {
		d.Reset()
		got, err := db.eval(t, context.Background(), d)
		if err != nil {
			t.Fatal(err)
		}
		sameTables(t, got, want)
		if round > 0 && (d.scratch.Load() == nil || cap(d.scratch.Load().slab) == 0) {
			t.Fatalf("round %d: no slab kept for reuse", round)
		}
	}
}

// TestCancelledEvalLeavesScratchClean: an Eval cancelled at each of its
// first context polls hands its scratch back with every value-id head at
// -1, and the next Eval on the reset Dict answers as a fresh Dict does.
func TestCancelledEvalLeavesScratchClean(t *testing.T) {
	db := newScratchDB(t, 5, 600)
	want, err := db.eval(t, context.Background(), NewDict())
	if err != nil {
		t.Fatal(err)
	}
	d := NewDict()
	cancelled := 0
	for n := range 40 {
		d.Reset()
		if _, err := db.eval(t, CancelAfter(n), d); err == nil {
			continue
		}
		cancelled++
		sc := d.scratch.Load()
		if sc == nil {
			t.Fatalf("cancel after %d polls: the scratch was not handed back", n)
		}
		if !HeadsClean(sc) {
			t.Fatalf("cancel after %d polls: heads left linked", n)
		}
		d.Reset()
		got, err := db.eval(t, context.Background(), d)
		if err != nil {
			t.Fatal(err)
		}
		sameTables(t, got, want)
	}
	if cancelled == 0 {
		t.Fatal("no Eval was cancelled")
	}
}

// TestDictScratchBounded: a Dict whose load grew its scratch past
// maxScratch does not keep it, and one whose values outgrew maxScratch
// gets a minimal slot table back from Reset; either way the next load
// matches a fresh Dict's.
func TestDictScratchBounded(t *testing.T) {
	big := make([][]string, 300_000)
	for i := range big {
		big[i] = []string{fmt.Sprint(i)}
	}
	d := NewDict()
	mustTable(t, d, []string{"A"}, big...)
	if sc := d.scratch.Load(); sc != nil {
		t.Fatalf("a %d-byte scratch was kept, bound %d", sc.bytes(), maxScratch)
	}
	d.Reset()
	if len(d.slots) != minSlots || cap(d.vals) != 0 {
		t.Fatalf("reset kept %d slots and room for %d values", len(d.slots), cap(d.vals))
	}
	db := newScratchDB(t, 9, 300)
	want, err := db.eval(t, context.Background(), NewDict())
	if err != nil {
		t.Fatal(err)
	}
	got, err := db.eval(t, context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	sameTables(t, got, want)
	if sc := d.scratch.Load(); sc == nil || sc.bytes() > maxScratch {
		t.Fatal("an ordinary Eval left no scratch within the bound")
	}
}

// TestConcurrentEvalsShareDict: Evals over one database run concurrently,
// each on the Dict's scratch or, while another holds it, a fresh one, and
// all answer what a serial Eval answers. Run with -race.
func TestConcurrentEvalsShareDict(t *testing.T) {
	s := newScratchDB(t, 11, 600)
	d := NewDict()
	db := s.load(t, d)
	eval := func() ([]*Table, error) {
		res, err := Eval(context.Background(), db, s.jt, []string{"A", "D"})
		if err != nil {
			return nil, err
		}
		return append([]*Table{res.Out}, res.Reduce.DB.Tables...), nil
	}
	want, err := eval()
	if err != nil {
		t.Fatal(err)
	}
	results := make([][]*Table, 4)
	var wg sync.WaitGroup
	for g := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 5 {
				out, err := eval()
				if err != nil {
					t.Error(err)
					return
				}
				results[g] = out
			}
		}()
	}
	wg.Wait()
	for _, got := range results {
		if got != nil {
			sameTables(t, got, want)
		}
	}
}
