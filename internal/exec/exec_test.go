package exec

import (
	"bytes"
	"context"
	"strconv"
	"strings"
	"testing"

	"repro/internal/hypergraph"
	"repro/internal/jointree"
	"repro/internal/relation"
)

func mustTable(t *testing.T, dict *Dict, attrs []string, rows ...[]string) *Table {
	t.Helper()
	tab, err := FromRows(dict, attrs, rows)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestTableBasics(t *testing.T) {
	d := NewDict()
	tab := mustTable(t, d, []string{"B", "A"},
		[]string{"1", "x"},
		[]string{"2", "y"},
		[]string{"1", "x"}, // duplicate collapses
	)
	if got := tab.Attrs(); got[0] != "A" || got[1] != "B" {
		t.Fatalf("attrs not sorted: %v", got)
	}
	if tab.NumRows() != 2 {
		t.Fatalf("rows = %d, want 2 (dedup)", tab.NumRows())
	}
	// Columns were permuted: A holds x/y, B holds 1/2.
	r := tab.ToRelation()
	want := relation.MustNew([]string{"A", "B"}, []string{"x", "1"}, []string{"y", "2"})
	if !r.Equal(want) {
		t.Fatalf("round trip mismatch:\n%v\nwant\n%v", r, want)
	}
	// Equal is set equality: row order does not matter, one differing row
	// does, and so does the schema.
	for _, tc := range []struct {
		attrs []string
		rows  [][]string
		equal bool
	}{
		{[]string{"A", "B"}, [][]string{{"y", "2"}, {"x", "1"}}, true},
		{[]string{"A", "B"}, [][]string{{"x", "1"}, {"y", "1"}}, false},
		{[]string{"A", "C"}, [][]string{{"x", "1"}, {"y", "2"}}, false},
		{[]string{"A", "B"}, [][]string{{"x", "1"}}, false},
	} {
		if other := mustTable(t, d, tc.attrs, tc.rows...); tab.Equal(other) != tc.equal || other.Equal(tab) != tc.equal {
			t.Fatalf("Equal(%v %v) = %v, want %v", tc.attrs, tc.rows, !tc.equal, tc.equal)
		}
	}
}

func TestTableErrors(t *testing.T) {
	d := NewDict()
	if _, err := FromRows(d, []string{"A", "A"}, nil); err == nil {
		t.Error("duplicate attribute accepted")
	}
	if _, err := FromRows(d, []string{""}, nil); err == nil {
		t.Error("empty attribute accepted")
	}
	if _, err := FromRows(d, []string{"A", "B"}, [][]string{{"1"}}); err == nil {
		t.Error("ragged row accepted")
	}
}

// TestScanJSONRowsInPlace reads rows values where they sit inside a larger
// document: the table is FromRows's, next lands just past the value, and a
// rejected value leaves the offset where it was.
func TestScanJSONRowsInPlace(t *testing.T) {
	d := NewDict()
	for _, tc := range []struct {
		doc, rest string
		rows      [][]string
	}{
		{`{"rows": [["a","b"],["c","d"],["a","b"]] ,"x":1}`, ` ,"x":1}`, [][]string{{"a", "b"}, {"c", "d"}}},
		{`{"rows":null}`, `}`, nil},
		{`{"rows":[ ]]`, `]`, nil},
		{"{\"rows\":\n[[\"\\u0041\",\"\u00e9\"]],", `,`, [][]string{{"A", "\u00e9"}}},
	} {
		i := strings.Index(tc.doc, ":") + 1
		got, next, ok := ScanJSONRows(d, []string{"B", "A"}, []byte(tc.doc), i)
		if !ok {
			t.Fatalf("%s: rejected", tc.doc)
		}
		if rest := tc.doc[next:]; rest != tc.rest {
			t.Fatalf("%s: rest %q, want %q", tc.doc, rest, tc.rest)
		}
		if want := mustTable(t, d, []string{"B", "A"}, tc.rows...); !got.Equal(want) {
			t.Fatalf("%s: built\n%v\nwant\n%v", tc.doc, got, want)
		}
	}
	for _, doc := range []string{`{"rows":[["a"]]}`, `{"rows":[["a",1]]}`, `{"rows":[["a","b"]`, `{"rows":}`} {
		if _, next, ok := ScanJSONRows(d, []string{"B", "A"}, []byte(doc), 8); ok || next != 8 {
			t.Fatalf("%s: ok %v next %d, want rejected at 8", doc, ok, next)
		}
	}
}

func TestFromRelationRoundTrip(t *testing.T) {
	r := relation.MustNew([]string{"A", "B", "C"},
		[]string{"1", "2", "3"},
		[]string{"4", "5", "6"},
		[]string{"1", "5", "3"},
	)
	tab := FromRelation(NewDict(), r)
	if !tab.ToRelation().Equal(r) {
		t.Fatalf("FromRelation/ToRelation not inverse:\n%v\nwant\n%v", tab.ToRelation(), r)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	in := "B,A\n1,x\n2,\"y,z\"\n1,x\n"
	tab, err := LoadCSV(NewDict(), strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 2 {
		t.Fatalf("rows = %d, want 2", tab.NumRows())
	}
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadCSV(NewDict(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !back.ToRelation().Equal(tab.ToRelation()) {
		t.Fatalf("CSV round trip mismatch:\n%v\nwant\n%v", back, tab)
	}
}

func TestCSVErrors(t *testing.T) {
	for _, in := range []string{
		"",             // no header
		"A,A\n1,2\n",   // duplicate attribute
		"A,\n1,2\n",    // empty attribute
		"A,B\n1\n",     // ragged row
		"A,B\n1,2,3\n", // ragged row (too wide)
	} {
		if _, err := LoadCSV(NewDict(), strings.NewReader(in)); err == nil {
			t.Errorf("LoadCSV(%q) accepted bad input", in)
		}
	}
}

func TestSemijoinMatchesRelation(t *testing.T) {
	ctx := context.Background()
	d := NewDict()
	r := mustTable(t, d, []string{"A", "B"}, []string{"1", "1"}, []string{"2", "2"}, []string{"3", "3"})
	s := mustTable(t, d, []string{"B", "C"}, []string{"1", "x"}, []string{"3", "y"})
	got, err := Semijoin(ctx, r, s)
	if err != nil {
		t.Fatal(err)
	}
	want := r.ToRelation().Semijoin(s.ToRelation())
	if !got.ToRelation().Equal(want) {
		t.Fatalf("semijoin mismatch:\n%v\nwant\n%v", got, want)
	}

	// No shared attributes: r survives iff s is nonempty.
	u := mustTable(t, d, []string{"Z"}, []string{"q"})
	full, err := Semijoin(ctx, r, u)
	if err != nil {
		t.Fatal(err)
	}
	if full.NumRows() != r.NumRows() {
		t.Fatalf("disjoint semijoin with nonempty rhs dropped rows: %d", full.NumRows())
	}
	empty := mustTable(t, d, []string{"Z"})
	none, err := Semijoin(ctx, r, empty)
	if err != nil {
		t.Fatal(err)
	}
	if none.NumRows() != 0 {
		t.Fatalf("disjoint semijoin with empty rhs kept %d rows", none.NumRows())
	}
}

func TestJoinMatchesRelation(t *testing.T) {
	ctx := context.Background()
	d := NewDict()
	r := mustTable(t, d, []string{"A", "B"}, []string{"1", "1"}, []string{"2", "2"})
	s := mustTable(t, d, []string{"B", "C"}, []string{"1", "x"}, []string{"1", "y"}, []string{"3", "z"})
	got, err := Join(ctx, r, s)
	if err != nil {
		t.Fatal(err)
	}
	want := r.ToRelation().Join(s.ToRelation())
	if !got.ToRelation().Equal(want) {
		t.Fatalf("join mismatch:\n%v\nwant\n%v", got, want)
	}

	// Cross product when no attributes are shared.
	u := mustTable(t, d, []string{"Z"}, []string{"p"}, []string{"q"})
	cross, err := Join(ctx, r, u)
	if err != nil {
		t.Fatal(err)
	}
	if cross.NumRows() != 4 {
		t.Fatalf("cross product rows = %d, want 4", cross.NumRows())
	}
}

func TestProjectMatchesRelation(t *testing.T) {
	ctx := context.Background()
	d := NewDict()
	r := mustTable(t, d, []string{"A", "B", "C"},
		[]string{"1", "1", "x"}, []string{"1", "2", "x"}, []string{"2", "2", "y"})
	got, err := Project(ctx, r, []string{"C", "A", "A"})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := r.ToRelation().Project([]string{"A", "C"})
	if !got.ToRelation().Equal(want) {
		t.Fatalf("project mismatch:\n%v\nwant\n%v", got, want)
	}
	if _, err := Project(ctx, r, []string{"Q"}); err == nil {
		t.Error("projection on unknown attribute accepted")
	}
}

func TestKernelsRejectForeignDict(t *testing.T) {
	ctx := context.Background()
	r := mustTable(t, NewDict(), []string{"A"}, []string{"1"})
	s := mustTable(t, NewDict(), []string{"A"}, []string{"1"})
	if _, err := Semijoin(ctx, r, s); err == nil {
		t.Error("semijoin across dictionaries accepted")
	}
	if _, err := Join(ctx, r, s); err == nil {
		t.Error("join across dictionaries accepted")
	}
}

// chainDB builds the schema {A,B},{B,C},{C,D} with small tables carrying
// one dangling tuple per end, the classic full-reduction fixture.
func chainDB(t *testing.T) (*hypergraph.Hypergraph, *Database, *jointree.JoinTree) {
	t.Helper()
	h := hypergraph.New([][]string{{"A", "B"}, {"B", "C"}, {"C", "D"}})
	d := NewDict()
	tables := []*Table{
		mustTable(t, d, []string{"A", "B"}, []string{"a1", "b1"}, []string{"a2", "b2"}, []string{"a3", "bX"}),
		mustTable(t, d, []string{"B", "C"}, []string{"b1", "c1"}, []string{"b2", "c2"}, []string{"bY", "c3"}),
		mustTable(t, d, []string{"C", "D"}, []string{"c1", "d1"}, []string{"c2", "d2"}, []string{"cZ", "d3"}),
	}
	db, err := NewDatabase(h, tables)
	if err != nil {
		t.Fatal(err)
	}
	jt, ok := jointree.BuildMCS(h)
	if !ok {
		t.Fatal("chain schema must be acyclic")
	}
	return h, db, jt
}

func TestReduceChain(t *testing.T) {
	_, db, jt := chainDB(t)
	res, err := Reduce(context.Background(), db, jt)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsIn != 9 {
		t.Fatalf("RowsIn = %d, want 9", res.RowsIn)
	}
	if res.RowsOut != 6 {
		t.Fatalf("RowsOut = %d, want 6 (each object loses its dangling tuple)", res.RowsOut)
	}
	if len(res.Steps) != 4 { // two up, two down
		t.Fatalf("steps = %d, want 4", len(res.Steps))
	}
	for _, s := range res.Steps {
		if s.RowsOut > s.RowsIn {
			t.Fatalf("step %v grew: %d -> %d", s.Step, s.RowsIn, s.RowsOut)
		}
	}
	// The input database is untouched.
	if db.NumRows() != 9 {
		t.Fatalf("input mutated: %d rows", db.NumRows())
	}
}

// TestReduceRejectsBadProgram: the reduction program is the join tree, so
// a tree of another schema — even one over the same number of edges — is
// rejected instead of reducing along connections the schema does not have.
func TestReduceRejectsBadProgram(t *testing.T) {
	_, db, _ := chainDB(t)
	star, ok := jointree.BuildMCS(hypergraph.New([][]string{{"A", "B"}, {"A", "C"}, {"A", "D"}}))
	if !ok {
		t.Fatal("star schema must be acyclic")
	}
	if _, err := Reduce(context.Background(), db, star); err == nil {
		t.Fatal("join tree of a foreign same-size schema accepted")
	}
}

func TestEvalChain(t *testing.T) {
	_, db, jt := chainDB(t)
	res, err := Eval(context.Background(), db, jt, []string{"A", "D"})
	if err != nil {
		t.Fatal(err)
	}
	want := relation.MustNew([]string{"A", "D"}, []string{"a1", "d1"}, []string{"a2", "d2"})
	if !res.Out.ToRelation().Equal(want) {
		t.Fatalf("eval mismatch:\n%v\nwant\n%v", res.Out, want)
	}
	if res.Reduce == nil || res.Reduce.RowsOut != 6 {
		t.Fatalf("embedded reduction missing or wrong: %+v", res.Reduce)
	}
	// Each of the two child joins matches two row pairs.
	if res.JoinRows != 4 {
		t.Fatalf("JoinRows = %d, want 4", res.JoinRows)
	}
}

func TestEvalValidation(t *testing.T) {
	h, db, jt := chainDB(t)
	ctx := context.Background()
	if _, err := Eval(ctx, db, jt, []string{"Q"}); err == nil {
		t.Error("unknown attribute accepted")
	}
	other, ok := jointree.BuildMCS(hypergraph.New([][]string{{"A", "B"}, {"B", "C"}}))
	if !ok {
		t.Fatal("setup")
	}
	if _, err := Eval(ctx, db, other, []string{"A"}); err == nil {
		t.Error("foreign join tree accepted")
	}
	_ = h
}

func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	d := NewDict()
	// Large enough that the stride check fires.
	rows := make([][]string, 3*cancelStride)
	for i := range rows {
		rows[i] = []string{strconv.Itoa(i), strconv.Itoa(i + 1)}
	}
	r := mustTable(t, d, []string{"A", "B"}, rows...)
	if _, err := Semijoin(ctx, r, r); err != context.Canceled {
		t.Errorf("Semijoin on cancelled ctx: err = %v", err)
	}
	if _, err := Join(ctx, r, r); err != context.Canceled {
		t.Errorf("Join on cancelled ctx: err = %v", err)
	}
	if _, err := Project(ctx, r, []string{"A"}); err != context.Canceled {
		t.Errorf("Project on cancelled ctx: err = %v", err)
	}
}

// countdownCtx answers Err with nil n times, then with context.Canceled:
// a context cancelled partway through a kernel.
type countdownCtx struct {
	context.Context
	n int
}

func (c *countdownCtx) Err() error {
	if c.n == 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

// TestJoinProjectCancelsOnMatches: a 3·cancelStride × 8 join projected
// onto one constant column collapses to a single row, yet the fused kernel
// still sees cancellation, on the hash kernels (a cross product) and on the
// dense ones (every r row matches all of s on B). The row checks alone
// poll the context 4 times here (3 on r, 1 indexing s), so a context
// cancelled after 8 polls is seen only through the checks on matches. A
// cancelled dense join leaves every value-id head at -1.
func TestJoinProjectCancelsOnMatches(t *testing.T) {
	d := NewDict()
	rows := make([][]string, 3*cancelStride)
	for i := range rows {
		rows[i] = []string{strconv.Itoa(i), "k"}
	}
	r := mustTable(t, d, []string{"A", "B"}, rows...)
	var cross, keyed [][]string
	for i := range 8 {
		cross = append(cross, []string{strconv.Itoa(i)})
		keyed = append(keyed, []string{"k", strconv.Itoa(i)})
	}
	for _, tc := range []struct {
		s    *Table
		js   *evalScratch
		want joinKernels
	}{
		{mustTable(t, d, []string{"C"}, cross...), nil, joinKernels{dense: false, dedup: dedupSet}},
		{mustTable(t, d, []string{"B", "C"}, keyed...), new(evalScratch), joinKernels{dense: true, dedup: dedupBitmap}},
	} {
		s := tc.s
		out, matches, k, err := joinProject(context.Background(), r, s, []string{"B"}, tc.js)
		if err != nil || out.NumRows() != 1 || matches != r.NumRows()*s.NumRows() || k != tc.want {
			t.Fatalf("uncancelled on %v: %d rows, %d matches, kernels %+v, err %v; want 1 row, %d matches, kernels %+v",
				s.Attrs(), out.NumRows(), matches, k, err, r.NumRows()*s.NumRows(), tc.want)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		for _, c := range []context.Context{ctx, &countdownCtx{Context: context.Background(), n: 8}} {
			if _, _, _, err := joinProject(c, r, s, []string{"B"}, tc.js); err != context.Canceled {
				t.Fatalf("joinProject on %v, %T: err = %v, want context.Canceled", s.Attrs(), c, err)
			}
			if tc.js != nil && !HeadsClean(tc.js) {
				t.Fatalf("a cancelled joinProject on %v, %T, leaves heads linked", s.Attrs(), c)
			}
		}
		// A cancelled join leaves its scratch clean for the next one.
		if again, _, _, err := joinProject(context.Background(), r, s, []string{"B"}, tc.js); err != nil || !again.Equal(out) {
			t.Fatalf("after cancellation on %v: err %v, rows %d, want the uncancelled result", s.Attrs(), err, again.NumRows())
		}
	}
}

func TestReduceCancellation(t *testing.T) {
	_, db, jt := chainDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Reduce(ctx, db, jt); err != context.Canceled {
		t.Errorf("Reduce on cancelled ctx: err = %v", err)
	}
	if _, err := Eval(ctx, db, jt, []string{"A"}); err != context.Canceled {
		t.Errorf("Eval on cancelled ctx: err = %v", err)
	}
}
