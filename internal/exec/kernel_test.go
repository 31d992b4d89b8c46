package exec_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/gendb"
	"repro/internal/jointree"
)

// identicalTables asserts byte-identical equality — same schema, same rows,
// in the same order — not just the set equality Table.Equal checks.
func identicalTables(tb testing.TB, label string, want, got *exec.Table) {
	tb.Helper()
	if want.NumRows() != got.NumRows() || want.NumAttrs() != got.NumAttrs() {
		tb.Fatalf("%s: shape differs: want %dx%d, got %dx%d",
			label, want.NumRows(), want.NumAttrs(), got.NumRows(), got.NumAttrs())
	}
	for c := 0; c < want.NumAttrs(); c++ {
		if want.Attr(c) != got.Attr(c) {
			tb.Fatalf("%s: attr %d differs: want %q, got %q", label, c, want.Attr(c), got.Attr(c))
		}
	}
	for r := 0; r < want.NumRows(); r++ {
		for c := 0; c < want.NumAttrs(); c++ {
			if want.Value(r, c) != got.Value(r, c) {
				tb.Fatalf("%s: cell (%d,%d) differs: want %q, got %q", label, r, c, want.Value(r, c), got.Value(r, c))
			}
		}
	}
}

// randomTable draws up to maxRows rows (possibly none) over a random 1–3
// attribute subset of A..D, with values from a small domain so pairs of
// tables match often.
func randomTable(rng *rand.Rand, dict *exec.Dict, maxRows int) *exec.Table {
	names := []string{"A", "B", "C", "D"}
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	attrs := names[:1+rng.Intn(3)]
	rows := make([][]string, rng.Intn(maxRows+1))
	for i := range rows {
		row := make([]string, len(attrs))
		for j := range row {
			row[j] = "v" + strconv.Itoa(rng.Intn(4))
		}
		rows[i] = row
	}
	t, err := exec.FromRows(dict, attrs, rows)
	if err != nil {
		panic(err)
	}
	return t
}

// TestDenseSemijoinMatchesHash is the kernel differential: on randomized
// table pairs — no shared column, one, or several; empty sides; and
// dictionaries padded far beyond the input — the dense semijoin, which
// marks s's values in the scratch's value-id heads, must return exactly
// the hash kernel's table (rows and row order), and both must equal
// relation.Semijoin. One scratch serves every trial, so marks from earlier
// steps must never leak: every head reads -1 after each step.
func TestDenseSemijoinMatchesHash(t *testing.T) {
	ctx := context.Background()
	reused := &exec.JoinScratch{}
	for trial := 0; trial < 400; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		dict := exec.NewDict()
		if trial%3 == 0 {
			for i := 0; i < 5000; i++ {
				dict.Intern("pad-" + strconv.Itoa(i))
			}
		}
		maxRows := 30
		if trial%50 == 0 {
			maxRows = 50000
		}
		r, s := randomTable(rng, dict, maxRows), randomTable(rng, dict, maxRows)
		want := r.ToRelation().Semijoin(s.ToRelation())
		label := fmt.Sprintf("trial %d (%v ⋉ %v, %d ⋉ %d rows)",
			trial, r.Attrs(), s.Attrs(), r.NumRows(), s.NumRows())
		hash, err := exec.Semijoin(ctx, r, s)
		if err != nil {
			t.Fatal(err)
		}
		if !hash.ToRelation().Equal(want) {
			t.Fatalf("%s: hash kernel differs from relation.Semijoin", label)
		}
		dense, err := exec.SemijoinDense(ctx, r, s, reused)
		if err != nil {
			t.Fatal(err)
		}
		identicalTables(t, label+" dense vs hash", hash, dense)
		if !exec.HeadsClean(reused) {
			t.Fatalf("%s: the scratch keeps marks after the step", label)
		}
	}
}

// TestDenseSemijoinCancellation checks that the dense semijoin and a
// reduction whose steps take it observe cancellation like every other
// kernel, and that a cancelled dense semijoin leaves its scratch clean.
func TestDenseSemijoinCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dict := exec.NewDict()
	rows := make([][]string, 3*4096)
	for i := range rows {
		rows[i] = []string{strconv.Itoa(i), strconv.Itoa(i + 1)}
	}
	r, err := exec.FromRows(dict, []string{"A", "B"}, rows)
	if err != nil {
		t.Fatal(err)
	}
	s, err := exec.FromRows(dict, []string{"B", "C"}, rows)
	if err != nil {
		t.Fatal(err)
	}
	// Cancelled at once, while marking s (s's three polls run on j =
	// 8192, 4096, 0), and while testing r's rows (after s's polls and r's
	// first): every head reads -1 afterwards.
	sc := &exec.JoinScratch{}
	for i, c := range []context.Context{ctx, exec.CancelAfter(1), exec.CancelAfter(4)} {
		if _, err := exec.SemijoinDense(c, r, s, sc); err != context.Canceled {
			t.Fatalf("dense semijoin on cancelled ctx %d: err = %v, want context.Canceled", i, err)
		}
		if !exec.HeadsClean(sc) {
			t.Fatalf("a cancelled dense semijoin (ctx %d) leaves marks in its scratch", i)
		}
	}

	rng := rand.New(rand.NewSource(11))
	h := gen.AcyclicChainIDs(40, 3, 1)
	d := gendb.Random(rng, h, gen.InstanceSpec{Rows: 3000, DomainSize: 4})
	if !exec.DenseFits(d) {
		t.Fatal("chain database should take the dense kernel")
	}
	jt, ok := jointree.BuildMCS(h)
	if !ok {
		t.Fatal("chain schema not acyclic")
	}
	if _, err := exec.Reduce(ctx, d, jt); err != context.Canceled {
		t.Fatalf("dense reduce on cancelled ctx: err = %v, want context.Canceled", err)
	}
}

// nestedLoopJoinProject is the fused kernel's reference: for each row of r,
// for each row of s ascending, the keep cells of every agreeing pair, in
// that order, each distinct row once. It returns the rows with the number
// of agreeing pairs, and uses no hashing at all.
func nestedLoopJoinProject(r, s *exec.Table, keep []string) (rows [][]string, pairs int) {
	cell := func(t *exec.Table, row int, a string) (string, bool) {
		for c := 0; c < t.NumAttrs(); c++ {
			if t.Attr(c) == a {
				return t.Value(row, c), true
			}
		}
		return "", false
	}
	seen := map[string]bool{}
	for i := 0; i < r.NumRows(); i++ {
		for j := 0; j < s.NumRows(); j++ {
			agree := true
			for c := 0; c < r.NumAttrs() && agree; c++ {
				v, ok := cell(s, j, r.Attr(c))
				agree = !ok || v == r.Value(i, c)
			}
			if !agree {
				continue
			}
			pairs++
			row := make([]string, len(keep))
			for k, a := range keep {
				v, ok := cell(r, i, a)
				if !ok {
					v, _ = cell(s, j, a)
				}
				row[k] = v
			}
			if key := strings.Join(row, "\x00"); !seen[key] {
				seen[key] = true
				rows = append(rows, row)
			}
		}
	}
	return rows, pairs
}

// TestJoinProjectMatchesNestedLoop is the fused kernel's differential: on
// randomized table pairs — cross products among them, empty sides, and
// dictionaries padded far beyond the input — π_keep(r ⋈ s) must equal the
// nested-loop reference row for row, for keep empty, every attribute, r's,
// s's, the shared ones, and random subsets in random order; and the match count must be
// |r ⋈ s| as internal/relation computes it.
func TestJoinProjectMatchesNestedLoop(t *testing.T) {
	ctx := context.Background()
	crosses := 0
	for trial := 0; trial < 300; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		dict := exec.NewDict()
		if trial%3 == 0 {
			for i := 0; i < 5000; i++ {
				dict.Intern("pad-" + strconv.Itoa(i))
			}
		}
		maxRows := 30
		if trial%25 == 0 {
			maxRows = 400
		}
		r, s := randomTable(rng, dict, maxRows), randomTable(rng, dict, maxRows)
		var all, shared []string
		for _, a := range []string{"A", "B", "C", "D"} {
			inR, inS := slices.Contains(r.Attrs(), a), slices.Contains(s.Attrs(), a)
			if inR || inS {
				all = append(all, a)
			}
			if inR && inS {
				shared = append(shared, a)
			}
		}
		if len(shared) == 0 {
			crosses++
		}
		keeps := [][]string{{}, all, r.Attrs(), s.Attrs(), shared}
		for k := 0; k < 3; k++ {
			var sub []string
			for _, a := range all {
				if rng.Intn(2) == 0 {
					sub = append(sub, a)
				}
			}
			rng.Shuffle(len(sub), func(i, j int) { sub[i], sub[j] = sub[j], sub[i] })
			keeps = append(keeps, sub)
		}
		wantPairs := r.ToRelation().Join(s.ToRelation()).Card()
		for _, keep := range keeps {
			label := fmt.Sprintf("trial %d (%v ⋈ %v, %d ⋈ %d rows) keep %v",
				trial, r.Attrs(), s.Attrs(), r.NumRows(), s.NumRows(), keep)
			got, matches, err := exec.JoinProject(ctx, r, s, keep)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			rows, pairs := nestedLoopJoinProject(r, s, keep)
			want, err := exec.FromRows(dict, keep, rows)
			if err != nil {
				t.Fatal(err)
			}
			identicalTables(t, label, want, got)
			if pairs != wantPairs || matches != wantPairs {
				t.Fatalf("%s: %d matches, nested loop %d pairs, relation.Join %d rows",
					label, matches, pairs, wantPairs)
			}
		}
	}
	if crosses == 0 {
		t.Fatal("no trial drew a pair without shared attributes")
	}
}

// TestDenseJoinMatchesHash is the join kernels' differential: on the
// randomized pairs of TestJoinProjectMatchesNestedLoop (padded
// dictionaries, cross products, empty sides) and every keep shape, the
// dense kernels Eval takes when the dictionary fits (value-id chain heads,
// bitmap dedup) must return exactly the hash probe and row set's table,
// rows and row order, and the same match count. One scratch serves every
// trial, so chain heads left by an earlier join must never leak. Pairs
// whose kept span lands exactly on the bitmap bound, 64·(|r|+|s|) bits,
// must take the bitmap, and one dictionary value more must take the set.
func TestDenseJoinMatchesHash(t *testing.T) {
	ctx := context.Background()
	js := &exec.JoinScratch{}
	var denseProbes, bitmaps, sets int
	check := func(label string, r, s *exec.Table, keep []string) (dedup string) {
		t.Helper()
		hash, hashMatches, err := exec.JoinProject(ctx, r, s, keep)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		dense, matches, denseProbe, dedup, err := exec.JoinProjectDense(ctx, r, s, keep, js)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		identicalTables(t, label+" dense vs hash", hash, dense)
		if matches != hashMatches {
			t.Fatalf("%s: dense kernels match %d pairs, hash kernels %d", label, matches, hashMatches)
		}
		if denseProbe {
			denseProbes++
		}
		switch dedup {
		case "bitmap":
			bitmaps++
		case "set":
			sets++
		}
		return dedup
	}
	for trial := 0; trial < 300; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		dict := exec.NewDict()
		if trial%3 == 0 {
			for i := 0; i < 5000; i++ {
				dict.Intern("pad-" + strconv.Itoa(i))
			}
		}
		maxRows := 30
		if trial%25 == 0 {
			maxRows = 400
		}
		r, s := randomTable(rng, dict, maxRows), randomTable(rng, dict, maxRows)
		var all, shared []string
		for _, a := range []string{"A", "B", "C", "D"} {
			inR, inS := slices.Contains(r.Attrs(), a), slices.Contains(s.Attrs(), a)
			if inR || inS {
				all = append(all, a)
			}
			if inR && inS {
				shared = append(shared, a)
			}
		}
		keeps := [][]string{{}, all, r.Attrs(), s.Attrs(), shared}
		for k := 0; k < 3; k++ {
			var sub []string
			for _, a := range all {
				if rng.Intn(2) == 0 {
					sub = append(sub, a)
				}
			}
			rng.Shuffle(len(sub), func(i, j int) { sub[i], sub[j] = sub[j], sub[i] })
			keeps = append(keeps, sub)
		}
		for _, keep := range keeps {
			check(fmt.Sprintf("trial %d (%v ⋈ %v, %d ⋈ %d rows) keep %v",
				trial, r.Attrs(), s.Attrs(), r.NumRows(), s.NumRows(), keep), r, s, keep)
		}
	}
	if denseProbes == 0 || bitmaps == 0 || sets == 0 {
		t.Fatalf("randomized trials ran %d dense probes, %d bitmaps, %d row sets; want each", denseProbes, bitmaps, sets)
	}

	// 16 rows in all, so the bound is 1,024 bits: one kept column spans
	// dict.Len() ids, two span dict.Len()².
	for _, tc := range []struct {
		keep  []string
		bound int // dictionary size whose span is exactly the bound
	}{{[]string{"A"}, 1024}, {[]string{"A", "C"}, 32}} {
		for _, size := range []int{tc.bound, tc.bound + 1} {
			dict := exec.NewDict()
			var rRows, sRows [][]string
			for i := 0; i < 8; i++ {
				rRows = append(rRows, []string{"v" + strconv.Itoa(i), "v" + strconv.Itoa(i%2)})
				sRows = append(sRows, []string{"v" + strconv.Itoa(i%2), "v" + strconv.Itoa(8+i)})
			}
			r, err := exec.FromRows(dict, []string{"A", "B"}, rRows)
			if err != nil {
				t.Fatal(err)
			}
			s, err := exec.FromRows(dict, []string{"B", "C"}, sRows)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; dict.Len() < size; i++ {
				dict.Intern("pad-" + strconv.Itoa(i))
			}
			label := fmt.Sprintf("keep %v over %d values", tc.keep, dict.Len())
			want := "set"
			if size == tc.bound {
				want = "bitmap"
			}
			if dedup := check(label, r, s, tc.keep); dedup != want {
				t.Fatalf("%s: dedup kernel %q, want %q", label, dedup, want)
			}
		}
	}
}

// TestProjectMatchesFirstOccurrence is Project's row-order differential:
// on randomized tables, some over dictionaries padded far beyond the
// input, π_keep(t) must equal the first-occurrence reference row for row
// (the first row of t with each distinct kept tuple, in t's order), for
// keep empty, every attribute, random subsets in random order, and lists
// with repeats, on the hash kernels and on the dense ones Eval runs. One
// scratch serves every trial; at least one bitmap and one row set must
// run.
func TestProjectMatchesFirstOccurrence(t *testing.T) {
	ctx := context.Background()
	sc := &exec.JoinScratch{}
	var bitmaps, sets int
	for trial := 0; trial < 300; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		dict := exec.NewDict()
		if trial%3 == 0 {
			for i := 0; i < 5000; i++ {
				dict.Intern("pad-" + strconv.Itoa(i))
			}
		}
		maxRows := 30
		if trial%25 == 0 {
			maxRows = 400
		}
		tab := randomTable(rng, dict, maxRows)
		all := tab.Attrs()
		keeps := [][]string{{}, all}
		for k := 0; k < 3; k++ {
			var sub []string
			for _, a := range all {
				if rng.Intn(2) == 0 {
					sub = append(sub, a)
				}
			}
			rng.Shuffle(len(sub), func(i, j int) { sub[i], sub[j] = sub[j], sub[i] })
			keeps = append(keeps, sub, append(slices.Clone(sub), sub...))
		}
		for _, keep := range keeps {
			label := fmt.Sprintf("trial %d (%v, %d rows) keep %v", trial, all, tab.NumRows(), keep)
			uniq := slices.Compact(slices.Sorted(slices.Values(keep)))
			var rows [][]string
			seen := map[string]bool{}
			for r := 0; r < tab.NumRows(); r++ {
				row := make([]string, len(uniq))
				for k, a := range uniq {
					row[k] = tab.Value(r, slices.Index(all, a))
				}
				if key := strings.Join(row, "\x00"); !seen[key] {
					seen[key] = true
					rows = append(rows, row)
				}
			}
			want, err := exec.FromRows(dict, uniq, rows)
			if err != nil {
				t.Fatal(err)
			}
			hash, err := exec.Project(ctx, tab, keep)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			identicalTables(t, label+" hash", want, hash)
			dense, dedup, err := exec.ProjectDense(ctx, tab, keep, sc)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			identicalTables(t, label+" dense", want, dense)
			switch dedup {
			case "bitmap":
				bitmaps++
			case "set":
				sets++
			}
		}
	}
	if bitmaps == 0 || sets == 0 {
		t.Fatalf("randomized trials ran %d bitmaps and %d row sets; want each", bitmaps, sets)
	}
}

// TestEvalBushyJoinRows pins JoinRows, the row pairs the join phase
// matches, on the eval benchmark's bushy instance, where the join phase
// collapses most of them: a query on {G, J} matches 29,728 pairs for a
// 900-row answer.
func TestEvalBushyJoinRows(t *testing.T) {
	db, jt := benchBushy(1000, 30)
	res, err := exec.Eval(context.Background(), db, jt, []string{"G", "J"})
	if err != nil {
		t.Fatal(err)
	}
	if res.JoinRows != 29728 || res.Out.NumRows() != 900 {
		t.Fatalf("JoinRows = %d, rows = %d; want 29728 and 900", res.JoinRows, res.Out.NumRows())
	}
}
