package exec_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/gendb"
	"repro/internal/jointree"
	"repro/internal/pool"
)

// identicalTables asserts byte-identical equality — same schema, same rows,
// in the same order — the determinism contract across pool widths and
// kernels (not just the set equality Table.Equal checks).
func identicalTables(tb testing.TB, label string, want, got *exec.Table) {
	tb.Helper()
	if want.NumRows() != got.NumRows() || want.NumAttrs() != got.NumAttrs() {
		tb.Fatalf("%s: shape differs: serial %dx%d, parallel %dx%d",
			label, want.NumRows(), want.NumAttrs(), got.NumRows(), got.NumAttrs())
	}
	for c := 0; c < want.NumAttrs(); c++ {
		if want.Attr(c) != got.Attr(c) {
			tb.Fatalf("%s: attr %d differs: serial %q, parallel %q", label, c, want.Attr(c), got.Attr(c))
		}
	}
	for r := 0; r < want.NumRows(); r++ {
		for c := 0; c < want.NumAttrs(); c++ {
			if want.Value(r, c) != got.Value(r, c) {
				tb.Fatalf("%s: cell (%d,%d) differs: serial %q, parallel %q — parallel output is not order-identical",
					label, r, c, want.Value(r, c), got.Value(r, c))
			}
		}
	}
}

// identicalSteps asserts a reduction reports the reference run's per-step
// statistics verbatim: same steps in the same order with the same
// row counts (Elapsed excluded — wall-clock is the one thing allowed to
// differ).
func identicalSteps(tb testing.TB, label string, want, got []exec.StepStats) {
	tb.Helper()
	if len(want) != len(got) {
		tb.Fatalf("%s: %d serial steps, %d parallel steps", label, len(want), len(got))
	}
	for i := range want {
		if want[i].Step != got[i].Step || want[i].RowsIn != got[i].RowsIn || want[i].RowsOut != got[i].RowsOut {
			tb.Fatalf("%s: step %d differs: serial {%v in=%d out=%d}, parallel {%v in=%d out=%d}",
				label, i,
				want[i].Step, want[i].RowsIn, want[i].RowsOut,
				got[i].Step, got[i].RowsIn, got[i].RowsOut)
		}
	}
}

// gomaxprocsValues are the scheduler widths the pool-width suite pins;
// results must not depend on the pool at any of them.
var gomaxprocsValues = []int{1, 2, 4}

// workerValues are the pool sizes swept per schema against the nil pool.
var workerValues = []int{1, 2, 4, 8}

// padDict grows d's dictionary past the database's cell count, so Reduce
// runs every step on the hash kernel instead of the dense one.
func padDict(d *exec.Database) {
	cells := 0
	for _, t := range d.Tables {
		cells += t.NumRows() * t.NumAttrs()
	}
	for i := 0; i <= cells; i++ {
		d.Dict().Intern(fmt.Sprintf("pad-%d", i))
	}
}

// TestReduceParallelMatchesSerial pins exec.Reduce on pool.New(w) against
// the nil pool across the acyclic corpus, every pool size, and several
// GOMAXPROCS values: reduced tables must be byte-identical (content and row
// order) and the per-step statistics must match step for step, in the
// tree's full-reducer program order. Every other schema pads its
// dictionary, so both semijoin kernels run on every pool width.
func TestReduceParallelMatchesSerial(t *testing.T) {
	ctx := context.Background()
	for _, gmp := range gomaxprocsValues {
		t.Run(fmt.Sprintf("gomaxprocs=%d", gmp), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(gmp)
			defer runtime.GOMAXPROCS(prev)
			for i, h := range acyclicCorpus(t) {
				rng := rand.New(rand.NewSource(int64(3000 + i)))
				d := gendb.Random(rng, h, gen.InstanceSpec{Rows: 40, DomainSize: 3})
				if i%2 == 1 {
					padDict(d)
				}
				jt, ok := jointree.BuildMCS(h)
				if !ok {
					t.Fatalf("corpus schema %d not acyclic", i)
				}
				serial, err := exec.Reduce(ctx, d, jt, nil)
				if err != nil {
					t.Fatal(err)
				}
				prog := jt.FullReducer()
				if len(prog) != len(serial.Steps) {
					t.Fatalf("schema %d: %d steps, program has %d", i, len(serial.Steps), len(prog))
				}
				for k, st := range serial.Steps {
					if st.Step != prog[k] {
						t.Fatalf("schema %d: step %d is %v, program order says %v", i, k, st.Step, prog[k])
					}
				}
				for _, w := range workerValues {
					par, err := exec.Reduce(ctx, d, jt, pool.New(w))
					if err != nil {
						t.Fatalf("schema %d workers %d: %v", i, w, err)
					}
					label := fmt.Sprintf("schema %d workers %d", i, w)
					identicalSteps(t, label, serial.Steps, par.Steps)
					if par.RowsIn != serial.RowsIn || par.RowsOut != serial.RowsOut {
						t.Fatalf("%s: totals differ: serial %d->%d, parallel %d->%d",
							label, serial.RowsIn, serial.RowsOut, par.RowsIn, par.RowsOut)
					}
					for j := range serial.DB.Tables {
						identicalTables(t, fmt.Sprintf("%s object %d", label, j),
							serial.DB.Tables[j], par.DB.Tables[j])
					}
				}
			}
		})
	}
}

// TestEvalParallelMatchesSerial pins exec.Eval on pool.New(w) against the
// nil pool the same way: identical output tables (row order included),
// identical reduction stats, and an identical JoinRows output-sensitivity
// metric — across the corpus, and across two-component schemas whose
// second component carries no query attribute, with and without an
// emptied object and with the empty query.
func TestEvalParallelMatchesSerial(t *testing.T) {
	ctx := context.Background()
	pin := func(label string, d *exec.Database, jt *jointree.JoinTree, attrs []string) {
		t.Helper()
		serial, err := exec.Eval(ctx, d, jt, attrs, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range workerValues {
			par, err := exec.Eval(ctx, d, jt, attrs, pool.New(w))
			if err != nil {
				t.Fatalf("%s workers %d: %v", label, w, err)
			}
			label := fmt.Sprintf("%s workers %d", label, w)
			identicalTables(t, label+" output", serial.Out, par.Out)
			identicalSteps(t, label, serial.Reduce.Steps, par.Reduce.Steps)
			if par.JoinRows != serial.JoinRows {
				t.Fatalf("%s: JoinRows differs: serial %d, parallel %d",
					label, serial.JoinRows, par.JoinRows)
			}
		}
	}
	for _, gmp := range gomaxprocsValues {
		t.Run(fmt.Sprintf("gomaxprocs=%d", gmp), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(gmp)
			defer runtime.GOMAXPROCS(prev)
			for i, h := range acyclicCorpus(t) {
				rng := rand.New(rand.NewSource(int64(4000 + i)))
				d := gendb.Random(rng, h, gen.InstanceSpec{Rows: 30, DomainSize: 3})
				if i%2 == 1 {
					padDict(d)
				}
				jt, ok := jointree.BuildMCS(h)
				if !ok {
					t.Fatalf("corpus schema %d not acyclic", i)
				}
				nodes := h.Nodes()
				attrs := []string{nodes[rng.Intn(len(nodes))]}
				for _, n := range nodes {
					if rng.Float64() < 0.4 {
						attrs = append(attrs, n)
					}
				}
				pin(fmt.Sprintf("schema %d", i), d, jt, attrs)
			}
			for i, pair := range unionCorpus(t) {
				rng := rand.New(rand.NewSource(int64(4500 + i)))
				jt, cases := componentCases(t, rng, pair[0], pair[1], gen.InstanceSpec{Rows: 30, DomainSize: 3})
				for _, c := range cases {
					pin(fmt.Sprintf("union %d %s", i, c.label), c.d, jt, c.attrs)
				}
			}
		})
	}
}

// TestParallelLargeInstance exercises the chunked kernels past the
// inline-chunk threshold (parThreshold rows) so the chunked probe-table
// hashing, chunked semijoin/join, and chunked first-occurrence projection
// paths actually run, on both semijoin kernels, then pins them against the
// nil pool.
func TestParallelLargeInstance(t *testing.T) {
	ctx := context.Background()
	for _, pad := range []bool{false, true} {
		rng := rand.New(rand.NewSource(99))
		h := gen.AcyclicChain(4, 2, 1)
		// About two rows per shared value: most rows survive reduction and
		// the joins stay near-linear, so the tables stay past the
		// threshold.
		d := gendb.Random(rng, h, gen.InstanceSpec{Rows: 40000, DomainSize: 20000})
		if pad {
			padDict(d)
		}
		jt, ok := jointree.BuildMCS(h)
		if !ok {
			t.Fatal("chain schema must be acyclic")
		}
		// A prefix query keeps whole objects; the endpoint query projects
		// after every join.
		nodes := h.Nodes()
		for _, attrs := range [][]string{nodes[:3], {nodes[0], nodes[len(nodes)-1]}} {
			serial, err := exec.Eval(ctx, d, jt, attrs, nil)
			if err != nil {
				t.Fatal(err)
			}
			par, err := exec.Eval(ctx, d, jt, attrs, pool.New(8))
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("large instance (padded dict %v) attrs %v", pad, attrs)
			identicalTables(t, label+" output", serial.Out, par.Out)
			identicalSteps(t, label, serial.Reduce.Steps, par.Reduce.Steps)
			if par.JoinRows != serial.JoinRows {
				t.Fatalf("%s: JoinRows differs: serial %d, parallel %d", label, serial.JoinRows, par.JoinRows)
			}
		}
	}
}

// TestParallelCancellation: an already-cancelled context aborts Reduce and
// Eval on a multi-worker pool with ctx.Err() instead of returning partial
// results.
func TestParallelCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	h := gen.AcyclicChain(4, 2, 1)
	d := gendb.Random(rng, h, gen.InstanceSpec{Rows: 40000, DomainSize: 40})
	jt, _ := jointree.BuildMCS(h)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := exec.Reduce(ctx, d, jt, pool.New(4)); err != context.Canceled {
		t.Fatalf("Reduce on cancelled ctx: err = %v, want context.Canceled", err)
	}
	if _, err := exec.Eval(ctx, d, jt, h.Nodes()[:1], pool.New(4)); err != context.Canceled {
		t.Fatalf("Eval on cancelled ctx: err = %v, want context.Canceled", err)
	}
}
