package exec_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/gendb"
	"repro/internal/jointree"
)

// randomPair draws two tables over overlapping attribute sets from one
// dictionary: r over a prefix, s over a suffix of a small attribute pool,
// so the shared region varies from empty to everything.
func randomPair(rng *rand.Rand) (*exec.Table, *exec.Table) {
	pool := []string{"A", "B", "C", "D", "E"}
	cut1 := 1 + rng.Intn(len(pool)-1)
	cut0 := rng.Intn(cut1)
	rAttrs := pool[:cut1]
	sAttrs := pool[cut0:]
	dict := exec.NewDict()
	draw := func(attrs []string) *exec.Table {
		rows := make([][]string, rng.Intn(40))
		for i := range rows {
			row := make([]string, len(attrs))
			for j := range row {
				row[j] = fmt.Sprintf("v%d", rng.Intn(4))
			}
			rows[i] = row
		}
		t, err := exec.FromRows(dict, attrs, rows)
		if err != nil {
			panic(err)
		}
		return t
	}
	return draw(rAttrs), draw(sAttrs)
}

// TestSemijoinLaws: r ⋉ s is idempotent in s ((r ⋉ s) ⋉ s = r ⋉ s) and
// shrinking (|r ⋉ s| ≤ |r|), and absorbed by the join
// ((r ⋉ s) ⋈ s = r ⋈ s) — the law that makes semijoin reduction sound.
func TestSemijoinLaws(t *testing.T) {
	ctx := context.Background()
	for trial := 0; trial < 300; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		r, s := randomPair(rng)
		rs, err := exec.Semijoin(ctx, r, s)
		if err != nil {
			t.Fatal(err)
		}
		if rs.NumRows() > r.NumRows() {
			t.Fatalf("trial %d: semijoin grew %d -> %d", trial, r.NumRows(), rs.NumRows())
		}
		again, err := exec.Semijoin(ctx, rs, s)
		if err != nil {
			t.Fatal(err)
		}
		if !again.Equal(rs) {
			t.Fatalf("trial %d: semijoin not idempotent", trial)
		}
		full, err := exec.Join(ctx, r, s)
		if err != nil {
			t.Fatal(err)
		}
		reduced, err := exec.Join(ctx, rs, s)
		if err != nil {
			t.Fatal(err)
		}
		if !full.Equal(reduced) {
			t.Fatalf("trial %d: join does not absorb the semijoin:\n%v\nvs\n%v", trial, full, reduced)
		}
	}
}

// TestJoinCommutesWithReduction: the full join of a database is unchanged
// by running the full reducer first — reduction only removes tuples that
// could never contribute to the join.
func TestJoinCommutesWithReduction(t *testing.T) {
	ctx := context.Background()
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(500 + trial)))
		h := gen.RandomAcyclic(rng, gen.RandomSpec{Edges: 2 + rng.Intn(5), MinArity: 2, MaxArity: 3})
		d := gendb.Random(rng, h, gen.InstanceSpec{Rows: 15, DomainSize: 3})
		jt, ok := jointree.BuildMCS(h)
		if !ok {
			t.Fatal("RandomAcyclic produced a cyclic schema")
		}
		res, err := exec.Reduce(ctx, d, jt)
		if err != nil {
			t.Fatal(err)
		}
		joinAll := func(tables []*exec.Table) *exec.Table {
			acc := tables[0]
			for _, tb := range tables[1:] {
				var err error
				if acc, err = exec.Join(ctx, acc, tb); err != nil {
					t.Fatal(err)
				}
			}
			return acc
		}
		before := joinAll(d.Tables)
		after := joinAll(res.DB.Tables)
		if !before.Equal(after) {
			t.Fatalf("trial %d: full join changed under reduction (%d vs %d rows)",
				trial, before.NumRows(), after.NumRows())
		}
	}
}
