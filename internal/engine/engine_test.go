package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"weak"

	"repro/internal/gen"
	"repro/internal/gyo"
	"repro/internal/hypergraph"
)

func workload(n int) []*hypergraph.Hypergraph {
	hs := make([]*hypergraph.Hypergraph, n)
	for i := range hs {
		rng := rand.New(rand.NewSource(int64(i)))
		if i%2 == 0 {
			hs[i] = gen.Random(rng, gen.RandomSpec{Nodes: 10, Edges: 8, MinArity: 2, MaxArity: 4})
		} else {
			hs[i] = gen.RandomAcyclic(rng, gen.RandomSpec{Edges: 10, MinArity: 2, MaxArity: 4})
		}
	}
	return hs
}

// TestBatchMatchesSerialGYO is the MCS-vs-GYO oracle: over a batch of
// instances, the memoized verdict of each agrees with Graham reduction.
func TestBatchMatchesSerialGYO(t *testing.T) {
	e := New()
	for i, h := range workload(200) {
		if got, want := e.Analyze(h).Verdict(), gyo.IsAcyclic(h); got != want {
			t.Fatalf("instance %d: engine=%v gyo=%v", i, got, want)
		}
	}
}

// TestJoinTreeBatch: over a batch of instances, a join tree exists exactly
// for the acyclic ones, and every tree satisfies the running-intersection
// property.
func TestJoinTreeBatch(t *testing.T) {
	e := New()
	for i, h := range workload(120) {
		a := e.Analyze(h)
		jt, err := a.JoinTree()
		if (err == nil) != a.Verdict() {
			t.Fatalf("instance %d: tree err=%v but acyclic=%v", i, err, a.Verdict())
		}
		if err != nil {
			if jt != nil {
				t.Fatalf("instance %d: tree for cyclic input", i)
			}
			continue
		}
		if jt == nil {
			t.Fatalf("instance %d: missing tree", i)
		}
		if err := jt.Verify(); err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
	}
}

// TestClassifyBatchAlphaAgreesWithIsAcyclic: over a batch of instances, the
// spectrum's α verdict agrees with the MCS verdict of the same memo entry.
func TestClassifyBatchAlphaAgreesWithIsAcyclic(t *testing.T) {
	e := New()
	for i, h := range workload(60) {
		a := e.Analyze(h)
		if sp := a.Spectrum(); sp.Alpha != a.Verdict() {
			t.Fatalf("instance %d: spectrum alpha=%v engine=%v", i, sp.Alpha, a.Verdict())
		}
	}
}

// TestAnalyzeSharesOneSessionPerIdentity: Analyze on content-equal inputs
// returns the same handle, and its facets run each traversal once across
// repeated Analyze calls and direct facet calls.
func TestAnalyzeSharesOneSessionPerIdentity(t *testing.T) {
	e := New()
	a1 := e.Analyze(hypergraph.Fig1())
	a2 := e.Analyze(hypergraph.Fig1()) // distinct object, same identity
	if a1 != a2 {
		t.Fatal("Analyze must return the shared session for equal content")
	}
	if !e.Analyze(hypergraph.Fig1()).Verdict() {
		t.Fatal("fig1 is acyclic")
	}
	if _, err := e.Analyze(hypergraph.Fig1()).JoinTree(); err != nil {
		t.Fatal("fig1 must have a join tree")
	}
	a1.MCS()
	if st := a1.Stats(); st.MCSRuns != 1 {
		t.Fatalf("MCS ran %d times across Analyze+session calls, want 1", st.MCSRuns)
	}
}

// TestMemoization: identical inputs (same content, distinct objects) hit the
// memo; the memo entry count tracks distinct identities.
func TestMemoization(t *testing.T) {
	e := New()
	a1 := hypergraph.Fig1()
	a2 := hypergraph.Fig1() // distinct object, same identity
	b := hypergraph.Triangle()
	batch := []*hypergraph.Hypergraph{a1, a2, b, a1, b, a2}
	want := []bool{true, true, false, true, false, true}
	for i, h := range batch {
		if got := e.Analyze(h).Verdict(); got != want[i] {
			t.Fatalf("input %d: verdict = %v, want %v", i, got, want[i])
		}
	}
	st := e.Stats()
	if st.Entries != 2 {
		t.Fatalf("entries = %d, want 2", st.Entries)
	}
	if st.Misses != 2 || st.Hits != int64(len(batch))-2 {
		t.Fatalf("stats = %+v", st)
	}
	// A join-tree query on a known identity adds no entry.
	if _, err := e.Analyze(hypergraph.Fig1()).JoinTree(); err != nil {
		t.Fatal("fig1 must have a join tree")
	}
	if st := e.Stats(); st.Entries != 2 {
		t.Fatalf("entries after join tree = %d", st.Entries)
	}
}

// TestSharedTreeIdentity: memoized join trees are shared pointers.
func TestSharedTreeIdentity(t *testing.T) {
	e := New()
	t1, _ := e.Analyze(hypergraph.Fig1()).JoinTree()
	t2, _ := e.Analyze(hypergraph.Fig1()).JoinTree()
	if t1 != t2 {
		t.Fatal("join tree must be memoized and shared")
	}
}

// TestConcurrentSingleQueries: hammer one engine from many goroutines; run
// with -race in CI.
func TestConcurrentSingleQueries(t *testing.T) {
	e := New()
	hs := workload(40)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, h := range hs {
				want := gyo.IsAcyclic(h)
				if e.Analyze(h).Verdict() != want {
					t.Errorf("goroutine %d instance %d: verdict mismatch", g, i)
					return
				}
				if _, err := e.Analyze(h).JoinTree(); (err == nil) != want {
					t.Errorf("goroutine %d instance %d: tree mismatch", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestShardConfiguration: shard counts round up to powers of two, a single
// shard still behaves, and identities spread across shards aggregate in
// Stats exactly as the single-map memo did.
func TestShardConfiguration(t *testing.T) {
	for n, want := range map[int]int{1: 1, 2: 2, 3: 4, 7: 8, 8: 8, 9: 16} {
		if got := New(WithShards(n)).Shards(); got != want {
			t.Fatalf("WithShards(%d) = %d shards, want %d", n, got, want)
		}
	}
	if New().Shards() < 1 {
		t.Fatal("default shard count must be >= 1")
	}
	for _, shards := range []int{1, 4, 32} {
		e := New(WithShards(shards))
		hs := workload(100)
		batch := append(append([]*hypergraph.Hypergraph{}, hs...), hs...) // every identity twice
		// Four goroutines split the batch, so -race hammers the shards.
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := g; i < len(batch); i += 4 {
					e.Analyze(batch[i])
				}
			}(g)
		}
		wg.Wait()
		st := e.Stats()
		if st.Entries != len(hs) {
			t.Fatalf("shards=%d: entries = %d, want %d", shards, st.Entries, len(hs))
		}
		if st.Hits+st.Misses != int64(len(batch)) || st.Misses != int64(len(hs)) {
			t.Fatalf("shards=%d: stats = %+v", shards, st)
		}
	}
}

// TestShardedMemoConcurrentWarm: concurrent warm-path traffic across shards
// must stay consistent (run with -race in CI).
func TestShardedMemoConcurrentWarm(t *testing.T) {
	e := New(WithShards(8))
	hs := workload(30)
	for _, h := range hs { // warm every identity
		e.Analyze(h).Verdict()
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, h := range hs {
				want := gyo.IsAcyclic(h)
				if e.Analyze(h).Verdict() != want {
					t.Error("warm verdict mismatch")
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := e.Stats(); st.Entries != len(hs) {
		t.Fatalf("entries = %d, want %d", st.Entries, len(hs))
	}
}

// distinctChains returns n contentually distinct hypergraphs (chain lengths
// differ, so fingerprints differ).
func distinctChains(n int) []*hypergraph.Hypergraph {
	hs := make([]*hypergraph.Hypergraph, n)
	for i := range hs {
		hs[i] = gen.AcyclicChain(2+i, 2, 1)
	}
	return hs
}

// TestMaxEntriesBoundsMemo: under WithMaxEntries the resident entry count
// never exceeds the cap, however many distinct schemas stream through.
func TestMaxEntriesBoundsMemo(t *testing.T) {
	e := New(WithShards(1), WithMaxEntries(4))
	for _, h := range distinctChains(32) {
		e.Analyze(h).Verdict()
	}
	st := e.Stats()
	if st.Entries > 4 {
		t.Fatalf("entries = %d, want <= 4", st.Entries)
	}
	if st.Evictions != 32-4 {
		t.Fatalf("evictions = %d, want %d", st.Evictions, 32-4)
	}
	if st.Misses != 32 {
		t.Fatalf("misses = %d, want 32", st.Misses)
	}
}

// TestMaxEntriesEvictsLeastRecentlyUsed: a re-touched entry survives the
// next eviction; the stalest one goes.
func TestMaxEntriesEvictsLeastRecentlyUsed(t *testing.T) {
	hs := distinctChains(3)
	a, b, c := hs[0], hs[1], hs[2]
	e := New(WithShards(1), WithMaxEntries(2))
	e.Analyze(a).Verdict() // miss: {a}
	e.Analyze(b).Verdict() // miss: {a, b}
	e.Analyze(a).Verdict() // hit: refreshes a, so b is now the eviction victim
	e.Analyze(c).Verdict() // miss: evicts b -> {a, c}
	base := e.Stats()
	if base.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", base.Evictions)
	}
	e.Analyze(a).Verdict()
	if got := e.Stats(); got.Hits != base.Hits+1 || got.Evictions != 1 {
		t.Fatalf("a was evicted: stats %+v -> %+v", base, got)
	}
	e.Analyze(b).Verdict() // b was evicted: this must be a fresh miss (and evict again)
	if got := e.Stats(); got.Misses != base.Misses+1 {
		t.Fatalf("b survived eviction: stats %+v -> %+v", base, got)
	}
}

// TestMaxEntriesConcurrent hammers a tightly bounded memo from many
// goroutines: the bound must hold at every observation and results stay
// correct (the race detector guards the bookkeeping).
func TestMaxEntriesConcurrent(t *testing.T) {
	e := New(WithShards(2), WithMaxEntries(4))
	hs := distinctChains(16)
	want := make([]bool, len(hs))
	for i, h := range hs {
		want[i] = gyo.IsAcyclic(h)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				k := rng.Intn(len(hs))
				if e.Analyze(hs[k]).Verdict() != want[k] {
					t.Error("wrong verdict under eviction churn")
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	// Per-shard cap is 4/2 = 2, so at most 4 entries total.
	if st := e.Stats(); st.Entries > 4 {
		t.Fatalf("entries = %d, want <= 4", st.Entries)
	}
}

// TestUnboundedByDefault: without WithMaxEntries nothing is ever evicted.
func TestUnboundedByDefault(t *testing.T) {
	e := New(WithShards(1))
	for _, h := range distinctChains(64) {
		e.Analyze(h).Verdict()
	}
	if st := e.Stats(); st.Entries != 64 || st.Evictions != 0 {
		t.Fatalf("stats = %+v, want 64 resident entries and no evictions", st)
	}
}

// TestInternComponent: first intern builds, repeat interns hit, distinct
// keys stay distinct, and the WithMaxEntries bound evicts component records.
func TestInternComponent(t *testing.T) {
	e := New(WithShards(1))
	keyA := ComponentKey{Sum: hypergraph.EdgeDigestNames([]string{"A", "B"}), Count: 1}
	keyB := ComponentKey{Sum: hypergraph.EdgeDigestNames([]string{"B", "C"}), Count: 1}
	builds := 0
	build := func(acyclic bool) func() (ComponentAnalysis, error) {
		return func() (ComponentAnalysis, error) {
			builds++
			return ComponentAnalysis{Acyclic: acyclic, Parent: []int{-1}}, nil
		}
	}
	res, hit, err := e.InternComponent(keyA, build(true))
	if err != nil || hit || !res.Acyclic || builds != 1 {
		t.Fatalf("first intern: hit=%v res=%+v builds=%d err=%v", hit, res, builds, err)
	}
	res, hit, err = e.InternComponent(keyA, build(false))
	if err != nil || !hit || !res.Acyclic || builds != 1 {
		t.Fatalf("repeat intern must hit without building: hit=%v res=%+v builds=%d err=%v", hit, res, builds, err)
	}
	if _, hit, _ = e.InternComponent(keyB, build(false)); hit {
		t.Fatal("distinct key must miss")
	}
	keyC := ComponentKey{Sum: hypergraph.EdgeDigestNames([]string{"C", "D"}), Count: 1}
	wantErr := errors.New("cancelled mid-build")
	if _, _, err = e.InternComponent(keyC, func() (ComponentAnalysis, error) {
		return ComponentAnalysis{}, wantErr
	}); !errors.Is(err, wantErr) {
		t.Fatalf("failing build must surface its error, got %v", err)
	}
	if _, hit, err = e.InternComponent(keyC, build(true)); err != nil || hit {
		t.Fatalf("a failed build must not intern: hit=%v err=%v", hit, err)
	}
	st := e.Stats()
	if st.Components != 3 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 3 components, 1 hit", st)
	}

	bounded := New(WithShards(1), WithMaxEntries(2))
	for i := 0; i < 5; i++ {
		k := ComponentKey{Sum: hypergraph.EdgeDigestNames([]string{"X", string(rune('a' + i))}), Count: 1}
		bounded.InternComponent(k, func() (ComponentAnalysis, error) { return ComponentAnalysis{Acyclic: true}, nil })
	}
	st = bounded.Stats()
	if st.Components > 2 || st.Evictions == 0 {
		t.Fatalf("bounded component memo: %+v, want <= 2 resident with evictions", st)
	}
}

// TestInternComponentIdentityAndEviction: component records are keyed by
// their full ComponentKey, so two keys that fold alike (and so share a
// shard) stay two records, each answering its own result; and a full plane
// evicts its least recently touched record, a hit refreshing it.
func TestInternComponentIdentityAndEviction(t *testing.T) {
	record := func(p int) func() (ComponentAnalysis, error) {
		return func() (ComponentAnalysis, error) {
			return ComponentAnalysis{Acyclic: true, Parent: []int{p}}, nil
		}
	}
	k1 := ComponentKey{Sum: hypergraph.Fingerprint128{Hi: 1}, Count: 1}
	k2 := ComponentKey{Sum: hypergraph.Fingerprint128{Lo: 1}, Count: 1}
	if k1.fold() != k2.fold() {
		t.Fatal("test keys must fold alike")
	}
	e := New(WithShards(1))
	for i, k := range []ComponentKey{k1, k2} {
		if res, hit, err := e.InternComponent(k, record(i)); err != nil || hit || res.Parent[0] != i {
			t.Fatalf("first intern of key %d: res=%+v hit=%v err=%v", i, res, hit, err)
		}
	}
	for i, k := range []ComponentKey{k1, k2} {
		if res, hit, err := e.InternComponent(k, record(-1)); err != nil || !hit || res.Parent[0] != i {
			t.Fatalf("repeat of key %d answered res=%+v hit=%v err=%v, want its own record", i, res, hit, err)
		}
	}
	if st := e.Stats(); st.Components != 2 {
		t.Fatalf("stats = %+v, want 2 component records", st)
	}

	keys := make([]ComponentKey, 3)
	for i := range keys {
		keys[i] = ComponentKey{Sum: hypergraph.Fingerprint128{Lo: uint64(i + 1)}, Count: 1}
	}
	a, b, c := keys[0], keys[1], keys[2]
	bounded := New(WithShards(1), WithMaxEntries(2))
	hits := func(k ComponentKey) bool {
		_, hit, err := bounded.InternComponent(k, record(0))
		if err != nil {
			t.Fatal(err)
		}
		return hit
	}
	hits(a) // miss: {a}
	hits(b) // miss: {a, b}
	if !hits(a) {
		t.Fatal("a must hit") // and the hit refreshes a, so b is now the eviction victim
	}
	hits(c) // miss: evicts b -> {a, c}
	if !hits(a) {
		t.Fatal("a was evicted although b was staler")
	}
	if hits(b) {
		t.Fatal("b survived eviction")
	}
	if st := bounded.Stats(); st.Evictions != 2 || st.Components != 2 || st.Hits != 2 || st.Misses != 4 {
		t.Fatalf("stats = %+v, want 2 evictions, 2 resident, 2 hits, 4 misses", st)
	}
}

// TestKeyedDigestMemo: a keyed engine still memoizes correctly (same schema
// hits, distinct schemas miss), its per-edge digest is seed-dependent, and
// two engines with different seeds produce unrelated digests.
func TestKeyedDigestMemo(t *testing.T) {
	e := New(WithShards(1), WithKeyedDigest(42))
	h1 := hypergraph.New([][]string{{"A", "B"}, {"B", "C"}})
	h2 := hypergraph.New([][]string{{"A", "B"}, {"B", "C"}})
	h3 := hypergraph.New([][]string{{"A", "B"}, {"B", "D"}})
	if !e.Analyze(h1).Verdict() || !e.Analyze(h2).Verdict() {
		t.Fatal("chains must be acyclic")
	}
	st := e.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("content-equal queries under a keyed engine: %+v, want 1 hit / 1 miss", st)
	}
	e.Analyze(h3).Verdict()
	if st = e.Stats(); st.Entries != 2 {
		t.Fatalf("distinct schemas must intern separately: %+v", st)
	}
	plain := New()
	other := New(WithKeyedDigest(43))
	names := []string{"A", "B"}
	if plain.EdgeDigest(names) != hypergraph.EdgeDigestNames(names) {
		t.Fatal("unkeyed engines must use the standard edge digest")
	}
	if e.EdgeDigest(names) == plain.EdgeDigest(names) || e.EdgeDigest(names) == other.EdgeDigest(names) {
		t.Fatal("keyed edge digests must depend on the seed")
	}
	if e.EdgeDigest(names) != hypergraph.KeyedEdgeDigest(42, names) {
		t.Fatal("keyed engines must use the seeded edge digest")
	}
}

// TestKeyedDigestWalkedOncePerIdentity is the regression test for the
// keyed-digest rewalk bug: a keyed engine used to recompute the O(total
// edge size) confirmation digest on *every* query, so the warm path lost
// its ~constant cost exactly in the hardened deployments that need the
// digest. The walk must run once per hypergraph identity, however many
// queries repeat it.
func TestKeyedDigestWalkedOncePerIdentity(t *testing.T) {
	e := New(WithShards(1), WithKeyedDigest(7))
	h := hypergraph.New([][]string{{"A", "B"}, {"B", "C"}, {"C", "D"}})
	for i := 0; i < 100; i++ {
		if !e.Analyze(h).Verdict() {
			t.Fatal("chain must be acyclic")
		}
	}
	if st := e.Stats(); st.KeyedWalks != 1 {
		t.Fatalf("KeyedWalks = %d after 100 warm queries of one identity, want 1", st.KeyedWalks)
	}

	// A content-equal copy is a new identity: it pays one walk of its own,
	// then lands on the same memo entry (the digests agree).
	h2 := hypergraph.New([][]string{{"A", "B"}, {"B", "C"}, {"C", "D"}})
	if !e.Analyze(h2).Verdict() {
		t.Fatal("copy must be acyclic")
	}
	st := e.Stats()
	if st.KeyedWalks != 2 {
		t.Fatalf("KeyedWalks = %d after a content-equal copy, want 2", st.KeyedWalks)
	}
	if st.Entries != 1 {
		t.Fatalf("content-equal copies must share one memo entry, got %d", st.Entries)
	}

	// An unkeyed engine never walks.
	plain := New(WithShards(1))
	plain.Analyze(h).Verdict()
	if got := plain.Stats().KeyedWalks; got != 0 {
		t.Fatalf("unkeyed engine reported %d keyed walks", got)
	}
}

// TestKeyedEngineReleasesEvicted: a keyed engine holds a hypergraph only
// through its resident sessions, so the schemas the WithMaxEntries bound
// evicts become garbage.
func TestKeyedEngineReleasesEvicted(t *testing.T) {
	e := New(WithShards(1), WithMaxEntries(4), WithKeyedDigest(5))
	refs := make([]weak.Pointer[hypergraph.Hypergraph], 64)
	for i := range refs {
		h := gen.AcyclicChain(2+i, 2, 1)
		e.Analyze(h).Verdict()
		refs[i] = weak.Make(h)
	}
	runtime.GC()
	runtime.GC()
	live := 0
	for _, r := range refs {
		if r.Value() != nil {
			live++
		}
	}
	runtime.KeepAlive(e)
	if live > 4 {
		t.Fatalf("%d of %d hypergraphs still reachable, want at most the 4 resident", live, len(refs))
	}
}

// BenchmarkKeyedWarmQuery pins the pointer rule: a warm keyed query of the
// session's own hypergraph is a memo probe and a pointer compare, with no
// seeded walk, so its cost is independent of schema size.
func BenchmarkKeyedWarmQuery(b *testing.B) {
	e := New(WithKeyedDigest(11))
	edges := make([][]string, 400)
	for i := range edges {
		edges[i] = []string{fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1)}
	}
	h := hypergraph.New(edges)
	e.Analyze(h).Verdict() // warm the memo: h is now its session's own hypergraph
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Analyze(h).Verdict()
	}
}
