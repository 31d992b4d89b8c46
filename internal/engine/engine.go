// Package engine is the shared memo over the acyclicity machinery:
// per-hypergraph Analysis sessions are memoized under the streaming 128-bit
// fingerprint of internal/hypergraph, so repeated queries for the same
// schema — the dominant pattern when a service fields heavy query traffic
// over a bounded schema population — cost one digest lookup after the first
// computation. The engine runs no goroutines of its own: concurrency comes
// from its callers (the server handles requests concurrently), and the memo
// is safe for them to share.
//
// The memo is partitioned into fingerprint-keyed shards (a power of two at
// least GOMAXPROCS, rounded up), each guarded by its own mutex, so the
// warm-memo path scales across concurrent callers instead of serializing
// every request behind one lock: repeat queries touch shards uniformly (the
// fingerprint is the shard selector) and contention drops by the shard
// count.
//
// Each memo entry is a shared analysis.Analysis session, and every caller
// of Analyze coalesces on its per-facet sync.Once guards, so concurrent
// duplicate queries compute each traversal at most once per identity — the
// memoized flavor of the session-oriented API (analysis.New is the
// standalone one). Acyclicity and join trees run on the linear-time MCS
// engine (internal/mcs); the Spectrum facet runs the polynomial testers of
// internal/spectrum, so the full degree — certificates included — is
// memoized per fingerprint and classification is viable at server scale.
//
// A text plane sits in front of the fingerprint memo (AnalyzeText): it maps
// the exact schema text a session was parsed from to its memo entry, so a
// byte-for-byte repeat of a schema answers without parsing, fingerprinting
// or building a hypergraph. Map equality on the string is the byte
// compare, so a text hit is the same content in every identity mode. The
// plane follows the memo's rules: each entry holds at most one text key
// (a different spelling of the same schema replaces it), an evicted
// entry's key leaves with it, and the plane is sharded like the memo, by a
// maphash of the text, so the warm path takes no global lock.
//
// The engine also hosts the component-granular memo plane of the dynamic
// layer (InternComponent), which shares the shards, the WithMaxEntries
// bound and the WithKeyedDigest posture.
package engine

import (
	"context"
	"hash/maphash"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/analysis"
	"repro/internal/fault"
	"repro/internal/hypergraph"
	"repro/internal/obs"
)

// Memo metrics: the /metricsz mirror of the Stats() atomics, split by memo
// plane so hit rates of whole-hypergraph sessions and component records can
// be read independently (Stats aggregates them).
var (
	memoHits       = obs.C("engine_memo_hits_total")
	memoMisses     = obs.C("engine_memo_misses_total")
	memoEvictions  = obs.C("engine_memo_evictions_total")
	internHits     = obs.C("engine_intern_hits_total")
	internMisses   = obs.C("engine_intern_misses_total")
	keyedWalksStat = obs.C("engine_keyed_walks_total")
)

// Engine is a concurrent, memoizing façade over the acyclicity algorithms.
// The zero value is not usable; construct with New. Engines are safe for
// concurrent use by multiple goroutines.
type Engine struct {
	maxEntries  int // memo entry bound across all shards; 0 = unbounded
	maxPerShard int // derived per-shard cap (maxEntries / shards, at least 1)

	keyed bool   // WithKeyedDigest: confirm identities with seeded SipHash
	seed  uint64 // the keyed-digest seed (meaningful only when keyed)

	// keyedCache memoizes the per-engine keyed confirmation digest by
	// hypergraph identity (pointer — Hypergraph is immutable, so a pointer
	// pins content; a content-equal copy merely recomputes). Keying by the
	// unkeyed fingerprint instead would re-open the forgery hole the keyed
	// digest exists to close. Bounded: at keyedCacheMax entries the map is
	// dropped and restarted, so schema churn cannot grow it without bound.
	keyedMu    sync.RWMutex
	keyedCache map[*hypergraph.Hypergraph]uint64

	shards []shard // fingerprint-keyed memo shards, len is a power of two
	mask   uint64

	hits       atomic.Int64
	misses     atomic.Int64
	evictions  atomic.Int64
	keyedWalks atomic.Int64
}

// keyedCacheMax bounds the keyed-digest cache; when full it is cleared
// rather than LRU-tracked (the cache exists to make the warm steady-state
// ~constant, and a steady state fits far under the bound).
const keyedCacheMax = 4096

// shard is one memo partition holding both memo planes: whole-hypergraph
// Analysis sessions (memo) and the component-granular records of the
// dynamic layer (cmemo), each with its own entry count but sharing the
// recency clock and the mutex. The slot also holds one partition of the
// text plane (texts, see AnalyzeText) under its own lock: textMu is taken
// alone or after some shard's mu, never before one, and its entries live
// in whichever memo shard their fingerprint selects. The padding puts each
// lock on its own 64-byte cache line (mutex 8 + two map headers 16 +
// counters 24 + 16, then mutex 8 + map header 8 + 48), so uncontended
// locks on neighboring shards and planes do not false-share.
type shard struct {
	mu    sync.Mutex
	memo  map[uint64][]*entry  // fingerprint key -> entries (collision chain)
	cmemo map[uint64][]*centry // component key -> records (collision chain)
	n     int                  // memo entries across all chains
	cn    int                  // cmemo entries across all chains
	clock uint64               // shard-local recency counter (see entry.seq)
	_     [16]byte

	textMu sync.Mutex
	texts  map[string]*entry // exact schema text -> the entry its parse interned
	_      [48]byte
}

// textSeed seeds the maphash that selects a text's text-plane shard.
var textSeed = maphash.MakeSeed()

// entry interns one hypergraph identity: the full 128-bit fingerprint
// disambiguates key collisions, and the shared Analysis session carries
// every memoized facet (each computed at most once under its own
// sync.Once).
type entry struct {
	fp    hypergraph.Fingerprint128
	keyed uint64 // seeded SipHash confirmation digest (WithKeyedDigest only)
	an    *analysis.Analysis
	key   uint64 // folded fingerprint: the entry's chain in shard.memo
	seq   uint64 // shard clock at last touch; the eviction victim has the minimum
	text  string // the entry's text-plane key, "" for none; guarded by the shard lock
}

// centry interns one connected component's analysis under its commutative
// content key (see InternComponent).
type centry struct {
	ck  ComponentKey
	res ComponentAnalysis
	key uint64 // folded component key: the record's chain in shard.cmemo
	seq uint64 // shard clock at last touch
}

// Option configures an Engine.
type Option func(*Engine)

// WithShards sets the memo shard count, rounded up to a power of two.
// Values < 1 fall back to the default (GOMAXPROCS rounded up). Mostly for
// tests (a single shard makes contention and chain behavior deterministic).
func WithShards(n int) Option {
	return func(e *Engine) {
		if n >= 1 {
			e.initShards(n)
		}
	}
}

// WithMaxEntries bounds the memo: the bound is distributed evenly across
// shards (each holds at most ⌊n/shards⌋, minimum one), so at most n entries
// stay resident whenever n >= the shard count, and at most one per shard —
// the floor sharding needs — otherwise. The bound applies to each memo
// plane independently: at most n whole-hypergraph sessions AND at most n
// component records (InternComponent) stay resident, so an engine serving
// both Analyze traffic and workspaces can hold up to 2n records total.
// When a shard is full, inserting a new identity evicts its least-
// recently-touched entry — LRU-ish: recency is exact per shard, but shards
// evict independently, so the globally oldest entry survives if a
// different shard fills first. Values < 1 mean unbounded, the default. The
// bound is what makes the engine safe under adversarial schema churn:
// without it every distinct schema ever queried stays resident.
func WithMaxEntries(n int) Option {
	return func(e *Engine) {
		if n >= 1 {
			e.maxEntries = n
		}
	}
}

// WithKeyedDigest makes the memo confirm every identity with a SipHash-2-4
// digest keyed by seed, computed over the same injective encoding as the
// streaming fingerprint (hypergraph.KeyedDigest). The unkeyed memo trusts
// 128-bit FNV digest equality, which is sound against accidental collisions
// but not against adversarially crafted schemas (FNV is invertible, so a
// tenant could collide two schemas and poison the shared memo); with a
// secret seed the confirmation digest is a PRF the adversary cannot
// predict. The price is an O(total edge size) keyed walk per query instead
// of the cached-field read — the warm path stops being ~constant-time, so
// enable this only for memos shared across untrusted multi-tenant traffic.
// The component-granular memo is hardened through the same seed: workspaces
// attached to a keyed engine fold component fingerprints from
// Engine.EdgeDigest, which switches to the keyed per-edge digest.
func WithKeyedDigest(seed uint64) Option {
	return func(e *Engine) {
		e.keyed = true
		e.seed = seed
	}
}

// New returns an Engine with an empty sharded memo of GOMAXPROCS shards
// (rounded up to a power of two) unless overridden by WithShards.
func New(opts ...Option) *Engine {
	e := &Engine{}
	e.initShards(runtime.GOMAXPROCS(0))
	for _, o := range opts {
		o(e)
	}
	if e.maxEntries > 0 {
		e.maxPerShard = e.maxEntries / len(e.shards)
		if e.maxPerShard < 1 {
			e.maxPerShard = 1
		}
	}
	if e.keyed {
		e.keyedCache = make(map[*hypergraph.Hypergraph]uint64)
	}
	return e
}

func (e *Engine) initShards(n int) {
	size := 1
	for size < n {
		size <<= 1
	}
	e.shards = make([]shard, size)
	for i := range e.shards {
		e.shards[i].memo = make(map[uint64][]*entry)
		e.shards[i].cmemo = make(map[uint64][]*centry)
		e.shards[i].texts = make(map[string]*entry)
	}
	e.mask = uint64(size - 1)
}

// Shards returns the memo shard count.
func (e *Engine) Shards() int { return len(e.shards) }

// Stats reports memo effectiveness. Hits, Misses, and Evictions aggregate
// over both memo planes (whole-hypergraph sessions and component records);
// the entry counts are reported per plane.
type Stats struct {
	Hits       int64 // queries answered by an existing memo entry
	Misses     int64 // queries that created a new memo entry
	Evictions  int64 // entries dropped by the WithMaxEntries bound
	KeyedWalks int64 // keyed-digest walks actually computed (cache misses)
	Entries    int   // distinct hypergraph identities currently resident
	Components int   // distinct component identities currently resident
}

// Stats returns a snapshot of the memo counters, aggregated across shards.
func (e *Engine) Stats() Stats {
	n, cn := 0, 0
	for i := range e.shards {
		s := &e.shards[i]
		s.mu.Lock()
		n += s.n
		cn += s.cn
		s.mu.Unlock()
	}
	return Stats{Hits: e.hits.Load(), Misses: e.misses.Load(), Evictions: e.evictions.Load(), KeyedWalks: e.keyedWalks.Load(), Entries: n, Components: cn}
}

// entryFor interns h's identity under the streaming 128-bit fingerprint
// (computed during construction, so the warm path costs a shard lock and a
// map probe — no canonical string is ever built). The folded 64-bit key
// selects the shard and buckets the map; the full fingerprint disambiguates
// the chain. Equal digests are treated as equal content: accidental
// FNV-128 collisions are negligible, but the digest is not a defense
// against adversarially crafted schemas (see Fingerprint128). ctx carries
// the span context for the chaos site, and hit reports the memo outcome so
// callers can attribute it on their span. A non-empty text is the schema
// text h was parsed from: it becomes the entry's text-plane key, under the
// shard lock, so a concurrent eviction cannot leave it behind.
func (e *Engine) entryFor(ctx context.Context, h *hypergraph.Hypergraph, text string) (*entry, bool) {
	// Chaos site on the path of every memoized query. No error return here,
	// so only delay and panic plans can fire (see fault.EngineAnalyze).
	_ = fault.HitCtx(ctx, fault.EngineAnalyze)
	fp := h.Fingerprint128()
	var keyed uint64
	if e.keyed {
		// The keyed confirmation digest is engine-specific (it depends on
		// the seed), so it cannot be cached on the hypergraph itself; the
		// engine caches it per hypergraph identity instead, so the warm
		// path of trusted-but-keyed deployments regains its ~constant cost
		// (only the first query of each *Hypergraph pays the O(total edge
		// size) walk).
		keyed = e.keyedDigest(h)
	}
	key := fp.Hi ^ fp.Lo
	s := &e.shards[key&e.mask]
	s.mu.Lock()
	for _, en := range s.memo[key] {
		if en.fp == fp && en.keyed == keyed {
			s.touch(en)
			e.keyText(en, text)
			s.mu.Unlock()
			e.hits.Add(1)
			memoHits.Inc()
			return en, true
		}
	}
	if e.maxPerShard > 0 && s.n >= e.maxPerShard {
		e.dropText(s.evictOldest())
		e.evictions.Add(1)
		memoEvictions.Inc()
	}
	en := &entry{fp: fp, keyed: keyed, an: analysis.New(h), key: key}
	s.touch(en)
	e.keyText(en, text)
	s.memo[key] = append(s.memo[key], en)
	s.n++
	s.mu.Unlock()
	e.misses.Add(1)
	memoMisses.Inc()
	return en, false
}

// touch stamps en with the shard clock. Callers hold the shard lock.
func (s *shard) touch(en *entry) {
	en.seq = s.clock
	s.clock++
}

// textShard returns the shard whose text-plane partition holds text.
func (e *Engine) textShard(text string) *shard {
	return &e.shards[maphash.String(textSeed, text)&e.mask]
}

// keyText makes text en's one text-plane key, replacing any other spelling
// it held. An empty text changes nothing. Callers hold en's shard lock.
func (e *Engine) keyText(en *entry, text string) {
	if text == "" || en.text == text {
		return
	}
	e.dropText(en)
	t := e.textShard(text)
	t.textMu.Lock()
	t.texts[text] = en
	t.textMu.Unlock()
	en.text = text
}

// dropText removes en's text-plane key, if it has one. Callers hold en's
// shard lock (or en is nil, and nothing happens).
func (e *Engine) dropText(en *entry) {
	if en == nil || en.text == "" {
		return
	}
	t := e.textShard(en.text)
	t.textMu.Lock()
	delete(t.texts, en.text)
	t.textMu.Unlock()
	en.text = ""
}

// keyedDigest returns the seeded confirmation digest of h, cached by
// pointer identity (sound: Hypergraph is immutable, so a pointer pins one
// content forever; a content-equal copy under a different pointer just
// recomputes the same digest).
func (e *Engine) keyedDigest(h *hypergraph.Hypergraph) uint64 {
	e.keyedMu.RLock()
	d, ok := e.keyedCache[h]
	e.keyedMu.RUnlock()
	if ok {
		return d
	}
	e.keyedWalks.Add(1)
	keyedWalksStat.Inc()
	d = hypergraph.KeyedDigest(h, e.seed)
	e.keyedMu.Lock()
	if len(e.keyedCache) >= keyedCacheMax {
		e.keyedCache = make(map[*hypergraph.Hypergraph]uint64)
	}
	e.keyedCache[h] = d
	e.keyedMu.Unlock()
	return d
}

// evictOldest removes the entry with the smallest recency stamp and returns
// it (nil when the shard is empty). The victim scan is linear in the
// shard's population, which the WithMaxEntries cap bounds — the price of
// not threading a linked list through the chains. Callers hold the shard
// lock.
func (s *shard) evictOldest() *entry {
	var victim *entry
	for _, chain := range s.memo {
		for _, en := range chain {
			if victim == nil || en.seq < victim.seq {
				victim = en
			}
		}
	}
	if victim == nil {
		return nil
	}
	chain := s.memo[victim.key]
	for i, en := range chain {
		if en == victim {
			chain = append(chain[:i], chain[i+1:]...)
			break
		}
	}
	if len(chain) == 0 {
		delete(s.memo, victim.key)
	} else {
		s.memo[victim.key] = chain
	}
	s.n--
	return victim
}

// ComponentKey identifies one connected component's content for the
// component-granular memo plane: the commutative 128-bit sum of the
// member edges' digests (hypergraph.EdgeDigestNames, or the keyed variant
// under WithKeyedDigest — fold with Engine.EdgeDigest to match the engine's
// mode) plus the member count. The sum is order- and id-insensitive, so two
// workspaces holding the same component content — even with different node
// ids or edit histories — produce the same key and share one record; the
// count disambiguates multisets whose sums could otherwise coincide.
type ComponentKey struct {
	Sum   hypergraph.Fingerprint128
	Count int
}

// fold selects the chain key (and shard) for a component key.
func (k ComponentKey) fold() uint64 {
	return k.Sum.Hi ^ k.Sum.Lo ^ uint64(k.Count)*0x9e3779b97f4a7c15
}

// ComponentAnalysis is the memoized per-component record of the dynamic
// layer: the acyclicity verdict and, on the acyclic side, the join-tree
// fragment as parent links over the component's canonical edge order
// (edges sorted by their node-name sequences — content-determined, so the
// fragment is portable across workspaces). Records are shared and must be
// treated as read-only.
type ComponentAnalysis struct {
	Acyclic bool
	Parent  []int
}

// InternComponent returns the memoized analysis for a component identity,
// running build to produce it on first intern; hit reports whether an
// existing record answered the query. It is the component-granular intern
// path of the dynamic layer: a workspace re-analyzing an edited component
// consults the memo first, so unrelated tenants sharing subschemas hit warm
// entries instead of re-running the search. build executes outside the
// shard lock (it runs a full MCS over the component); concurrent callers
// interning the same new identity may build in parallel, and the first
// insert wins. A build error (cancellation) propagates without interning
// anything, so an abandoned build never poisons the memo. Component records
// share the WithMaxEntries bound (per shard, accounted separately from
// whole-hypergraph sessions) and the same least-recently-touched eviction.
func (e *Engine) InternComponent(ck ComponentKey, build func() (ComponentAnalysis, error)) (res ComponentAnalysis, hit bool, err error) {
	if err := fault.Hit(fault.EngineIntern); err != nil {
		return ComponentAnalysis{}, false, err
	}
	key := ck.fold()
	s := &e.shards[key&e.mask]
	s.mu.Lock()
	if en, ok := s.lookupComponent(key, ck); ok {
		s.mu.Unlock()
		e.hits.Add(1)
		internHits.Inc()
		return en.res, true, nil
	}
	s.mu.Unlock()
	built, err := build()
	if err != nil {
		return ComponentAnalysis{}, false, err
	}
	s.mu.Lock()
	if en, ok := s.lookupComponent(key, ck); ok {
		// A concurrent builder inserted the identity first; adopt its
		// record so every caller shares one fragment.
		s.mu.Unlock()
		e.hits.Add(1)
		internHits.Inc()
		return en.res, true, nil
	}
	if e.maxPerShard > 0 && s.cn >= e.maxPerShard {
		s.evictOldestComponent()
		e.evictions.Add(1)
		memoEvictions.Inc()
	}
	en := &centry{ck: ck, res: built, key: key, seq: s.clock}
	s.clock++
	s.cmemo[key] = append(s.cmemo[key], en)
	s.cn++
	s.mu.Unlock()
	e.misses.Add(1)
	internMisses.Inc()
	return built, false, nil
}

// lookupComponent finds a component record and touches its recency stamp.
// Callers hold the shard lock.
func (s *shard) lookupComponent(key uint64, ck ComponentKey) (*centry, bool) {
	for _, en := range s.cmemo[key] {
		if en.ck == ck {
			en.seq = s.clock
			s.clock++
			return en, true
		}
	}
	return nil, false
}

// evictOldestComponent is evictOldest for the component plane. Callers hold
// the shard lock.
func (s *shard) evictOldestComponent() {
	var victim *centry
	for _, chain := range s.cmemo {
		for _, en := range chain {
			if victim == nil || en.seq < victim.seq {
				victim = en
			}
		}
	}
	if victim == nil {
		return
	}
	chain := s.cmemo[victim.key]
	for i, en := range chain {
		if en == victim {
			chain = append(chain[:i], chain[i+1:]...)
			break
		}
	}
	if len(chain) == 0 {
		delete(s.cmemo, victim.key)
	} else {
		s.cmemo[victim.key] = chain
	}
	s.cn--
}

// EdgeDigest returns the per-edge digest workspaces fold ComponentKey sums
// from, in this engine's identity mode: the standard FNV fold, or the
// seeded SipHash fold under WithKeyedDigest — so the component memo plane
// inherits the engine's collision-resistance posture. names must be in a
// canonical (sorted) order for cross-workspace agreement.
func (e *Engine) EdgeDigest(names []string) hypergraph.Fingerprint128 {
	if e.keyed {
		return hypergraph.KeyedEdgeDigest(e.seed, names)
	}
	return hypergraph.EdgeDigestNames(names)
}

// Analyze returns the memoized Analysis session for h: every caller passing
// a content-equal hypergraph shares one handle, so each derived artifact —
// Verdict, MCS, JoinTree, Spectrum, GrahamTrace, FullReducer — is computed
// at most once per identity across the whole engine. The handle is safe for
// concurrent use and must be treated as read-only.
func (e *Engine) Analyze(h *hypergraph.Hypergraph) *analysis.Analysis {
	en, _ := e.entryFor(context.Background(), h, "")
	return en.an
}

// AnalyzeCtx is Analyze with trace attribution: the memo probe records as
// an "engine.memo" span carrying the hit/miss outcome and the schema size,
// and a firing chaos injection stamps it. The returned session is the same
// shared handle Analyze yields.
func (e *Engine) AnalyzeCtx(ctx context.Context, h *hypergraph.Hypergraph) *analysis.Analysis {
	ctx, sp := obs.StartSpan(ctx, "engine.memo")
	en, hit := e.entryFor(ctx, h, "")
	sp.SetBool("hit", hit)
	sp.SetInt("edges", int64(h.NumEdges()))
	sp.End()
	return en.an
}

// AnalyzeText returns the memoized Analysis session for the schema text
// (see hypergraph.Parse): the session AnalyzeCtx(ctx, h) returns for the h
// Parse builds from text. The text plane answers a byte-for-byte repeat of
// a text whose entry is still resident without parsing, fingerprinting or
// building a hypergraph; any other text is parsed, interned as AnalyzeCtx
// interns it, and becomes its entry's text key. Parse errors are returned
// unchanged and nothing is cached for them. The memo probe records as an
// "engine.memo" span carrying the hit/miss outcome, whether this call
// parsed, and the schema size; a parse runs in a "hypergraph.parse" child
// span. A text hit counts as a memo hit, touches the entry's recency, and
// passes the fault.EngineAnalyze chaos site as every memoized query does.
func (e *Engine) AnalyzeText(ctx context.Context, text string) (*analysis.Analysis, error) {
	ctx, sp := obs.StartSpan(ctx, "engine.memo")
	en, hit, parsed, err := e.textEntry(ctx, text)
	sp.SetBool("hit", hit)
	sp.SetBool("parsed", parsed)
	if err != nil {
		sp.End()
		return nil, err
	}
	sp.SetInt("edges", int64(en.an.Hypergraph().NumEdges()))
	sp.End()
	return en.an, nil
}

// textEntry is AnalyzeText's memo probe: the text plane first, then a
// parse and entryFor. parsed reports whether text was parsed.
func (e *Engine) textEntry(ctx context.Context, text string) (en *entry, hit, parsed bool, err error) {
	t := e.textShard(text)
	t.textMu.Lock()
	en = t.texts[text]
	t.textMu.Unlock()
	if en != nil {
		// The key was resident when read, so en answers text even if an
		// eviction drops it before the touch below; touching a dropped
		// entry is harmless, as its shard no longer reaches it.
		_ = fault.HitCtx(ctx, fault.EngineAnalyze)
		s := &e.shards[en.key&e.mask]
		s.mu.Lock()
		s.touch(en)
		s.mu.Unlock()
		e.hits.Add(1)
		memoHits.Inc()
		return en, true, false, nil
	}
	_, psp := obs.StartSpan(ctx, "hypergraph.parse")
	psp.SetInt("bytes", int64(len(text)))
	h, _, err := hypergraph.Parse(text)
	if err != nil {
		psp.End()
		return nil, false, true, err
	}
	psp.SetInt("edges", int64(h.NumEdges()))
	psp.SetInt("nodes", int64(h.NumNodes()))
	psp.End()
	en, hit = e.entryFor(ctx, h, text)
	return en, hit, true, nil
}
