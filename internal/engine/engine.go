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
	"iter"
	"maps"
	"runtime"
	"slices"
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

	shards []shard // fingerprint-keyed memo shards, len is a power of two
	mask   uint64

	hits       atomic.Int64
	misses     atomic.Int64
	evictions  atomic.Int64
	keyedWalks atomic.Int64
}

// shard is one memo partition holding both memo planes: whole-hypergraph
// Analysis sessions (memo) and the component-granular records of the
// dynamic layer (cmemo), sharing the recency clock and the mutex. Each
// plane is keyed by its full identity, so a probe is one map lookup; a
// session chain is longer than one only when two schemas with one 128-bit
// fingerprint meet in a keyed engine, where their seeded digests tell them
// apart. The slot also holds one partition of the text plane (texts, see
// AnalyzeText) under its own lock: textMu is taken alone or after some
// shard's mu, never before one, and its entries live in whichever memo
// shard their fingerprint selects. The padding puts each lock on its own
// 64-byte cache line (mutex 8 + two map headers 16 + counters 16 + 24,
// then mutex 8 + map header 8 + 48), so uncontended locks on neighboring
// shards and planes do not false-share.
type shard struct {
	mu    sync.Mutex
	memo  map[hypergraph.Fingerprint128][]*entry // fingerprint -> sessions
	cmemo map[ComponentKey]*centry               // component identity -> record
	n     int                                    // sessions across all chains
	clock uint64                                 // shard-local recency counter (see stamp)
	_     [24]byte

	textMu sync.Mutex
	texts  map[string]*entry // exact schema text -> the entry its parse interned
	_      [48]byte
}

// textSeed seeds the maphash that selects a text's text-plane shard.
var textSeed = maphash.MakeSeed()

// entry interns one hypergraph identity; the shared Analysis session
// carries every memoized facet (each computed at most once under its own
// sync.Once).
type entry struct {
	stamp
	fp    hypergraph.Fingerprint128
	keyed uint64 // seeded SipHash confirmation digest (WithKeyedDigest only)
	an    *analysis.Analysis
	text  string // the entry's text-plane key, "" for none; guarded by the shard lock
}

// centry is one connected component's memoized analysis (see
// InternComponent); its ComponentKey is its map key in shard.cmemo.
type centry struct {
	stamp
	res ComponentAnalysis
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
// predict. A query passing the very *Hypergraph its resident session was
// built from answers without the digest (an immutable Hypergraph pins its
// content); any other hypergraph, such as each fresh parse of a request,
// pays an O(total edge size) keyed walk, outside the shard lock. So the
// warm path of parsed traffic stops being ~constant-time: enable this only
// for memos shared across untrusted multi-tenant traffic.
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
	return e
}

func (e *Engine) initShards(n int) {
	size := 1
	for size < n {
		size <<= 1
	}
	e.shards = make([]shard, size)
	for i := range e.shards {
		e.shards[i].memo = make(map[hypergraph.Fingerprint128][]*entry)
		e.shards[i].cmemo = make(map[ComponentKey]*centry)
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
	KeyedWalks int64 // keyed-digest walks: queries whose hypergraph is not its session's own
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
		cn += len(s.cmemo)
		s.mu.Unlock()
	}
	return Stats{Hits: e.hits.Load(), Misses: e.misses.Load(), Evictions: e.evictions.Load(), KeyedWalks: e.keyedWalks.Load(), Entries: n, Components: cn}
}

// entryFor interns h's identity under the streaming 128-bit fingerprint
// (computed during construction, so the warm path costs a shard lock and a
// map probe — no canonical string is ever built). Equal digests are
// treated as equal content: accidental FNV-128 collisions are negligible,
// but the digest is not a defense against adversarially crafted schemas
// (see Fingerprint128) — WithKeyedDigest is. ctx carries the span context
// for the chaos site, and hit reports the memo outcome so callers can
// attribute it on their span. A non-empty text is the schema text h was
// parsed from: it becomes the entry's text-plane key, under the shard
// lock, so a concurrent eviction cannot leave it behind.
func (e *Engine) entryFor(ctx context.Context, h *hypergraph.Hypergraph, text string) (*entry, bool) {
	// Chaos site on the path of every memoized query. No error return here,
	// so only delay and panic plans can fire (see fault.EngineAnalyze).
	_ = fault.HitCtx(ctx, fault.EngineAnalyze)
	fp := h.Fingerprint128()
	s := e.memoShard(fp)
	var keyed uint64
	s.mu.Lock()
	en := e.session(s, fp, h, 0, false)
	if en == nil && e.keyed {
		// h is not a resident session's own hypergraph: confirm it by the
		// seeded digest, an O(total edge size) walk kept off the lock.
		s.mu.Unlock()
		e.keyedWalks.Add(1)
		keyedWalksStat.Inc()
		keyed = hypergraph.KeyedDigest(h, e.seed)
		s.mu.Lock()
		en = e.session(s, fp, h, keyed, true)
	}
	if en != nil {
		e.keyText(en, text)
		s.mu.Unlock()
		e.hits.Add(1)
		memoHits.Inc()
		return en, true
	}
	if vfp, victim, ok := evictOldest(e, s.n, s.sessions); ok {
		if chain := slices.DeleteFunc(s.memo[vfp], func(c *entry) bool { return c == victim }); len(chain) > 0 {
			s.memo[vfp] = chain
		} else {
			delete(s.memo, vfp)
		}
		s.n--
		e.dropText(victim)
	}
	en = &entry{fp: fp, keyed: keyed, an: analysis.New(h)}
	s.touch(&en.stamp)
	e.keyText(en, text)
	s.memo[fp] = append(s.memo[fp], en)
	s.n++
	s.mu.Unlock()
	e.misses.Add(1)
	memoMisses.Inc()
	return en, false
}

// session finds the resident session of fingerprint fp that answers h, and
// touches it; nil if none does. Unkeyed, an equal fingerprint is equal
// content. Keyed, h answers for the session built from it, since an
// immutable Hypergraph pins its content; any other session needs h's
// seeded digest, once walked. Callers hold s.mu.
func (e *Engine) session(s *shard, fp hypergraph.Fingerprint128, h *hypergraph.Hypergraph, keyed uint64, walked bool) *entry {
	for _, en := range s.memo[fp] {
		if !e.keyed || en.an.Hypergraph() == h || walked && en.keyed == keyed {
			s.touch(&en.stamp)
			return en
		}
	}
	return nil
}

// sessions yields every session of the shard with its fingerprint.
func (s *shard) sessions(yield func(hypergraph.Fingerprint128, *entry) bool) {
	for fp, chain := range s.memo {
		for _, en := range chain {
			if !yield(fp, en) {
				return
			}
		}
	}
}

// stamp is a memo record's recency: the shard clock at its last touch. A
// full plane evicts the record with the least.
type stamp struct{ seq uint64 }

func (t *stamp) touched() uint64 { return t.seq }

// touch stamps a record with the shard clock. Callers hold the shard lock.
func (s *shard) touch(t *stamp) {
	t.seq = s.clock
	s.clock++
}

// evictOldest makes room for an insert into a shard plane that holds n
// records: under the WithMaxEntries bound, a full plane gives up the
// record with the least recent touch among those all yields, which the
// caller unlinks; ok is false while the plane has room. The victim scan is
// linear in the shard's population, which the bound caps — the price of
// threading no list through the records. Callers hold the shard lock.
func evictOldest[K any, R interface{ touched() uint64 }](e *Engine, n int, all iter.Seq2[K, R]) (k K, victim R, ok bool) {
	if e.maxPerShard == 0 || n < e.maxPerShard {
		return k, victim, false
	}
	for key, r := range all {
		if !ok || r.touched() < victim.touched() {
			k, victim, ok = key, r, true
		}
	}
	e.evictions.Add(1)
	memoEvictions.Inc()
	return k, victim, ok
}

// memoShard returns the shard whose memo plane holds fingerprint fp.
func (e *Engine) memoShard(fp hypergraph.Fingerprint128) *shard {
	return &e.shards[(fp.Hi^fp.Lo)&e.mask]
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

// fold selects the shard of a component key.
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
	s := &e.shards[ck.fold()&e.mask]
	s.mu.Lock()
	en, hit := s.cmemo[ck]
	if !hit {
		s.mu.Unlock()
		built, err := build()
		if err != nil {
			return ComponentAnalysis{}, false, err
		}
		s.mu.Lock()
		// A concurrent builder may have inserted the identity first; its
		// record then answers, so every caller shares one fragment.
		if en, hit = s.cmemo[ck]; !hit {
			if victim, _, ok := evictOldest(e, len(s.cmemo), maps.All(s.cmemo)); ok {
				delete(s.cmemo, victim)
			}
			en = &centry{res: built}
			s.cmemo[ck] = en
		}
	}
	s.touch(&en.stamp)
	s.mu.Unlock()
	if hit {
		e.hits.Add(1)
		internHits.Inc()
	} else {
		e.misses.Add(1)
		internMisses.Inc()
	}
	return en.res, hit, nil
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
		s := e.memoShard(en.fp)
		s.mu.Lock()
		s.touch(&en.stamp)
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
