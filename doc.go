// Package repro is a Go library reproducing Maier & Ullman, "Connections in
// Acyclic Hypergraphs" (PODS 1982; Theoretical Computer Science 32, 1984):
// Graham (GYO) reduction with sacred nodes, tableau reduction and canonical
// connections, independent trees and paths, the block decomposition, and the
// universal-relation database interpretation of acyclic schemas.
//
// The root package is a facade over the implementation packages under
// internal/: it re-exports the core types and offers name-based helpers so
// applications can work with plain string node names.
//
// # Quick start: the session-oriented API
//
// The paper's artifacts — acyclicity verdict, join tree, acyclicity
// spectrum, reduction trace, full reducer — are all derived views of one
// hypergraph, so the API hands them out through one session: Analyze opens
// a concurrency-safe Analysis whose facets are computed lazily and cached,
// each underlying traversal running at most once per handle (the join tree
// reuses the MCS order the verdict computed, the spectrum's α component is
// the verdict, and so on). The Theorem 6.1 cyclicity witness is the free
// function IndependentPathWitness.
//
//	h := repro.NewHypergraph([][]string{
//		{"A", "B", "C"}, {"C", "D", "E"}, {"A", "E", "F"}, {"A", "C", "E"},
//	})
//	a := repro.Analyze(h)
//	a.Verdict()                  // true — this is the paper's Fig. 1
//	jt, _ := a.JoinTree()        // reuses the verdict's traversal
//	prog, _ := a.FullReducer()   // semijoin program read off jt
//	a.Spectrum()                 // α✓ β✗ γ✗ Berge✗
//
//	gr, _ := repro.GrahamReduction(h, "A", "D") // {{A,C,E}, {C,D,E}}
//	cc, _ := repro.CanonicalConnection(h, "A", "D")
//	gr.EqualEdges(cc)                           // true — Theorem 3.5
//
// Construction goes through the Builder (NewHypergraph,
// NewHypergraphFromIDs, and ParseHypergraph are thin wrappers over it):
//
//	h, err := repro.NewBuilder().
//		NamedEdge("R1", "A", "B", "C").
//		Edge("C", "D", "E").
//		Build()
//
// # Migration from the stateless facade
//
// The pre-session free functions have been removed; each maps to an
// Analysis facet of a := repro.Analyze(h):
//
//	removed free function              session method
//	---------------------------------  -------------------------------
//	repro.IsAcyclic(h)                 a.Verdict()
//	repro.IsAcyclicGYO(h)              a.GrahamTrace().Vanished()
//	repro.MCS(h)                       a.MCS()
//	repro.BuildJoinTree(h)             a.JoinTree() (ErrCyclic, not false)
//	repro.BuildJoinTreeMCS(h)          a.JoinTree()
//	repro.Classify(h)                  a.Spectrum()
//	jt.FullReducer()                   a.FullReducer()
//
// Two later facets are gone as well. a.Classification() was a view of the
// spectrum with the degree and certificates dropped; a.Spectrum() replaces
// it, and its String renders the same text. a.Witness() is the free
// function IndependentPathWitness(h) again: the witness search belongs to
// the paper's reproduction packages, which the session layer (and so the
// server) does not link.
//
// Operations report structured errors satisfying errors.Is / errors.As:
// ErrCyclic (no join tree exists), ErrCyclicSchema (schema-level, wraps
// ErrCyclic), *ErrUnknownNode (carries the offending name), *ErrParse
// (carries 1-based line and column), and — on the mutable surface —
// *ErrStaleEpoch (an edited-past analysis handle), *ErrUnknownEdge, and
// *ErrNodeExists.
//
// # Mutable workspaces
//
// Every surface above assumes a frozen Hypergraph, so a schema that
// changes by one edge would pay a full from-scratch traversal per query.
// The mutable surface removes that: NewWorkspace opens a concurrency-safe
// Workspace with AddEdge / RemoveEdge / RenameNode edits, and its analyses
// are *maintained* under edits. The paper's structure theory decomposes
// over connected components — a hypergraph is α-acyclic iff every component
// is, and a join forest is the union of per-component join trees — so the
// workspace tracks components incrementally (components union on insert; a
// delete triggers a rebuild bounded by the touched component), keeps a
// deletion-capable 128-bit fingerprint, verdict, and join-tree fragment per
// component, and re-analyzes only the components an edit touches. On a
// multi-component schema a component-local edit re-analyzes orders of
// magnitude faster than a from-scratch Analyze (BENCH_dynamic.json).
//
// An ear edit re-analyzes nothing. Graham reduction deletes ears — edges
// whose overlap with the rest of their component lies inside one other
// member f — so adding an ear to a settled α-acyclic component keeps it
// acyclic, and the workspace hangs the new edge as a join-tree leaf under
// f; removing a leaf hung that way gives back the tree from before. Both
// cost the edit, not the component (dynamic_ear_edits_total on /metricsz
// counts them), and every other edit dirties its component as before. So
// a.Parent() is always a valid join forest of the handle's epoch, and it is
// the canonical, content-determined forest a full settle derives whenever
// no ear is hung; a component with ears hung is never interned in the
// engine memo.
//
// ws.Analysis() returns an epoch guard around one Analysis session: the
// verdict is settled by the edits, and a.Parent() reads the join forest's
// parent links straight off the per-component join-tree fragments — once
// per handle, with no hypergraph built. The first derived facet (Snapshot,
// JoinTree, FullReducer, Spectrum, GrahamTrace, Reduce, Eval) builds the
// session over the epoch snapshot, seeded with that verdict and the same
// parent links, so no facet re-runs the search. Every other facet is the
// frozen session's own code: computed at most once per handle, traced with
// the same facet.* spans, and coalesced deadline-aware — a caller waiting
// behind another caller's in-flight spectrum or Graham trace observes its
// own context.
//
//	ws := repro.NewWorkspace()
//	ws.AddEdge("A", "B", "C")
//	id, _ := ws.AddEdge("C", "D")
//	a := ws.Analysis()           // epoch-bound handle; only dirty components settle
//	a.Verdict()
//	parent, _ := a.Parent()      // forest parent links; no snapshot built
//	jt, _ := a.JoinTree()        // union of per-component fragments; no re-search
//	ws.RemoveEdge(id)            // bumps the epoch
//	_, err := a.JoinTree()       // *ErrStaleEpoch — edits invalidate loudly
//	a = ws.Analysis()            // rebind to the current epoch
//
// Migrating from the immutable surface:
//
//	immutable (frozen Hypergraph)       mutable (Workspace)
//	----------------------------------  -----------------------------------
//	h := NewHypergraph(edges)           ws := NewWorkspace() + AddEdge per edge
//	h (rebuilt per change)              ws.AddEdge / RemoveEdge / RenameNode
//	h passed to frozen APIs             ws.Snapshot() (cached per epoch)
//	a := Analyze(h)                     a := ws.Analysis() (epoch guard)
//	a.Verdict()                         a.Verdict() (incremental, O(1) warm)
//	a.JoinTree()                        a.JoinTree() (seeded fragment union)
//	a.JoinTree().Parent                 a.Parent() (no snapshot built)
//	a.GrahamTrace()                     a.GrahamTrace(ctx) (cancellable)
//	a.Spectrum()                        a.Spectrum(ctx) (α incremental)
//	a.FullReducer()                     a.FullReducer() (epoch-checked)
//	IndependentPathWitness(h)           IndependentPathWitness(ws.Snapshot())
//	a.Reduce / a.Eval                   same, epoch-checked per call
//	Engine.Analyze(h) (memoized)        NewWorkspace(WithWorkspaceEngine(e))
//	NewHypergraphFromIDs / Parse + h    NewWorkspaceFrom(h)
//
// Consistency under edits is explicit rather than silent: an Analysis
// handle is bound to the epoch it was taken at, and once the workspace is
// edited past it, every derived facet — join tree, full reducer, the exec
// plans behind Reduce and Eval — reports *ErrStaleEpoch instead of serving
// artifacts of a hypergraph that no longer exists. Workspaces attached to
// an engine (WithWorkspaceEngine) re-analyze components through the
// engine's component-granular memo: the component identity is a
// commutative content fingerprint, so unrelated tenants sharing a
// subschema hit the same warm entry; engine.WithKeyedDigest hardens both
// memo planes against adversarially crafted schemas when tenants are
// untrusted.
//
// # Acyclicity engines
//
// Two independent deciders back the verdict:
//
//   - internal/mcs — the Tarjan–Yannakakis maximum cardinality search, the
//     default hot path. It repeatedly selects the edge sharing the most
//     nodes with the already-selected region (a bucket queue keeps this
//     O(total edge size)) and checks the running-intersection property as
//     it goes. Acceptance doubles as a join-tree construction; rejection
//     carries a certificate cross-checkable against the Theorem 6.1
//     independent-path witness.
//   - internal/gyo — Graham (GYO) reduction, the paper's own machinery,
//     retained for reduction traces, GR(H, X) with sacred nodes, and as
//     the differential baseline: internal/mcs's test suite pins the two
//     engines to identical verdicts on >10,000 generated instances plus
//     the exhaustive small-hypergraph corpus.
//
// # Acyclicity spectrum
//
// The paper's α-acyclicity sits atop Fagin's strict hierarchy
// Berge ⊂ γ ⊂ β ⊂ α, and each stronger class unlocks stronger downstream
// guarantees. internal/spectrum decides the whole hierarchy in polynomial
// time with locally-checkable certificates: β via nest-point elimination
// (Brault-Baron) — the accepting certificate is the elimination order, the
// rejecting one a nest-free core — and γ via the D'Atri–Moscarini leaf/twin
// reduction — a step sequence on accept, an irreducible core on reject —
// plus Berge via union-find over the node–edge incidence graph. Independent
// checkers (spectrum.VerifyBeta, spectrum.VerifyGamma) replay certificates
// against the rule preconditions, sharing no state with the testers.
//
//	a := repro.Analyze(h)
//	r := a.Spectrum()            // *SpectrumResult: verdicts + certificates
//	r.Degree                     // e.g. spectrum.DegreeGamma ("gamma-acyclic")
//	r.String()                   // "α✓ β✓ γ✓ Berge✗" — the four verdicts
//
// The exponential definition-based testers in internal/acyclic remain as
// executable specifications (now ctx-aware), pinned to the polynomial
// testers differentially on the exhaustive small corpus, the generator
// corpus — including gen.GammaAcyclic, a ported Leitert incremental
// generator — and a fuzz target. The serving layer classifies 10⁴-edge schemas under its default deadline
// (~90 ms measured, BENCH_spectrum.json) instead of refusing them by size.
//
// # Representation layer
//
// Nodes are interned to dense ids, and a hypergraph stores its edges as
// the edge half of a CSR layout: one flat []int32 of every edge's node ids,
// each edge's run strictly ascending, plus one int32 offset per edge.
// (*Hypergraph).Members(i) is edge i's run, a shared capped sub-slice, and
// Incidence() adopts both slices and builds only the node→edge half, so
// MCS, the spectrum testers and Reduce read the stored edges as they are.
// Storage is a sum of slice lengths, about 4·Σ|e| + 4·|E| bytes, whatever
// the universe: a 10⁶-edge chain over 2·10⁶ nodes keeps 16 MB live where
// dense edges would charge ~250 KB each (~250 GB). NewHypergraphFromIDs
// builds it in O(total edge size); measured on a 2-vCPU Xeon
// (BenchmarkSparseMillionEdges, -benchtime 1x, three runs) construction
// takes 37–45 ms and 72 MB of allocation, and MCS verdict (131–165 ms),
// join-tree construction (101–127 ms) and running-intersection
// verification (34–47 ms) each run in well under a second. Edge(i) and
// Edges() build dense internal/bitset.Set copies on request for the
// paper-scale packages (tableau, core, db, acyclic, chase, Graham
// reduction traces), whose word-parallel kernels suit small universes.
//
// The structural hot paths are linear in total edge size: Hypergraph.Reduce
// buckets edges by content hash and confirms containment through minimum-
// degree occurrence lists behind a Bloom-signature prefilter, and
// JoinTree.Verify checks the running-intersection property in one sweep
// counting per-node holder components.
//
// # Query evaluation
//
// internal/exec executes what the session derives: columnar, set-semantics
// tables (ExecTable: per-attribute int32 columns over a shared value Dict)
// bound to a schema as an ExecDatabase, with semijoin/join/projection
// kernels operating on dictionary ids: hash kernels, plus dense
// value-id-indexed ones the drivers pick when the dictionary fits. Two
// session facets drive it:
//
//	db, _ := repro.ExecDatabaseFromRelations(h, objects) // or CSV/row loaders
//	a := repro.Analyze(h)
//	red, _ := a.Reduce(ctx, db)          // two-pass full reducer, per-step stats
//	res, _ := a.Eval(ctx, db, attrs)     // full Yannakakis: reduce + join + project
//
// The reduce→eval contract: Reduce applies the join tree's two-pass
// semijoin program (Bernstein–Goodman), leaving every object globally
// consistent. Eval then joins only the canonical connection of the query
// attributes X — the paper's central object: on an acyclic schema the
// connection among X is unique, so Graham reduction of the join tree with X
// sacred, a per-query plan built from the tree and X alone, leaves exactly
// the objects and attributes π_X needs. If any reduced object is empty the
// answer is empty; components without a query attribute are never joined.
// The surviving objects join bottom-up along the reduced tree, and each
// child join emits only distinct projected rows: one fused kernel probes
// the child and writes just the cells of X plus the attributes the node's
// parent and its children still to be joined share with it, dropping a
// row already written, so the unprojected join is never built and the
// join phase materializes only rows of the canonical connection —
// evaluation is output-sensitive instead of intermediate-bound. An
// 8-object × 10⁵-row chain database reduces in ~80 ms and evaluates end to
// end in ~190 ms, 6–10× ahead of the string-keyed relation layer on the
// identical plan (BENCH_exec.json, recorded before the join phase was
// limited to the canonical connection). Kernels observe context cancellation every ~4096 rows,
// and mcs.RunCtx gives the same in-traversal cancellation bound to the
// acyclicity engine itself. Correctness is pinned differentially against
// naive internal/relation Semijoin/Join composition over randomized
// databases on the gen corpus, plus fuzzing of the CSV loader and
// quick-check laws for the kernels.
//
// # Serial execution
//
// Both execution facets run on one driver pair, exec.Reduce and exec.Eval,
// and a query runs serially: the full reducer is one semijoin program read
// off the join tree, a linear-time pass executed step by step in program
// order, and Eval joins the kept subtrees one child at a time. Nothing
// below a request runs a goroutine of its own: engine queries, workspace
// settles (a plain loop over the dirty components, the cold first settle
// of every component included) and exec kernels all run on the caller.
// Concurrency comes only from around the query: the server handles
// requests concurrently, and the shared engine memo and workspace handles
// are safe for that.
//
// Each reduction step's semijoin, each projection and each of Eval's joins
// picks its kernels through one chooser, from its input: a pair of objects sharing exactly one column probes chain heads indexed by
// dictionary value id (a semijoin only marks the source's values there),
// with no hashing or cell compare, as long as the database's dictionary is
// no larger than its cell count; every other pair probes a flat hash table
// (chain heads over a power-of-two bucket array, one next link and stored
// hash per row). A projection is the join with the one-row nullary table,
// and a join that drops attributes dedups its output as it writes it, so
// the unprojected join is never allocated: in a bitmap over the kept
// columns' value-id tuples when that span is at most 64 bits per input
// row, else in the row set the loaders dedup through, an open-addressing
// set of staged rows that keeps each row's first occurrence. The hash
// table and the row set hash rows one way, with the request dictionary's
// random multiplier, so no body can aim its rows at one chain. The Dict
// owns one scratch that its loads and evaluations take in turn: the row
// set, the dense kernels' heads and bitmap, and a slab every loaded,
// reduced and joined table's columns are cut from (a concurrent
// evaluation over the same Dict runs on a fresh scratch). Dict.Reset
// empties the Dict, draws a new multiplier and seed, and rewinds the slab,
// invalidating every table cut from it. Public exec.Semijoin, exec.Join
// and exec.Project keep the hash kernels and allocate their outputs.
//
// The determinism contract: a run's output is a function of its input —
// same rows in the same order, same per-step RowsIn/RowsOut in the full
// reducer's program order, same JoinRows — and only wall-clock time may
// differ between runs. The differential suites run every corpus instance
// twice, once with a dictionary padded past the cell count so that every
// step takes the hash kernel, and kernel differentials pin the dense
// semijoin and join kernels to the hash kernels row for row.
//
// # Engine
//
// internal/engine (facade: NewEngine) is the shared memo behind heavy query
// traffic: every memo entry is a shared Analysis session keyed by the
// streaming 128-bit fingerprint (Hypergraph.Fingerprint128, folded
// incrementally during construction — a warm repeat query costs a digest
// read and a sharded map probe, with no canonical string ever built).
// Engine.Analyze returns the memoized session, and its facets (Verdict,
// JoinTree, Spectrum, ...) are the queries. The memo is partitioned
// into fingerprint-keyed shards (at least GOMAXPROCS, rounded up to a power
// of two), so concurrent warm traffic scales across cores instead of
// serializing behind one lock; engine.WithMaxEntries bounds it with
// per-shard least-recently-used eviction, so adversarial schema churn
// cannot grow it without limit. Engine.AnalyzeText puts a text plane in
// front of the memo, keyed by the exact schema text: a repeat answers the
// resident session without parsing, and each entry keeps at most one text
// key, which leaves with it on eviction.
//
// # Serving
//
// cmd/hgserved (alias: hgtool serve) exposes the whole surface over
// HTTP/JSON for many concurrent tenants, backed by one shared Engine so
// warm analyses answer from the fingerprint memo across tenants. The memo
// is bounded at 1,024 entries per plane (schema sessions, component
// records), evicting each shard's least-recently-touched entry, so a
// long-running server's heap does not grow with every schema it was sent:
//
//	POST /v1/analyze                    {"schema": "A B C\nC D E"} → verdict + sizes
//	POST /v1/jointree                   join-tree parents, roots, full-reducer program
//	POST /v1/classify                   α/β/γ/Berge verdicts + degree + certificate summary
//	POST /v1/reduce                     schema + tables → full-reduction row counts per step
//	POST /v1/eval                       schema + tables + attrs → joined, projected rows
//	POST /v1/workspaces                 open a session (optionally seeded with a schema)
//	GET  /v1/workspaces/{id}            epoch, sizes, component count, verdict
//	POST /v1/workspaces/{id}/edges      AddEdge; DELETE .../edges/{edge} removes
//	POST /v1/workspaces/{id}/rename     RenameNode
//	POST /v1/workspaces/{id}/query      {"op": "verdict"|"jointree"|..., "epoch": n?}
//	GET  /healthz, /statsz              liveness (503 while draining) and counters
//	GET  /metricsz, /tracez             Prometheus metrics and retained slow traces (see Observability)
//
// A {"schema": ...} body (the three schema endpoints and workspace
// create) is read once into one buffer and scanned once by hand; the scan
// decodes the escapes \" \\ \/ \b \f \n \r \t itself, into one copy of
// the string, and leaves a string with \u escapes or non-ASCII bytes to
// json.Unmarshal. Any other body, such as one with case-variant, duplicate
// or unknown keys, is decoded by encoding/json over the same bytes, so
// every answer is the one that decode gives. The three schema endpoints
// (analyze, jointree, classify) hand the schema text to the engine's text
// plane (Engine.AnalyzeText): a text repeated byte for byte while its memo
// entry is resident answers without a parse, a fingerprint or a
// hypergraph; any other text is parsed and probes the fingerprint memo as
// before, and a parse error answers 400 "parse" and is never cached.
// Either way the answer is byte-identical. The reduce, eval and workspace
// endpoints parse their schema on every request. A parse reads the text
// once: each node name is interned through one map on first sight, the
// distinct names are sorted once, and the names the hypergraph keeps are
// substrings of the schema text. Cached workspace query replies
// (jointree, fullreducer, classification) are written to the wire as they
// were built, without a second pass through encoding/json. The workspace
// jointree reply is appended by hand from the handle's Parent links, so
// that read builds no hypergraph; its bytes are those json.Marshal writes.
//
// A /v1/reduce or /v1/eval table is {"attrs": [...], "rows": [[...], ...]},
// one array of string cells per row in attrs order. The body is read once
// into one buffer and its envelope scanned once by hand; each table's rows
// go from the request bytes straight into the executor's int32 columns
// (exec.ScanJSONRows), interning every cell into the request's one Dict
// with one probe of its open-addressing table and deduplicating each
// table's rows in a scratch that Dict keeps for the whole body. Each
// admitted request takes one request scratch, its body buffer and that
// Dict, from a free list of at most MaxInFlight, and puts it back, the
// Dict reset, once its reply is written; a scratch whose body buffer grew
// past 1 MiB, or whose request panicked, is dropped instead, and the Dict
// itself keeps no more than 4 MiB of scratch. A warm eval-join request
// thus allocates about 26 KB instead of 1.26 MB. A
// body the scan does not take, such as one with case-variant, duplicate or
// unknown keys, "rows" before "attrs", or an error anywhere, is decoded by
// encoding/json with rows as [][]string, so every answer is the one that
// decode gives: cells that are not strings answer 400 bad_json and rows of
// the wrong width 400 bad_request, and bytes after the envelope are
// ignored, even past the body cap. Result rows come back sorted
// lexicographically over the sorted output attributes.
//
// The serving layer is engineered robustness-first; its behavior under
// overload, faults, and shutdown is part of the contract:
//
//   - Deadlines: every request runs under a server-enforced timeout
//     (default 2 s; X-Deadline-Ms requests a shorter or longer one, clamped
//     to a server maximum). The deadline rides the same context plumbing
//     the library uses — mcs.RunCtx/gyo.RunCtx poll inside traversals, exec
//     kernels check every ~4096 rows — so a timeout interrupts work
//     mid-flight and answers 408 rather than hanging.
//   - Admission control: a bounded in-flight budget plus per-tenant token
//     buckets (tenants identify via X-Tenant). Excess load is shed
//     immediately with 429 + Retry-After — the server never queues
//     unboundedly.
//   - Panic isolation: each request runs behind a recover barrier, and all
//     of its work runs on the request goroutine, so a panic anywhere below
//     lands there instead of crashing the process. A panicking request
//     answers 500 with an incident id and the process keeps serving.
//   - Typed errors: every failure maps the library's structured errors to
//     a JSON body {"error": {"code", "message", ...detail fields}} and a
//     documented status — *ErrParse → 400 with line/col, *ErrUnknownNode →
//     400 with the name, *ErrUnknownEdge → 404, deadline → 408,
//     *ErrNodeExists and *ErrStaleEpoch → 409 (stale carries handle +
//     current epochs), oversized body → 413, ErrCyclicSchema → 422,
//     shed/quota → 429, internal → 500 with the incident id.
//   - Graceful shutdown: on SIGINT/SIGTERM the server stops admitting
//     (503), drains in-flight requests under a grace deadline, then exits.
//
// internal/fault is the deterministic fault-injection harness behind the
// server's chaos suite: named sites in the engine, exec kernels, workspace
// settling, the server handlers, and the durability layer (store.append,
// store.snapshot, store.recover — including torn writes) can be armed with
// delays, errors, or panics (with hit-count windows), and
// the tests prove the server degrades — sheds, times out, answers typed
// errors — instead of crashing or leaking goroutines.
//
// # Durability
//
// With -data (server.Config.DataDir), workspace sessions survive process
// restarts and crashes. internal/store gives each session a directory under
// the data root holding two files:
//
//	wal.hgl       the edit log: one length-prefixed, CRC-32C-checksummed,
//	              epoch-stamped record per acknowledged edit
//	snapshot.hgs  a canonical dump of the workspace state at some epoch,
//	              carrying a content digest that is cross-checked on load
//
// The write path is journal-before-apply: an edit is validated, appended to
// the WAL, and only then applied in memory — an append failure aborts the
// edit with zero side effects, so the log never trails the acknowledged
// state and the state never trails the log. Once a session accumulates
// enough log records (-snap-every, default 4096), a background compaction
// cuts a fresh snapshot and rewrites the WAL to hold only newer records;
// both file updates are atomic (write-temp, fsync, rename), and a crash
// between them leaves stale-but-skippable records, not corruption. By
// default appends are completed syscalls but not fsynced — acknowledged
// edits survive a process crash; -data-sync extends that to power failures
// at a per-edit latency cost (BENCH_store.json records both, plus
// compaction and cold-recovery times at 10^5 edits).
//
// Recovery (on boot, per session directory) restores the snapshot, replays
// the WAL tail in epoch order, and truncates a torn tail — a half-written
// final record from a crash mid-append, detected by length or checksum. A
// damaged record with records after it is corruption, not a torn tail:
// those later edits were acknowledged, so recovery refuses the session
// rather than drop them.
// The recovered workspace is observationally identical to the crashed one
// up to its last acknowledged edit: epoch, per-component fingerprints, and
// verdict, a property the store's differential harness checks across
// thousands of randomized edit scripts (with and without torn tails). Its
// join forest is re-canonicalized: recovery settles every component in
// full, so where the crashed session had ears hung, the recovered one reads
// the canonical parent links of the same content — another valid join
// forest of the same epoch. A
// session that fails recovery is logged and skipped, never deleted;
// `hgtool ws [-json] [-log] dir` inspects session directories offline
// (read-only — a torn tail is reported, not repaired).
//
// Two serving features ride the same epoch machinery:
//
//	GET /v1/workspaces/{id}/watch?after=N
//	                                    long-poll: parks until the epoch
//	                                    exceeds N (default: current), answers
//	                                    {"changed": bool, "epoch": M}; the
//	                                    deadline answers changed=false, so
//	                                    pollers re-arm on any 200
//	POST .../query reply memo           each session keeps the jointree,
//	                                    fullreducer and classification
//	                                    bodies of the newest epoch it
//	                                    answered (at most three); an edit
//	                                    moves the epoch, so a hit can never
//	                                    serve stale state, and a query that
//	                                    pins no epoch is answered again on
//	                                    a fresh handle when an edit lands
//	                                    mid-reply
//
// Shutdown flushes a final snapshot per dirty session (Drain reports
// per-session outcomes); store_* and server_respcache_* metrics are on
// /metricsz. store_wal_bytes and store_snapshot_bytes are the summed file
// sizes of the open sessions (a closed session leaves them), and
// server_respcache_hits_total/_misses_total count one hit or one miss per
// memoized query.
//
// # Observability
//
// internal/obs is a zero-dependency tracing and metrics plane threaded
// through every layer. It has two halves with different cost models:
//
// Metrics are always on. Counters (16-way striped, cache-line padded),
// gauges, and fixed-bucket latency histograms (1-2-5 bounds, 1 µs – 10 s)
// live in a process-global registry and cost ~10–25 ns per update. The
// server exposes them at GET /metricsz in Prometheus text exposition
// format (# TYPE lines, cumulative _bucket{le="..."} series in seconds,
// _sum/_count). Instrumented today: server request/incident counts and
// latency, engine memo hits/misses/evictions, component interning,
// keyed-digest walks, facet wait coalescing, and injected faults.
//
// Spans are off by default and head-sampled when on. Every call site
// guards on one atomic load — measured ~4 ns/op and pinned < 5 ns/op by a
// CI smoke test — so the instrumentation is effectively free until
// enabled (server.Config.Trace / hgtool eval -trace). When a request is
// sampled (1-in-N, decided once at the root, so unsampled requests pay
// nothing downstream), spans propagate by context through
// server→engine→analysis→exec→dynamic: the server root records method,
// path, tenant, deadline, status; server.decode times a request body's
// read on the schema, eval, reduce and workspace-create endpoints, with
// the scan of a {"schema"} body (an eval or reduce body's scan is
// exec.load, which carries the body's bytes, the rows sent, the distinct
// rows kept and the values interned); engine.memo records hit/miss and edge count, and on the
// schema endpoints whether the request parsed its schema (parsed), a parse
// timing as its hypergraph.parse child; eval, reduce and workspace create
// time their parse as a hypergraph.parse span of their own, and every
// hypergraph.parse span carries the schema's bytes, plus its edges and
// nodes when it parsed; facet spans time MCS/spectrum/Graham computations, on frozen
// sessions and workspace handles alike (waiters that coalesced onto
// another goroutine's computation get a facet.wait span instead); exec.eval/exec.reduce/exec.step record per-step target,
// source, rows in/out, queueing wait, and the semijoin kernel the step ran
// (kernel=dense|hash), and exec.eval how many objects the canonical
// connection joined and pruned (joinNodes, prunedNodes); exec.join times
// the join phase after the reduction, and it and exec.eval carry joinRows,
// the row pairs the phase's joins matched (what unfused joins would have
// built), and rowsOut, the answer's rows; dynamic.settle and
// dynamic.component cover workspace recomputation. Span buffers are
// bounded per trace (default 512; overflow is counted, not grown).
//
// The slow-query profiler retains the full span tree of any sampled
// request whose root duration meets a threshold (default 250 ms;
// negative retains everything) in a bounded ring served by GET /tracez
// as JSON: {enabled, seen, retained, threshold, traces: [{traceId, root,
// spans, dropped, durationNs}]}, each span {id, parent, name,
// startUnixNano, durationNs, attrs, children}. A panicking request
// force-retains its trace and stamps the 500's incident id on the root
// span, so /statsz incidents, the error response, and the retained trace
// all correlate by id. Injected faults stamp the span they fired under.
//
// Migration note: engine.Stats (memo hit/miss/eviction counts) remains
// the programmatic snapshot API, and server.Stats still backs /statsz —
// unchanged except that the /statsz snapshot is now taken under one lock,
// so its outcome counters always sum to at most Total. The same engine
// counters are additionally exported continuously as engine_memo_*_total
// metrics on /metricsz; new dashboards should scrape those. Overhead
// numbers live in BENCH_obs.json.
//
// See the examples/ directory for runnable programs, and run
// `go run ./cmd/experiments` for each of the paper's figures, examples and
// theorems next to what this implementation computes.
package repro
