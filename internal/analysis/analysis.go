// Package analysis provides the session-oriented query surface over one
// hypergraph: an Analysis handle that lazily computes and caches every
// derived artifact — acyclicity verdict, MCS run, join tree, acyclicity
// spectrum, Graham reduction trace and semijoin full reducer — each exactly
// once.
//
// The paper's artifacts are all facets of a single per-instance analysis:
// the MCS run that decides the verdict already carries the join-tree parent
// links, the join tree is what the full reducer is read off, and the
// spectrum's α component is the verdict. The handle makes that sharing
// explicit: each facet is guarded by a sync.Once, so the underlying
// traversals run at most once per handle no matter how many facets are
// queried, in which order, or from how many goroutines.
// Stats exposes the per-traversal run counters so tests (and monitoring)
// can assert the caching contract.
//
// Analyses are safe for concurrent use. The engine package shares one
// Analysis per hypergraph identity across its memo, which is the warm path
// for repeated traffic; analysis.New is the standalone entry point, and
// NewSettled opens a session whose verdict and join tree were settled
// elsewhere — the workspace layer's epoch handles wrap one such session.
//
// The execution facets Reduce and Eval bridge to internal/exec: they run
// the session's cached full-reducer program and join tree over a columnar
// database. Only the program derivation is cached — the data-dependent
// work runs per call.
//
// The Theorem 6.1 independent-path witness is not a facet: its core
// shrinking runs one Graham reduction per node per pass, and it lives with
// the paper's other artefacts in internal/core, which production code does
// not import.
package analysis

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/exec"
	"repro/internal/gyo"
	"repro/internal/hypergraph"
	"repro/internal/jointree"
	"repro/internal/mcs"
	"repro/internal/obs"
	"repro/internal/spectrum"
)

// facetLatch coordinates at-most-once *successful* computation of a facet
// with deadline-aware waiting — the fix for the facet-lock cancellation
// bug: under the old mutex-held-during-traversal scheme, a caller arriving
// while another caller's traversal was in flight blocked on the lock and
// never observed its own deadline. Here the runner computes outside any
// lock while waiters select between the in-flight signal and their own
// ctx.Done(); a runner that fails (cancellation) leaves the facet
// uncomputed, so the next caller retries with its own context, and a
// runner that succeeds latches the facet forever.
type facetLatch struct {
	mu       sync.Mutex
	done     bool
	inflight chan struct{} // non-nil while a runner computes; closed when it finishes
}

// facetWaits counts callers that arrived while another caller's traversal
// was in flight — coalescing pressure, visible on /metricsz.
var facetWaits = obs.C("facet_wait_total")

// run executes compute at most once successfully. Concurrent callers
// coalesce: one runs, the rest wait on either its completion or their own
// context. compute stores its result into fields the caller reads after a
// nil return (the latch's mutex publishes them). name labels the facet in
// spans: the runner's traversal records as "facet.<name>", a coalescing
// caller's stall as "facet.wait"; the latched fast path records nothing.
func (l *facetLatch) run(ctx context.Context, name string, compute func(ctx context.Context) error) error {
	for {
		l.mu.Lock()
		if l.done {
			l.mu.Unlock()
			return nil
		}
		if ch := l.inflight; ch != nil {
			l.mu.Unlock()
			facetWaits.Inc()
			_, wsp := obs.StartSpan(ctx, "facet.wait")
			wsp.SetAttr("facet", name)
			select {
			case <-ch:
				wsp.SetBool("coalesced", true)
				wsp.End()
				continue // runner finished (maybe unsuccessfully): re-examine
			case <-ctx.Done():
				wsp.SetBool("coalesced", false)
				wsp.End()
				return ctx.Err()
			}
		}
		ch := make(chan struct{})
		l.inflight = ch
		l.mu.Unlock()

		cctx, csp := obs.StartSpan(ctx, "facet."+name)
		err := compute(cctx)
		if err != nil {
			csp.SetAttr("error", err.Error())
		}
		csp.End()
		l.mu.Lock()
		if err == nil {
			l.done = true
		}
		l.inflight = nil
		l.mu.Unlock()
		close(ch)
		return err
	}
}

// Analysis is a concurrency-safe session over one hypergraph. Construct
// with New or NewSettled; the zero value is not usable. Every facet is
// computed on first use and cached; repeated and concurrent calls coalesce
// on a latch or a sync.Once.
type Analysis struct {
	h      *hypergraph.Hypergraph
	verify bool // cross-check the join tree's running-intersection invariant

	// The verdict is the root of the sharing: the join tree, the
	// spectrum's α component and the full reducer all reuse it. A settled
	// handle (NewSettled) carries the verdict and join-tree parents from
	// construction; otherwise both come from the mcs facet.
	settled bool
	acyclic bool
	parent  []int

	// Per-facet guards. The facets with cancellable traversals (mcs,
	// spectrum, graham) use deadline-aware latches; the cheap derivations
	// stacked on top keep sync.Once.
	mcsLatch facetLatch
	mcsRes   *mcs.Result

	jtOnce sync.Once
	jt     *jointree.JoinTree
	jtErr  error

	specLatch facetLatch
	spec      *spectrum.Result

	grLatch facetLatch
	gr      *gyo.Result

	frOnce sync.Once
	fr     []jointree.SemijoinStep
	frErr  error

	stats statsCounters
}

// statsCounters counts how often each underlying traversal ran to
// completion. Cancelled attempts are not counted: they leave the facet
// uncomputed, so the "at most once" contract is about completed work.
type statsCounters struct {
	mcs, graham, hierarchy, verify atomic.Int32
}

// Stats reports how many times each underlying traversal has run to
// completion on this handle — at most once each, by construction
// (cancelled attempts leave the facet uncomputed and uncounted). Exposed
// so tests and monitoring can assert the caching contract.
type Stats struct {
	// MCSRuns counts maximum-cardinality-search traversals (verdict, join
	// tree and the spectrum's α component all share one).
	MCSRuns int32
	// GrahamRuns counts Graham reduction traces.
	GrahamRuns int32
	// HierarchyRuns counts spectrum (β/γ/Berge) classification passes.
	HierarchyRuns int32
	// VerifyRuns counts running-intersection cross-checks (WithVerify).
	VerifyRuns int32
}

// Stats returns a snapshot of the traversal counters.
func (a *Analysis) Stats() Stats {
	return Stats{
		MCSRuns:       a.stats.mcs.Load(),
		GrahamRuns:    a.stats.graham.Load(),
		HierarchyRuns: a.stats.hierarchy.Load(),
		VerifyRuns:    a.stats.verify.Load(),
	}
}

// Option configures an Analysis handle.
type Option func(*Analysis)

// WithVerify makes the JoinTree facet cross-check the running-intersection
// invariant once when the tree is first built (an O(total edge size) sweep).
// The MCS construction satisfies the invariant by theorem, so this is off
// by default; enable it when the result feeds an external system that must
// not trust the theorem.
func WithVerify() Option {
	return func(a *Analysis) { a.verify = true }
}

// New opens an analysis session over h. The handle is cheap until a facet
// is queried; h must not be mutated afterwards (Hypergraph is immutable by
// contract).
func New(h *hypergraph.Hypergraph, opts ...Option) *Analysis {
	a := &Analysis{h: h}
	for _, o := range opts {
		o(a)
	}
	return a
}

// NewSettled opens a session over h whose α verdict — and, when acyclic,
// join-tree parent links (parent[i] is edge i's parent, -1 for a root) —
// the caller has already settled, as a workspace does incrementally. The
// session trusts them: JoinTree, FullReducer, Spectrum, Reduce, and Eval
// never run the maximum cardinality search (MCS alone still runs it, on
// first call, for its orders and certificate).
// WithVerify still cross-checks the seeded join tree.
func NewSettled(h *hypergraph.Hypergraph, acyclic bool, parent []int, opts ...Option) *Analysis {
	a := New(h, opts...)
	a.settled, a.acyclic, a.parent = true, acyclic, parent
	return a
}

// Hypergraph returns the hypergraph under analysis.
func (a *Analysis) Hypergraph() *hypergraph.Hypergraph { return a.h }

// mcsRunCtx is the shared root traversal, latched on success: a cancelled
// run leaves the facet uncomputed for the next caller to retry, and callers
// waiting behind another caller's in-flight traversal observe their own
// deadline instead of blocking on a lock.
func (a *Analysis) mcsRunCtx(ctx context.Context) (*mcs.Result, error) {
	err := a.mcsLatch.run(ctx, "mcs", func(ctx context.Context) error {
		r, err := mcs.RunCtx(ctx, a.h)
		if err != nil {
			return err
		}
		a.stats.mcs.Add(1)
		a.mcsRes = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return a.mcsRes, nil
}

// must unwraps a facet run under context.Background: such contexts are
// never cancelled, and cancellation is the traversals' only error path.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// verdictCtx returns the α verdict and, on acceptance, the join-tree parent
// links: the seeded ones on a settled handle, the MCS run's otherwise.
func (a *Analysis) verdictCtx(ctx context.Context) (bool, []int, error) {
	if a.settled {
		return a.acyclic, a.parent, nil
	}
	r, err := a.mcsRunCtx(ctx)
	if err != nil {
		return false, nil, err
	}
	return r.Acyclic, r.Parent, nil
}

// Verdict reports α-acyclicity — the paper's notion — via the linear-time
// maximum cardinality search, computed once per handle.
func (a *Analysis) Verdict() bool { return must(a.VerdictCtx(context.Background())) }

// VerdictCtx is Verdict with cooperative cancellation: the traversal polls
// ctx every ~4096 work units, and a caller coalescing onto another caller's
// in-flight traversal still observes its own deadline.
func (a *Analysis) VerdictCtx(ctx context.Context) (bool, error) {
	ok, _, err := a.verdictCtx(ctx)
	return ok, err
}

// MCS returns the full maximum-cardinality-search result: verdict, edge and
// vertex orders, join-tree parents on acceptance, rejection certificate on
// the cyclic side. The result is shared and must be treated as read-only.
func (a *Analysis) MCS() *mcs.Result { return must(a.mcsRunCtx(context.Background())) }

// MCSCtx is MCS with cooperative cancellation (see VerdictCtx).
func (a *Analysis) MCSCtx(ctx context.Context) (*mcs.Result, error) {
	return a.mcsRunCtx(ctx)
}

// JoinTree returns the join tree read off the MCS ordering the verdict
// already computed — no second traversal runs. It reports ErrCyclic when
// the hypergraph is cyclic. The tree is shared across callers and must be
// treated as read-only.
func (a *Analysis) JoinTree() (*jointree.JoinTree, error) {
	return a.JoinTreeCtx(context.Background())
}

// JoinTreeCtx is JoinTree with cooperative cancellation of the underlying
// traversal. A cancelled call leaves the facet uncomputed (no permanently
// poisoned slot); only the cheap derivation from a completed MCS run is
// latched.
func (a *Analysis) JoinTreeCtx(ctx context.Context) (*jointree.JoinTree, error) {
	acyclic, parent, err := a.verdictCtx(ctx)
	if err != nil {
		return nil, err
	}
	a.jtOnce.Do(func() {
		if !acyclic {
			a.jtErr = hypergraph.ErrCyclic
			return
		}
		a.jt = &jointree.JoinTree{H: a.h, Parent: parent}
		if a.verify {
			a.stats.verify.Add(1)
			if err := a.jt.Verify(); err != nil {
				// The MCS construction satisfies the invariant by theorem;
				// reaching this is a bug in the engine, not an input error.
				a.jt, a.jtErr = nil, err
			}
		}
	})
	return a.jt, a.jtErr
}

// Spectrum returns the full acyclicity-spectrum classification — per-class
// verdicts with their certificates and the overall degree — computed by the
// polynomial testers of internal/spectrum, at most once per handle. The α
// component reuses the verdict's MCS run. The result is shared and must be
// treated as read-only.
func (a *Analysis) Spectrum() *spectrum.Result { return must(a.SpectrumCtx(context.Background())) }

// SpectrumCtx is Spectrum with cooperative cancellation: the testers poll
// ctx every ~4096 work units, a cancelled run leaves the facet uncomputed
// for the next caller to retry, and callers coalescing onto an in-flight
// run observe their own deadline.
func (a *Analysis) SpectrumCtx(ctx context.Context) (*spectrum.Result, error) {
	acyclic, err := a.VerdictCtx(ctx)
	if err != nil {
		return nil, err
	}
	err = a.specLatch.run(ctx, "spectrum", func(ctx context.Context) error {
		res, err := spectrum.ClassifyWithAlpha(ctx, a.h, acyclic)
		if err != nil {
			return err
		}
		a.stats.hierarchy.Add(1)
		a.spec = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return a.spec, nil
}

// GrahamTrace returns the Graham (GYO) reduction of the hypergraph with no
// sacred nodes, including the full step trace — the paper's own machinery,
// retained alongside MCS for its trace. Computed once per handle; the
// result is shared and must be treated as read-only. It is GrahamTraceCtx
// without cancellation.
func (a *Analysis) GrahamTrace() *gyo.Result { return must(a.GrahamTraceCtx(context.Background())) }

// GrahamTraceCtx is GrahamTrace with cooperative cancellation: the
// underlying reduction observes ctx every ~4096 work units (gyo.RunCtx).
// A cancelled run reports ctx.Err() and leaves the facet uncomputed, so a
// later call retries; a completed run is cached like every other facet.
// Callers coalescing onto an in-flight reduction wait deadline-aware: they
// observe their own ctx while the runner works, instead of blocking on a
// lock the runner holds.
func (a *Analysis) GrahamTraceCtx(ctx context.Context) (*gyo.Result, error) {
	err := a.grLatch.run(ctx, "graham", func(ctx context.Context) error {
		r, err := gyo.RunCtx(ctx, a.h, bitset.Set{})
		if err != nil {
			return err
		}
		a.stats.graham.Add(1)
		a.gr = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return a.gr, nil
}

// FullReducer derives the two-pass semijoin program from the join tree
// (Bernstein–Goodman). It reports ErrCyclicSchema — which also matches
// ErrCyclic under errors.Is — when no join tree exists; any other JoinTree
// failure (a WithVerify invariant violation) propagates unchanged.
func (a *Analysis) FullReducer() ([]jointree.SemijoinStep, error) {
	return a.FullReducerCtx(context.Background())
}

// FullReducerCtx is FullReducer with cooperative cancellation of the
// underlying traversal (see JoinTreeCtx); a cancelled call leaves the facet
// uncomputed.
func (a *Analysis) FullReducerCtx(ctx context.Context) ([]jointree.SemijoinStep, error) {
	// Gate on the one cancellable traversal first: after it succeeds the
	// derivation below is cheap and latches exactly once.
	if _, err := a.VerdictCtx(ctx); err != nil {
		return nil, err
	}
	a.frOnce.Do(func() {
		jt, err := a.JoinTree()
		switch {
		case errors.Is(err, hypergraph.ErrCyclic):
			a.frErr = hypergraph.ErrCyclicSchema
		case err != nil:
			a.frErr = err
		default:
			a.fr = jt.FullReducer()
		}
	})
	return a.fr, a.frErr
}

// checkSchema verifies that d's schema is (contentually) the session's
// hypergraph, so a program derived from this session's join tree is valid
// for d's objects.
func (a *Analysis) checkSchema(d *exec.Database) error {
	if d.Schema != a.h && d.Schema.Fingerprint128() != a.h.Fingerprint128() {
		return fmt.Errorf("analysis: database schema differs from the session's hypergraph")
	}
	return nil
}

// execTree checks that d's schema is the session's hypergraph and returns
// the session's join tree. Cyclic schemas report ErrCyclicSchema: the
// full-reducer facet maps the verdict, and both artifacts are cached, so a
// warm handle derives nothing per call.
func (a *Analysis) execTree(ctx context.Context, d *exec.Database) (*jointree.JoinTree, error) {
	if err := a.checkSchema(d); err != nil {
		return nil, err
	}
	if _, err := a.FullReducerCtx(ctx); err != nil {
		return nil, err
	}
	return a.JoinTreeCtx(ctx)
}

// Reduce applies the session's full reducer to the columnar database d as a
// streaming two-pass reduction, returning the reduced database with
// per-step statistics (see exec.Reduce). The plan derivation is cached on
// the handle; the reduction itself runs per call — it depends on d, not on
// the hypergraph alone. d's schema must be the
// session's hypergraph (content-equal); cyclic schemas report
// ErrCyclicSchema. Cancellation is observed inside the semijoin kernels
// every ~4096 rows.
func (a *Analysis) Reduce(ctx context.Context, d *exec.Database) (*exec.ReduceResult, error) {
	jt, err := a.execTree(ctx, d)
	if err != nil {
		return nil, err
	}
	return exec.Reduce(ctx, d, jt)
}

// Eval answers π_attrs(⋈ all objects) over the columnar database d with the
// full Yannakakis strategy: the session's full reducer makes every object
// globally consistent, then only the objects of the canonical connection of
// attrs are joined, bottom-up along the session's join tree reduced to that
// connection, each child join emitting only distinct projected rows; the
// join phase matches only row pairs of the canonical connection (see
// exec.Eval). d's
// schema must be the session's hypergraph (content-equal); cyclic schemas
// report ErrCyclicSchema. Cancellation is observed inside the kernels every
// ~4096 rows.
func (a *Analysis) Eval(ctx context.Context, d *exec.Database, attrs []string) (*exec.EvalResult, error) {
	jt, err := a.execTree(ctx, d)
	if err != nil {
		return nil, err
	}
	return exec.Eval(ctx, d, jt, attrs)
}
