package dynamic

import (
	"context"
	"sync"

	"repro/internal/analysis"
	"repro/internal/exec"
	"repro/internal/gyo"
	"repro/internal/hypergraph"
	"repro/internal/jointree"
	"repro/internal/spectrum"
)

// Analysis is the epoch-bound analysis handle of a Workspace: an epoch
// guard around one analysis.Analysis session over the workspace at the
// epoch Workspace.Analysis was called. The incremental facts (Verdict,
// Epoch, NumEdges, NumNodes, NumComponents) are settled at creation from the
// per-component state the edits maintained, so reading them never
// materializes anything and they always describe the same epoch. Parent is
// settled too, lazily: the join forest's parent links are assembled once
// per handle straight from the per-component join-tree fragments, with no
// hypergraph built. The derived facets (Snapshot, JoinTree, FullReducer,
// Spectrum, GrahamTrace, Reduce, Eval) delegate to the session, which is
// built lazily on first use over the epoch snapshot, seeded with the
// settled verdict and the same parent links (no search re-runs) — so those
// facets, and only those, materialize the snapshot. Each facet's traversal
// therefore runs at most once per handle, records the session's facet
// spans, and coalesces concurrent callers deadline-aware: a caller waiting
// behind another's in-flight traversal observes its own context. The
// Theorem 6.1 witness is not a facet: pass Snapshot to the root package's
// IndependentPathWitness.
//
// Consistency is explicit: Parent and every derived facet check on every
// call that the workspace is still at the handle's epoch and report
// *ErrStaleEpoch otherwise — even when the artifact was already
// materialized — so an edit invalidates downstream plans loudly instead of
// letting a join tree or execution plan of a hypergraph that no longer
// exists be served silently. Values a caller already holds (a returned
// *JoinTree, a snapshot) stay valid for the epoch they describe; recover
// from staleness by taking a fresh handle with Workspace.Analysis. Only
// Verdict, Epoch, and the counts — plain facts about the epoch — stay
// readable forever.
//
// Handles are safe for concurrent use.
type Analysis struct {
	ws      *Workspace
	epoch   uint64
	acyclic bool // conjunction of the per-component verdicts at the epoch
	edges   int  // alive edges at the epoch
	nodes   int  // current nodes at the epoch
	comps   int  // connected components at the epoch

	mu     sync.Mutex // guards building inner and parent, never a facet run
	inner  *analysis.Analysis
	parent []int // the join forest's parent links, once assembled
}

// Epoch returns the workspace epoch this handle describes.
func (a *Analysis) Epoch() uint64 { return a.epoch }

// NumEdges returns the number of alive edges at the handle's epoch.
func (a *Analysis) NumEdges() int { return a.edges }

// NumNodes returns the number of current nodes at the handle's epoch.
func (a *Analysis) NumNodes() int { return a.nodes }

// NumComponents returns the number of connected components at the handle's
// epoch.
func (a *Analysis) NumComponents() int { return a.comps }

// Verdict reports α-acyclicity at the handle's epoch: the conjunction of
// the per-component verdicts the workspace maintains under edits. No
// traversal runs here — edits already paid for the components they
// touched — and the value stays readable after further edits (it is a
// fact about this epoch).
func (a *Analysis) Verdict() bool { return a.acyclic }

// Parent returns the join forest's parent links at the handle's epoch: for
// each alive edge, in slot order (the snapshot's edge order), the position
// of its parent edge, or -1 for a root — exactly JoinTree().Parent. The
// links are assembled once per handle from the per-component join-tree
// fragments the workspace settled, ears hung since included, without
// building the epoch snapshot: always a valid join forest of the epoch, and
// the canonical one a full settle derives while no ear is hung. It
// reports hypergraph.ErrCyclic when any component is cyclic and
// *ErrStaleEpoch when the workspace has moved on. The slice is shared (the
// session's JoinTree holds the same one) and must be treated as read-only.
func (a *Analysis) Parent() ([]int, error) {
	if err := a.ws.stale(a.epoch); err != nil {
		return nil, err
	}
	if !a.acyclic {
		return nil, hypergraph.ErrCyclic
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.parent == nil {
		parent, err := a.ws.parentFor(a.epoch)
		if err != nil {
			return nil, err
		}
		a.parent = parent
	}
	return a.parent, nil
}

// session returns the epoch's analysis session, or *ErrStaleEpoch when the
// workspace has moved on. The first call builds it over the epoch snapshot,
// seeded with the settled verdict and the handle's parent links (assembled
// now if Parent has not yet been read).
func (a *Analysis) session() (*analysis.Analysis, error) {
	if err := a.ws.stale(a.epoch); err != nil {
		return nil, err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.inner == nil {
		snap, parent, err := a.ws.settledFor(a.epoch, a.parent)
		if err != nil {
			return nil, err
		}
		a.parent = parent
		a.inner = analysis.NewSettled(snap, a.acyclic, parent)
	}
	return a.inner, nil
}

// Snapshot returns the immutable hypergraph of the handle's epoch,
// materializing it on first use; *ErrStaleEpoch if the workspace has moved
// on.
func (a *Analysis) Snapshot() (*hypergraph.Hypergraph, error) {
	s, err := a.session()
	if err != nil {
		return nil, err
	}
	return s.Hypergraph(), nil
}

// JoinTree returns the join forest of the handle's epoch: the union of the
// per-component join-tree fragments the workspace maintains, assembled over
// the epoch snapshot — no search re-runs. It reports ErrCyclic when any
// component is cyclic and *ErrStaleEpoch when the workspace has moved on.
// The tree is shared across callers and must be treated as read-only.
func (a *Analysis) JoinTree() (*jointree.JoinTree, error) {
	s, err := a.session()
	if err != nil {
		return nil, err
	}
	return s.JoinTree()
}

// FullReducer derives the two-pass semijoin program from the epoch's join
// forest (Bernstein–Goodman). Cyclic epochs report ErrCyclicSchema (which
// also matches ErrCyclic under errors.Is); edited-away epochs report
// *ErrStaleEpoch.
func (a *Analysis) FullReducer() ([]jointree.SemijoinStep, error) {
	s, err := a.session()
	if err != nil {
		return nil, err
	}
	return s.FullReducer()
}

// Spectrum returns the acyclicity spectrum of the epoch's hypergraph: the
// α ⊇ β ⊇ γ ⊇ Berge verdicts with their certificates and the degree. The α
// component is the incremental verdict; the stricter testers run at most
// once per handle and observe ctx every ~4096 work units. A cancelled run
// leaves the facet uncomputed for a later retry. The result is shared and
// must be treated as read-only.
func (a *Analysis) Spectrum(ctx context.Context) (*spectrum.Result, error) {
	s, err := a.session()
	if err != nil {
		return nil, err
	}
	return s.SpectrumCtx(ctx)
}

// GrahamTrace returns the Graham (GYO) reduction of the epoch snapshot with
// no sacred nodes, including the full step trace, observing ctx every
// ~4096 work units. A cancelled run leaves the facet uncomputed for a later
// retry; a completed run is cached.
func (a *Analysis) GrahamTrace(ctx context.Context) (*gyo.Result, error) {
	s, err := a.session()
	if err != nil {
		return nil, err
	}
	return s.GrahamTraceCtx(ctx)
}

// Reduce applies the epoch's full reducer to the columnar database d, serially
// on the caller's goroutine (see analysis.Analysis.Reduce for the execution
// contract). The plan is epoch-checked — an edited workspace reports
// *ErrStaleEpoch instead of running a plan for a schema that no longer
// exists; the reduction itself runs per call.
func (a *Analysis) Reduce(ctx context.Context, d *exec.Database) (*exec.ReduceResult, error) {
	s, err := a.session()
	if err != nil {
		return nil, err
	}
	return s.Reduce(ctx, d)
}

// Eval answers π_attrs(⋈ all objects) over d with the full Yannakakis
// strategy, using the epoch's join forest (see analysis.Analysis.Eval for
// the execution contract). Plans are epoch-checked like Reduce.
func (a *Analysis) Eval(ctx context.Context, d *exec.Database, attrs []string) (*exec.EvalResult, error) {
	s, err := a.session()
	if err != nil {
		return nil, err
	}
	return s.Eval(ctx, d, attrs)
}

// --- workspace-side epoch-checked reads ---

// stale reports *ErrStaleEpoch when the workspace has moved past epoch.
// The epoch is atomic, so the check runs lock-free; settledFor re-checks
// under ws.mu, which is authoritative.
func (ws *Workspace) stale(epoch uint64) error {
	if cur := ws.epoch.Load(); cur != epoch {
		return &ErrStaleEpoch{Handle: epoch, Current: cur}
	}
	return nil
}

// settledFor returns the snapshot of epoch and, when every component is
// acyclic, the join forest's parent links over it (nil on a cyclic epoch):
// parent itself when the handle already holds the links, else parentLocked's
// assembly. The check and the materializations happen under one lock
// acquisition, so they describe exactly the requested epoch;
// *ErrStaleEpoch otherwise.
func (ws *Workspace) settledFor(epoch uint64, parent []int) (*hypergraph.Hypergraph, []int, error) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if err := ws.stale(epoch); err != nil {
		return nil, nil, err
	}
	if parent == nil && ws.cyclic == 0 {
		parent = ws.parentLocked()
	}
	return ws.snapshotLocked(), parent, nil
}

// parentFor returns the join forest's parent links at epoch, an acyclic
// one, assembled under ws.mu by parentLocked; *ErrStaleEpoch when the
// workspace has moved past epoch.
func (ws *Workspace) parentFor(epoch uint64) ([]int, error) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if err := ws.stale(epoch); err != nil {
		return nil, err
	}
	return ws.parentLocked(), nil
}
