package dynamic

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/acyclic"
	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gyo"
	"repro/internal/hypergraph"
	"repro/internal/jointree"
	"repro/internal/spectrum"
)

// Analysis is the epoch-bound analysis handle of a Workspace: a view of the
// workspace at the epoch Workspace.Analysis was called. The incremental
// facets (Verdict) are settled at creation from the per-component state the
// edits maintained; the derived facets (Snapshot, JoinTree, FullReducer,
// Classification, GrahamTrace, Witness, Reduce, Eval) materialize lazily
// and are cached on the handle, like an analysis.Analysis session.
//
// Consistency is explicit: every derived facet checks on every call that
// the workspace is still at the handle's epoch and reports *ErrStaleEpoch
// otherwise — even when the artifact was already materialized — so an edit
// invalidates downstream plans loudly instead of letting a join tree or
// execution plan of a hypergraph that no longer exists be served silently.
// Values a caller already holds (a returned *JoinTree, a snapshot) stay
// valid for the epoch they describe; recover from staleness by taking a
// fresh handle with Workspace.Analysis. Only Verdict, Epoch, and NumEdges —
// plain facts about the epoch, settled at creation — stay readable forever.
//
// Handles are safe for concurrent use.
type Analysis struct {
	ws      *Workspace
	epoch   uint64
	acyclic bool // conjunction of the per-component verdicts at the epoch
	edges   int  // alive edges at the epoch

	mu       sync.Mutex
	snap     *hypergraph.Hypergraph
	jt       *jointree.JoinTree
	frDone   bool
	fr       []jointree.SemijoinStep
	cl       *acyclic.Classification
	gr       *gyo.Result
	witDone  bool
	witPath  *core.Path
	witCore  *hypergraph.Hypergraph
	witFound bool
	witErr   error
}

// Epoch returns the workspace epoch this handle describes.
func (a *Analysis) Epoch() uint64 { return a.epoch }

// NumEdges returns the number of alive edges at the handle's epoch.
func (a *Analysis) NumEdges() int { return a.edges }

// Verdict reports α-acyclicity at the handle's epoch: the conjunction of
// the per-component verdicts the workspace maintains under edits. No
// traversal runs here — edits already paid for the components they
// touched — and the value stays readable after further edits (it is a
// fact about this epoch).
func (a *Analysis) Verdict() bool { return a.acyclic }

// Snapshot returns the immutable hypergraph of the handle's epoch,
// materializing it on first use; *ErrStaleEpoch if the workspace has moved
// on before anything forced the snapshot.
func (a *Analysis) Snapshot() (*hypergraph.Hypergraph, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.ws.stale(a.epoch); err != nil {
		return nil, err
	}
	return a.snapshotLocked()
}

func (a *Analysis) snapshotLocked() (*hypergraph.Hypergraph, error) {
	if a.snap == nil {
		snap, err := a.ws.snapshotFor(a.epoch)
		if err != nil {
			return nil, err
		}
		a.snap = snap
	}
	return a.snap, nil
}

// JoinTree returns the join forest of the handle's epoch: the union of the
// per-component join-tree fragments the workspace maintains, assembled over
// the epoch snapshot — no search re-runs. It reports ErrCyclic when any
// component is cyclic and *ErrStaleEpoch when the workspace has moved on.
// The tree is shared across callers and must be treated as read-only.
func (a *Analysis) JoinTree() (*jointree.JoinTree, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.ws.stale(a.epoch); err != nil {
		return nil, err
	}
	return a.joinTreeLocked()
}

func (a *Analysis) joinTreeLocked() (*jointree.JoinTree, error) {
	if a.jt == nil {
		jt, err := a.ws.forestFor(a.epoch)
		if err != nil {
			return nil, err
		}
		a.jt = jt
	}
	return a.jt, nil
}

// FullReducer derives the two-pass semijoin program from the epoch's join
// forest (Bernstein–Goodman). Cyclic epochs report ErrCyclicSchema (which
// also matches ErrCyclic under errors.Is); edited-away epochs report
// *ErrStaleEpoch.
func (a *Analysis) FullReducer() ([]jointree.SemijoinStep, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.ws.stale(a.epoch); err != nil {
		return nil, err
	}
	return a.fullReducerLocked()
}

func (a *Analysis) fullReducerLocked() ([]jointree.SemijoinStep, error) {
	if !a.frDone {
		jt, err := a.joinTreeLocked()
		if errors.Is(err, hypergraph.ErrCyclic) {
			return nil, hypergraph.ErrCyclicSchema
		}
		if err != nil {
			return nil, err
		}
		a.fr = jt.FullReducer()
		a.frDone = true
	}
	return a.fr, nil
}

// Classification places the epoch's hypergraph in the acyclicity hierarchy
// (α ⊇ β ⊇ γ ⊇ Berge). It is ClassificationCtx without cancellation.
func (a *Analysis) Classification() (acyclic.Classification, error) {
	return a.ClassificationCtx(context.Background())
}

// ClassificationCtx places the epoch's hypergraph in the acyclicity
// hierarchy, backed by the polynomial spectrum testers over the epoch
// snapshot — the α component is the incremental verdict, the stricter
// notions run at most once per handle and observe ctx every ~4096 work
// units. A cancelled run leaves the facet uncomputed for a later retry.
func (a *Analysis) ClassificationCtx(ctx context.Context) (acyclic.Classification, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.ws.stale(a.epoch); err != nil {
		return acyclic.Classification{}, err
	}
	if a.cl == nil {
		snap, err := a.snapshotLocked()
		if err != nil {
			return acyclic.Classification{}, err
		}
		r, err := spectrum.ClassifyWithAlpha(ctx, snap, a.acyclic)
		if err != nil {
			return acyclic.Classification{}, err
		}
		a.cl = &acyclic.Classification{
			Alpha: r.Alpha,
			Beta:  r.Beta.Acyclic,
			Gamma: r.Gamma.Acyclic,
			Berge: r.Berge,
		}
	}
	return *a.cl, nil
}

// GrahamTrace returns the Graham (GYO) reduction of the epoch snapshot with
// no sacred nodes, including the full step trace, observing ctx every
// ~4096 work units (gyo.RunCtx). A cancelled run leaves the facet
// uncomputed for a later retry; a completed run is cached.
func (a *Analysis) GrahamTrace(ctx context.Context) (*gyo.Result, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.ws.stale(a.epoch); err != nil {
		return nil, err
	}
	if a.gr == nil {
		snap, err := a.snapshotLocked()
		if err != nil {
			return nil, err
		}
		r, err := gyo.RunCtx(ctx, snap, bitset.Set{})
		if err != nil {
			return nil, err
		}
		a.gr = r
	}
	return a.gr, nil
}

// Witness returns the Theorem 6.1 independent-path witness when the epoch
// is cyclic: the path, the node-generated core it lives in, and found =
// true. On the acyclic side it short-circuits on the incremental verdict —
// no search, no snapshot. The results are shared and must be treated as
// read-only.
func (a *Analysis) Witness() (path *core.Path, coreGraph *hypergraph.Hypergraph, found bool, err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.ws.stale(a.epoch); err != nil {
		return nil, nil, false, err
	}
	if !a.witDone {
		if a.acyclic {
			a.witDone = true // by Theorem 6.1 no independent path exists
			return nil, nil, false, nil
		}
		snap, err := a.snapshotLocked()
		if err != nil {
			return nil, nil, false, err
		}
		p, found, werr := core.IndependentPathWitness(snap)
		a.witDone = true
		if werr != nil || !found {
			a.witFound, a.witErr = found, werr
		} else {
			f, _ := core.WitnessCore(snap)
			a.witPath, a.witCore, a.witFound = p, f, true
		}
	}
	return a.witPath, a.witCore, a.witFound, a.witErr
}

// checkSchemaLocked verifies that d's schema is (contentually) the epoch
// snapshot, so plans derived from this handle are valid for d's objects.
func (a *Analysis) checkSchemaLocked(d *exec.Database) error {
	snap, err := a.snapshotLocked()
	if err != nil {
		return err
	}
	if d.Schema != snap && d.Schema.Fingerprint128() != snap.Fingerprint128() {
		return fmt.Errorf("repro: database schema differs from the workspace epoch's hypergraph")
	}
	return nil
}

// Reduce applies the epoch's full reducer to the columnar database d on the
// workspace's pool (see analysis.Analysis.Reduce for the execution
// contract). The plan derivation is epoch-checked — an edited workspace
// reports *ErrStaleEpoch instead of running a plan for a schema that no
// longer exists; the reduction itself runs per call outside the handle's
// lock.
func (a *Analysis) Reduce(ctx context.Context, d *exec.Database) (*exec.ReduceResult, error) {
	jt, err := a.execTree(d)
	if err != nil {
		return nil, err
	}
	return exec.Reduce(ctx, d, jt, a.ws.pool)
}

// execTree returns the epoch's join forest for running over d, after the
// staleness and schema checks; cyclic epochs report ErrCyclicSchema.
func (a *Analysis) execTree(d *exec.Database) (*jointree.JoinTree, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.ws.stale(a.epoch); err != nil {
		return nil, err
	}
	if err := a.checkSchemaLocked(d); err != nil {
		return nil, err
	}
	if _, err := a.fullReducerLocked(); err != nil {
		return nil, err
	}
	return a.joinTreeLocked()
}

// Eval answers π_attrs(⋈ all objects) over d with the full Yannakakis
// strategy, using the epoch's join forest (see analysis.Analysis.Eval for
// the execution contract). Plans are epoch-checked like Reduce.
func (a *Analysis) Eval(ctx context.Context, d *exec.Database, attrs []string) (*exec.EvalResult, error) {
	jt, err := a.execTree(d)
	if err != nil {
		return nil, err
	}
	return exec.Eval(ctx, d, jt, attrs, a.ws.pool)
}

// --- workspace-side epoch-checked reads ---

// stale reports *ErrStaleEpoch when the workspace has moved past epoch.
// The epoch is atomic, so the check runs lock-free; materializations
// re-check under ws.mu (snapshotFor, forestFor), which is authoritative.
func (ws *Workspace) stale(epoch uint64) error {
	if cur := ws.epoch.Load(); cur != epoch {
		return &ErrStaleEpoch{Handle: epoch, Current: cur}
	}
	return nil
}

// snapshotFor returns the snapshot for epoch, or *ErrStaleEpoch. The check
// and the materialization happen under one lock acquisition, so the
// returned hypergraph is exactly the requested epoch's.
func (ws *Workspace) snapshotFor(epoch uint64) (*hypergraph.Hypergraph, error) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if err := ws.stale(epoch); err != nil {
		return nil, err
	}
	return ws.snapshotLocked(), nil
}

// forestFor assembles the epoch's join forest from the per-component
// fragments: each fragment's canonical-order parent links are rebased onto
// snapshot edge positions, and the roots of all fragments stay roots of the
// forest. Reports *ErrStaleEpoch on a moved workspace and ErrCyclic when
// any component is cyclic.
func (ws *Workspace) forestFor(epoch uint64) (*jointree.JoinTree, error) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if err := ws.stale(epoch); err != nil {
		return nil, err
	}
	if ws.cyclic > 0 {
		return nil, hypergraph.ErrCyclic
	}
	snap := ws.snapshotLocked()
	parent := make([]int, snap.NumEdges())
	for i := range parent {
		parent[i] = -1
	}
	for _, c := range ws.comps {
		if c == nil {
			continue
		}
		for j, eid := range c.order {
			if p := c.parent[j]; p >= 0 {
				parent[ws.snapPos[eid]] = int(ws.snapPos[c.order[p]])
			}
		}
	}
	return &jointree.JoinTree{H: snap, Parent: parent}, nil
}
