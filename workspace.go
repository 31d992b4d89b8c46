package repro

import "repro/internal/dynamic"

type (
	// Workspace is the mutable hypergraph surface: a concurrency-safe
	// handle whose analyses are maintained under AddEdge / RemoveEdge /
	// RenameNode edits instead of recomputed from scratch — connected
	// components are tracked incrementally and only the components an edit
	// touches are re-analyzed. Snapshot materializes the current epoch as
	// an ordinary immutable Hypergraph; Analysis returns the epoch-bound
	// session handle. See internal/dynamic.
	Workspace = dynamic.Workspace
	// WorkspaceAnalysis is the epoch-bound analysis handle of a Workspace:
	// an epoch guard around one frozen Analysis session over the epoch's
	// snapshot, seeded with the incrementally settled verdict and join
	// forest. Parent reads the forest's parent links without building the
	// snapshot. Parent and every derived facet epoch-check against the live
	// workspace and report *ErrStaleEpoch once it has been edited past the
	// handle. See internal/dynamic.
	WorkspaceAnalysis = dynamic.Analysis
	// WorkspaceOption configures a Workspace (see WithWorkspaceEngine).
	WorkspaceOption = dynamic.Option
)

type (
	// ErrStaleEpoch reports a facet call on a WorkspaceAnalysis whose
	// workspace has been edited since the handle was taken; Handle and
	// Current carry the two epochs. Match with errors.As and recover by
	// taking a fresh handle with Workspace.Analysis.
	ErrStaleEpoch = dynamic.ErrStaleEpoch
	// ErrUnknownEdge reports an edge id that does not name an alive edge
	// of a Workspace. Match with errors.As.
	ErrUnknownEdge = dynamic.ErrUnknownEdge
	// ErrNodeExists reports a Workspace.RenameNode target name that is
	// currently present in the workspace (departed names are released and
	// may be reused). Match with errors.As.
	ErrNodeExists = dynamic.ErrNodeExists
)

// NewWorkspace returns an empty mutable workspace at epoch 0:
//
//	ws := repro.NewWorkspace()
//	ws.AddEdge("A", "B", "C")
//	id, _ := ws.AddEdge("C", "D")
//	ws.Analysis().Verdict()      // incremental — only touched components re-analyze
//	ws.RemoveEdge(id)
//	h := ws.Snapshot()           // frozen *Hypergraph of the current epoch
func NewWorkspace(opts ...WorkspaceOption) *Workspace {
	return dynamic.New(opts...)
}

// NewWorkspaceFrom returns a workspace seeded with every edge of h (edge i
// of h becomes workspace edge id i), the migration entry point from the
// frozen surface. Empty edges are rejected.
func NewWorkspaceFrom(h *Hypergraph, opts ...WorkspaceOption) (*Workspace, error) {
	return dynamic.NewFrom(h, opts...)
}

// WithWorkspaceEngine routes the workspace's component re-analysis through
// e's component-granular memo: workspaces sharing an engine — including
// unrelated tenants whose schemas merely share a connected component — hit
// each other's warm entries and skip the search. Pair with
// engine.WithKeyedDigest when the tenants are untrusted.
func WithWorkspaceEngine(e *Engine) WorkspaceOption {
	return dynamic.WithEngine(e)
}
