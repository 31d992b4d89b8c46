package dynamic

import (
	"fmt"
	"sort"

	"repro/internal/hypergraph"
)

// The journal hook is the dynamic layer's durability seam: a Workspace with
// a journal attached runs every edit write-ahead — the edit is validated,
// encoded as a JournalRecord, offered to the journal, and applied to the
// in-memory structures only if the journal accepted it. A journal error
// aborts the edit with the workspace untouched (same epoch, same state), so
// an edit is acknowledged to the caller exactly when it is durable. The
// internal/store package implements the hook with a checksummed append-only
// log plus snapshot compaction; replaying the records it accepted into a
// fresh workspace (RestoreWorkspace + the same edit calls) reproduces the
// original state exactly, edge ids included, because id allocation is a
// deterministic function of the edit history.

// JournalOp discriminates the three edit kinds a JournalRecord describes.
type JournalOp uint8

const (
	// JournalAddEdge records an AddEdge: Nodes carries the canonical
	// (sorted, deduplicated) node names, Edge the id the edit issues.
	JournalAddEdge JournalOp = 1
	// JournalRemoveEdge records a RemoveEdge of edge id Edge.
	JournalRemoveEdge JournalOp = 2
	// JournalRenameNode records a RenameNode from Old to New.
	JournalRenameNode JournalOp = 3
)

// String names the op for logs and the offline inspector.
func (op JournalOp) String() string {
	switch op {
	case JournalAddEdge:
		return "add"
	case JournalRemoveEdge:
		return "remove"
	case JournalRenameNode:
		return "rename"
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// JournalRecord is one edit as offered to the journal: the op, the epoch
// the workspace will be at once the edit applies, and the op's fields. For
// JournalAddEdge the record carries the edge id the edit will issue — id
// allocation is deterministic, so replay can (and does) verify that the
// recovered workspace hands out the identical id.
type JournalRecord struct {
	Op    JournalOp
	Epoch uint64   // workspace epoch after the edit
	Edge  int      // JournalAddEdge: issued id; JournalRemoveEdge: target id
	Nodes []string // JournalAddEdge: canonical sorted node names
	Old   string   // JournalRenameNode
	New   string   // JournalRenameNode
}

// Journal receives every edit of a Workspace before it is applied. Append
// runs under the workspace lock — it must not call back into the workspace
// — and its error contract is the durability contract: a nil return means
// the record is persisted and the edit will be acknowledged; a non-nil
// return aborts the edit entirely, leaving the workspace at the epoch it
// had before the call.
type Journal interface {
	Append(rec JournalRecord) error
}

// SetJournal attaches (or, with nil, detaches) the workspace's journal.
// Attach after recovery replay, not before: replayed edits must not be
// re-journaled.
func (ws *Workspace) SetJournal(j Journal) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	ws.journal = j
}

// journalAppend offers an edit to the attached journal, if any. Callers
// hold ws.mu and must not have mutated any workspace state yet.
func (ws *Workspace) journalAppend(rec JournalRecord) error {
	if ws.journal == nil {
		return nil
	}
	return ws.journal.Append(rec)
}

// peekEdgeID predicts the id the next AddEdge will issue without mutating
// the allocator: the top of the free-slot stack under its current
// generation, or the next fresh slot at generation 0. The prediction is
// exact because callers hold ws.mu between the peek and the allocation.
func (ws *Workspace) peekEdgeID() int {
	if n := len(ws.freeEdge); n > 0 {
		slot := int(ws.freeEdge[n-1])
		return encodeEdgeID(slot, ws.edges[slot].gen)
	}
	return encodeEdgeID(len(ws.edges), 0)
}

// --- epoch watch ---

// EpochChanged returns a channel that is closed once the workspace's epoch
// exceeds after: immediately-closed when it already does, otherwise closed
// by the next successful edit. The channel is level-triggered per epoch —
// after it closes, call EpochChanged again (with the new epoch) to wait for
// the following change. This is the primitive behind the server's
// long-poll watch endpoint: subscribers block on the channel instead of
// polling the query API.
func (ws *Workspace) EpochChanged(after uint64) <-chan struct{} {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if ws.epoch.Load() > after {
		return closedEpochCh
	}
	if ws.watch == nil {
		ws.watch = make(chan struct{})
	}
	return ws.watch
}

var closedEpochCh = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// --- state export / restore ---

// EdgeState is one edge slot of an exported State: its current generation,
// liveness, and — for alive slots — the canonical (name-sorted) node list.
type EdgeState struct {
	Gen   uint32
	Alive bool
	Nodes []string
}

// State is a workspace's persistable identity: everything an observer can
// distinguish through the public API — the epoch, every edge slot with its
// generation (dead slots included: their generations keep removed ids
// dead), and the free-slot stack in reuse order, so edits applied after a
// restore allocate the same ids the original workspace would have.
// Internal node ids are deliberately absent: they are unobservable, and the
// restore re-interns names from the alive edges.
type State struct {
	Epoch     uint64
	Slots     []EdgeState
	FreeEdges []int32
}

// ExportState captures the workspace's persistable state at its current
// epoch. The snapshot is deep — later edits do not affect it.
func (ws *Workspace) ExportState() *State {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	st := &State{
		Epoch:     ws.epoch.Load(),
		Slots:     make([]EdgeState, len(ws.edges)),
		FreeEdges: append([]int32(nil), ws.freeEdge...),
	}
	for slot := range ws.edges {
		w := &ws.edges[slot]
		es := EdgeState{Gen: w.gen, Alive: w.alive}
		if w.alive {
			es.Nodes = ws.sortedNames(w.ids)
		}
		st.Slots[slot] = es
	}
	return st
}

// RestoreWorkspace rebuilds a workspace from an exported State: slots and
// generations are reinstated verbatim, names re-interned from the alive
// edges, components rebuilt by a connectivity sweep (left dirty, so the
// first Analysis settles them), and the epoch set to the state's. The
// result is observationally identical to the workspace the state was
// exported from: same epoch, same edge ids, same digests, and the same ids
// issued by subsequent edits. A malformed state (out-of-range free slots,
// empty names, a free list disagreeing with the dead slots) is rejected.
func RestoreWorkspace(st *State, opts ...Option) (*Workspace, error) {
	ws := New(opts...)
	ws.edges = make([]wedge, len(st.Slots))
	dead := 0
	for slot, es := range st.Slots {
		if !es.Alive {
			ws.edges[slot] = wedge{gen: es.Gen}
			dead++
			continue
		}
		ids, digest, err := ws.intake(es.Nodes, nil)
		if err != nil {
			return nil, fmt.Errorf("dynamic: restore: alive slot %d: %w", slot, err)
		}
		ws.edges[slot] = wedge{ids: ids, gen: es.Gen, alive: true, digest: digest}
		ws.alive++
		for _, nid := range ids {
			ws.inc[nid] = append(ws.inc[nid], int32(slot))
		}
	}
	if len(st.FreeEdges) != dead {
		return nil, fmt.Errorf("dynamic: restore: free list has %d slots, %d are dead", len(st.FreeEdges), dead)
	}
	seen := make(map[int32]bool, len(st.FreeEdges))
	for _, slot := range st.FreeEdges {
		if slot < 0 || int(slot) >= len(ws.edges) || ws.edges[slot].alive || seen[slot] {
			return nil, fmt.Errorf("dynamic: restore: free list entry %d is not a distinct dead slot", slot)
		}
		seen[slot] = true
	}
	ws.freeEdge = append([]int32(nil), st.FreeEdges...)

	// Re-partition into components: a connectivity sweep over the alive
	// edges, the same bounded rebuild RemoveEdge runs, here over the whole
	// workspace. Components come out dirty; verdicts settle on the first
	// Analysis, through the engine memo when one is attached.
	assigned := make([]bool, len(ws.edges))
	for slot := range ws.edges {
		if !ws.edges[slot].alive || assigned[slot] {
			continue
		}
		cid := ws.newComp()
		c := ws.comps[cid]
		queue := []int{slot}
		assigned[slot] = true
		for len(queue) > 0 {
			eid := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			w := &ws.edges[eid]
			w.comp = cid
			c.edges[eid] = struct{}{}
			c.sum = c.sum.Add(w.digest)
			for _, nid := range w.ids {
				if ws.nodeComp[nid] < 0 {
					ws.nodeComp[nid] = cid
					ws.covered++
					for _, f := range ws.inc[nid] {
						if !assigned[f] {
							assigned[f] = true
							queue = append(queue, int(f))
						}
					}
				}
			}
		}
	}
	ws.epoch.Store(st.Epoch)
	return ws, nil
}

// --- content digests ---

// ComponentDigests returns the per-component content fingerprints — each
// the commutative sum of its member edges' canonical digests — in a
// canonical (Hi, Lo) order. Two workspaces holding the same schema under
// the same digest mode report identical lists regardless of edit history,
// which is what the durability layer's differential and crash harnesses
// compare.
func (ws *Workspace) ComponentDigests() []hypergraph.Fingerprint128 {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	out := make([]hypergraph.Fingerprint128, 0, len(ws.comps))
	for _, c := range ws.comps {
		if c != nil {
			out = append(out, c.sum)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Hi != out[j].Hi {
			return out[i].Hi < out[j].Hi
		}
		return out[i].Lo < out[j].Lo
	})
	return out
}

// ContentDigest returns the workspace's global content fingerprint: the
// commutative sum of every alive edge's canonical digest. It is a pure
// function of the current schema (and the digest mode), independent of the
// edit history that produced it.
func (ws *Workspace) ContentDigest() hypergraph.Fingerprint128 {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	var sum hypergraph.Fingerprint128
	for _, c := range ws.comps {
		if c != nil {
			sum = sum.Add(c.sum)
		}
	}
	return sum
}
