// Package dynamic provides the mutable hypergraph surface: a Workspace
// whose analyses are maintained under edits instead of recomputed from
// scratch per query — the incremental-acyclicity layer of the library.
//
// The paper's structure theory is local: α-acyclicity and join trees
// decompose over connected components (a hypergraph is acyclic iff every
// component is, and a join forest is the union of per-component join
// trees), so per-component state is the right unit of incremental reuse.
// The workspace maintains exactly that: connected components under edits
// (components union on insert; a bounded rebuild confined to the touched
// component re-partitions on delete), a deletion-capable 128-bit content
// fingerprint per component (the commutative sum of per-edge digests,
// updated in O(1) per edit), and a lazily recomputed verdict plus join-tree
// fragment per component. An edit dirties only the components it touches;
// Analysis() settles the dirty ones and reads the global verdict off a
// counter — on a multi-component schema, a component-local edit re-analyzes
// orders of magnitude faster than a from-scratch traversal (see
// BenchmarkWorkspaceEdit and BENCH_dynamic.json).
//
// When a Workspace is attached to an engine (WithEngine), component
// recomputation goes through the engine's component-granular memo
// (engine.InternComponent): the component key is content-determined (sums
// of canonical per-edge digests), so unrelated tenants whose schemas share
// a component hit the same warm entry and skip the search entirely.
//
// Consistency under edits is explicit, not silent: Analysis() returns a
// handle bound to the workspace epoch at the call; downstream facets taken
// from a handle after further edits report *ErrStaleEpoch instead of
// serving artifacts of a hypergraph that no longer exists. Snapshot()
// materializes the current epoch as an ordinary immutable Hypergraph, the
// bridge back to the frozen-hypergraph API. It is built from the
// workspace's interned ids, not re-interned from names: the workspace keeps
// its node ids in name order (lazily — edits only note the ids they name,
// rename or release, and the snapshot merges them in), so the snapshot is
// the hypergraph New would build over the alive edges, down to node ids and
// fingerprints, at the cost of one pass over the nodes and edges. It shares
// no storage with the workspace and is cached until the next edit.
//
// The snapshot and every component settle lay out an edge one way
// (layout): its node ids are mapped through a name-order rank and the run
// is sorted. The snapshot ranks by the workspace-wide name order; a settle
// numbers only its component's nodes, with one name sort over those, so a
// settle costs the dirty component and never the workspace.
//
// Ears skip the settle. Graham reduction deletes ears — edges whose overlap
// with the rest of their component lies inside one other member f — and
// run backwards it keeps an α-acyclic component acyclic, with the ear hung
// as a join-tree leaf under f. So an AddEdge that touches one settled
// acyclic component and finds such an f appends the edge to the
// component's fragment as a leaf under f and leaves the component settled;
// a RemoveEdge of a leaf hung that way drops it again, and a leaf cannot
// disconnect its component. Both cost the edit (plus the ears hung after
// it), not the component, and count dynamic_ear_edits_total on /metricsz.
// Every other edit dirties its component as before. The parent links a
// handle reads are therefore always a valid join forest of its epoch, and
// they are the canonical, content-determined fragments a full settle
// derives whenever no ear is hung: removing the hung ears, in any order,
// gives back the settled fragment exactly. A component with ears hung is
// never interned in the engine memo (only a full settle interns), and a
// restored workspace settles every component in full, so a recovered
// session reads canonical links again.
package dynamic

import (
	"cmp"
	"context"
	"errors"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/hypergraph"
	"repro/internal/mcs"
	"repro/internal/obs"
)

// earEdits counts the edits that hung an ear on, or dropped one from, a
// settled component without re-analyzing it.
var earEdits = obs.C("dynamic_ear_edits_total")

// Workspace is a concurrency-safe mutable hypergraph. Construct with New or
// NewFrom; the zero value is not usable. All methods are safe for
// concurrent use; edits serialize on an internal mutex, and analyses are
// maintained per connected component so each edit pays for the component it
// touches, not for the whole hypergraph.
type Workspace struct {
	mu    sync.Mutex
	epoch atomic.Uint64 // bumped on every successful edit

	// Node interning. Ids are dense; a node is *current* while at least one
	// alive edge covers it (nodeComp >= 0). When the last covering edge
	// goes, the node departs completely: its name leaves the index and its
	// id joins the free list for the next intern — long-running edit churn
	// stays bounded by the live population, not by history. (Digests cannot
	// alias through reuse: they are computed from the names of alive edges
	// only, and a freed id has no alive incidences by definition.)
	names    []string
	index    map[string]int
	inc      [][]int32 // node id -> alive edge ids containing it (unordered)
	freeNode []int32   // departed node ids available for reuse
	order    nameOrder // current node ids in name order, for the snapshot
	compRank []int32   // node id -> position in the settling component's name order; -1 outside recompute
	nodeSeen []bool    // node id -> reached by splitOrDirty's sweep; false outside it
	livePos  []int32   // edge slot -> position among the alive slots; parentLocked's scratch

	edges    []wedge // edge slot -> record; dead slots are reused (see wedge.gen)
	edgeSeen []bool  // edge slot -> reached by splitOrDirty's sweep; false outside it
	freeEdge []int32 // dead edge slots available for reuse
	alive    int     // alive edge count
	covered  int     // current (covered) node count

	comps    []*component // component id -> state; nil when destroyed
	freeComp []int32      // destroyed component ids available for reuse
	nodeComp []int32      // node id -> component id, -1 while uncovered

	dirty  map[int32]struct{} // components whose analysis must be recomputed
	cyclic int                // settled components that are cyclic

	eng *engine.Engine // optional component-granular memo

	// journal, when attached (SetJournal), receives every edit before it is
	// applied; an append error aborts the edit unacknowledged. watch is the
	// current epoch's change channel (EpochChanged), closed by bump.
	journal Journal
	watch   chan struct{}

	// Per-epoch caches, reset by every edit.
	cur  *Analysis
	snap *hypergraph.Hypergraph
}

// wedge is one edge record. Public edge ids are generational — slot in the
// low bits, gen in the high — so a dead slot can be handed to a new edge
// while every id the old occupant ever issued keeps failing validation:
// removal bumps gen, and decodeEdge accepts an id only when its generation
// matches the slot's current one.
type wedge struct {
	ids    []int32 // sorted node ids; nil once removed
	comp   int32
	gen    uint32 // generation of the current (or next) occupant
	alive  bool
	pos    int32                     // position in its component's fragment; valid while the component is settled
	digest hypergraph.Fingerprint128 // canonical content digest (sorted names)
}

// encodeEdgeID packs a slot and its generation into the public edge id.
// Generation-0 ids equal their slots, so a fresh workspace (NewFrom) hands
// out ids 0..n-1 exactly as documented.
func encodeEdgeID(slot int, gen uint32) int {
	return slot | int(gen)<<32
}

// decodeEdge resolves a public edge id to its slot, rejecting ids whose
// slot is out of range, dead, or occupied by a later generation.
func (ws *Workspace) decodeEdge(id int) (int, bool) {
	slot := id & (1<<32 - 1)
	gen := uint32(id >> 32)
	if id < 0 || slot >= len(ws.edges) {
		return 0, false
	}
	w := &ws.edges[slot]
	return slot, w.alive && w.gen == gen
}

// component is the per-component incremental state: membership, the
// deletion-capable content fingerprint, and — once settled — the verdict
// and join-tree fragment. order[:base] and parent[:base] are the canonical
// fragment of the last full settle; positions from base on are the ear
// tail, edges hung since as join-tree leaves, each after its parent. The
// tail is empty right after a full settle, and whenever it is empty the
// fragment is canonical again.
type component struct {
	edges map[int]struct{} // alive edge ids
	sum   hypergraph.Fingerprint128

	settled bool
	acyclic bool
	base    int   // length of the canonical fragment; order[base:] is the ear tail
	order   []int // position -> edge id (content-sorted below base)
	parent  []int // position -> parent position, -1 for the root
}

// Option configures a Workspace.
type Option func(*Workspace)

// WithEngine routes component recomputation through e's component-granular
// memo (engine.InternComponent): workspaces sharing an engine — including
// unrelated tenants whose schemas merely share a connected component — hit
// each other's warm entries. Per-edge digests are taken from
// engine.EdgeDigest, so a WithKeyedDigest engine hardens this workspace's
// component identities too.
func WithEngine(e *engine.Engine) Option {
	return func(ws *Workspace) { ws.eng = e }
}

// WithParallelism is a no-op kept for source compatibility: settles are
// serial loops over the dirty components, whatever n is. Concurrency comes
// from callers working on different workspaces at once.
//
// Deprecated: settles are always serial; drop the option.
func WithParallelism(n int) Option {
	return func(*Workspace) {}
}

// New returns an empty workspace at epoch 0.
func New(opts ...Option) *Workspace {
	ws := &Workspace{
		index: map[string]int{},
		dirty: map[int32]struct{}{},
	}
	for _, o := range opts {
		o(ws)
	}
	return ws
}

// NewFrom returns a workspace seeded with every edge of h, in h's edge
// order (edge i of h gets workspace edge id i). Empty edges are rejected —
// the workspace's components are defined by node coverage, which an empty
// edge has none of.
func NewFrom(h *hypergraph.Hypergraph, opts ...Option) (*Workspace, error) {
	ws := New(opts...)
	for i := 0; i < h.NumEdges(); i++ {
		if _, err := ws.AddEdge(h.EdgeNodes(i)...); err != nil {
			return nil, err
		}
	}
	return ws, nil
}

// Epoch returns the workspace's edit epoch: 0 at creation, bumped by every
// successful AddEdge, RemoveEdge, and RenameNode. Analysis handles and
// snapshots are identified by the epoch they were taken at.
func (ws *Workspace) Epoch() uint64 { return ws.epoch.Load() }

// NumEdges returns the number of alive edges.
func (ws *Workspace) NumEdges() int {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return ws.alive
}

// NumNodes returns the number of current nodes (covered by an alive edge).
func (ws *Workspace) NumNodes() int {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return ws.covered
}

// NumComponents returns the number of connected components.
func (ws *Workspace) NumComponents() int {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return ws.numComps()
}

// EdgeIDs returns the alive edge ids in ascending order.
func (ws *Workspace) EdgeIDs() []int {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	out := make([]int, 0, ws.alive)
	for slot := range ws.edges {
		if w := &ws.edges[slot]; w.alive {
			out = append(out, encodeEdgeID(slot, w.gen))
		}
	}
	sort.Ints(out)
	return out
}

// EdgeNodes returns the node names of an alive edge, in name-sorted order.
func (ws *Workspace) EdgeNodes(id int) ([]string, error) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	slot, ok := ws.decodeEdge(id)
	if !ok {
		return nil, &ErrUnknownEdge{ID: id}
	}
	return ws.sortedNames(ws.edges[slot].ids), nil
}

// AddEdge adds an edge over the named nodes (duplicates collapse; at least
// one node is required) and returns its stable edge id. New names are
// interned; nodes spanning several components merge them (union on insert),
// and only the receiving component is marked for re-analysis — unless the
// edge is an ear of one settled acyclic component, which it joins as a
// join-tree leaf with no re-analysis at all.
func (ws *Workspace) AddEdge(nodes ...string) (int, error) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	// Journal before apply: the record carries the id the allocator will
	// issue (predicted without mutating it — intake interns nothing before
	// the journal accepts the edit, so an append error leaves the workspace
	// byte-identical to before the call).
	ids, digest, err := ws.intake(nodes, func(names []string) error {
		return ws.journalAppend(JournalRecord{
			Op:    JournalAddEdge,
			Epoch: ws.epoch.Load() + 1,
			Edge:  ws.peekEdgeID(),
			Nodes: names,
		})
	})
	if err != nil {
		return 0, err
	}

	// Resolve the receiving component: none of the nodes covered -> a new
	// component; one component touched -> that one, left settled when the
	// edge is an ear of it; several -> merge.
	var touched []int32
	for _, nid := range ids {
		if c := ws.nodeComp[nid]; c >= 0 && !slices.Contains(touched, c) {
			touched = append(touched, c)
		}
	}
	var cid int32
	ear := int32(-1) // fragment position of the member the edge hangs under
	switch len(touched) {
	case 0:
		cid = ws.newComp()
	case 1:
		cid = touched[0]
		if ear = ws.earParent(cid, ids); ear < 0 {
			ws.markDirty(cid)
		}
	default:
		cid = ws.mergeComps(touched)
	}

	c := ws.comps[cid]
	var slot int
	if n := len(ws.freeEdge); n > 0 {
		slot = int(ws.freeEdge[n-1])
		ws.freeEdge = ws.freeEdge[:n-1]
		gen := ws.edges[slot].gen // bumped past every id the slot ever issued
		ws.edges[slot] = wedge{ids: ids, comp: cid, gen: gen, alive: true, digest: digest}
	} else {
		slot = len(ws.edges)
		ws.edges = append(ws.edges, wedge{ids: ids, comp: cid, alive: true, digest: digest})
	}
	ws.alive++
	c.edges[slot] = struct{}{}
	c.sum = c.sum.Add(digest)
	for _, nid := range ids {
		ws.inc[nid] = append(ws.inc[nid], int32(slot))
		if ws.nodeComp[nid] < 0 {
			ws.nodeComp[nid] = cid
			ws.covered++
		}
	}
	if ear >= 0 {
		ws.edges[slot].pos = int32(len(c.order))
		c.order = append(c.order, slot)
		c.parent = append(c.parent, int(ear))
		earEdits.Inc()
	}
	ws.bump()
	return encodeEdgeID(slot, ws.edges[slot].gen), nil
}

// RemoveEdge removes the edge with the given id. Nodes left uncovered
// depart — completely: their names leave the index (a later AddEdge or
// RenameNode may claim them afresh) and their ids are recycled, so churn
// does not accumulate. The edge's slot is recycled too, under a bumped
// generation, so the removed id (and every other id the slot ever issued)
// keeps reporting *ErrUnknownEdge. An ear leaf (see AddEdge) leaves its
// component settled; otherwise, if the removal disconnects the edge's
// component, the component is re-partitioned by a rebuild bounded by that
// component's size (the rest of the workspace is untouched), and the
// component is marked for re-analysis.
func (ws *Workspace) RemoveEdge(id int) error {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	slot, ok := ws.decodeEdge(id)
	if !ok {
		return &ErrUnknownEdge{ID: id}
	}
	if err := ws.journalAppend(JournalRecord{
		Op:    JournalRemoveEdge,
		Epoch: ws.epoch.Load() + 1,
		Edge:  id,
	}); err != nil {
		return err
	}
	w := &ws.edges[slot]
	cid := w.comp
	c := ws.comps[cid]
	leaf := c.earLeaf(w.pos)
	delete(c.edges, slot)
	c.sum = c.sum.Sub(w.digest)
	for _, nid := range w.ids {
		ws.dropIncidence(nid, int32(slot))
		if len(ws.inc[nid]) == 0 {
			ws.nodeComp[nid] = -1
			ws.covered--
			delete(ws.index, ws.names[nid])
			ws.names[nid] = ""
			ws.freeNode = append(ws.freeNode, nid)
			ws.order.touch(nid)
		}
	}
	w.alive, w.ids = false, nil
	w.gen++
	ws.freeEdge = append(ws.freeEdge, int32(slot))
	ws.alive--
	switch {
	case len(c.edges) == 0:
		ws.destroyComp(cid)
	case leaf:
		ws.dropEar(c, int(w.pos))
	default:
		ws.splitOrDirty(cid)
	}
	ws.bump()
	return nil
}

// RenameNode renames a current node. The new name must not belong to a
// current node (*ErrNodeExists otherwise; names of departed nodes are
// released and may be claimed); an unknown or departed old name reports
// *hypergraph.ErrUnknownNode. Renaming re-digests exactly the incident
// edges and dirties only their component.
func (ws *Workspace) RenameNode(oldName, newName string) error {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if newName == "" {
		return errors.New("repro: empty node name")
	}
	id, ok := ws.index[oldName]
	if !ok || ws.nodeComp[id] < 0 {
		return &hypergraph.ErrUnknownNode{Name: oldName}
	}
	if oldName == newName {
		return nil
	}
	if _, taken := ws.index[newName]; taken {
		return &ErrNodeExists{Name: newName}
	}
	if err := ws.journalAppend(JournalRecord{
		Op:    JournalRenameNode,
		Epoch: ws.epoch.Load() + 1,
		Old:   oldName,
		New:   newName,
	}); err != nil {
		return err
	}
	ws.names[id] = newName
	delete(ws.index, oldName)
	ws.index[newName] = id
	ws.order.touch(int32(id))

	cid := ws.nodeComp[id]
	c := ws.comps[cid]
	for _, eid := range ws.inc[id] {
		w := &ws.edges[eid]
		c.sum = c.sum.Sub(w.digest)
		w.digest = ws.edgeDigest(ws.sortedNames(w.ids))
		c.sum = c.sum.Add(w.digest)
	}
	ws.markDirty(cid)
	ws.bump()
	return nil
}

// Snapshot materializes the current epoch as an immutable Hypergraph:
// alive edges in slot order, nodes numbered in ascending name order — the
// hypergraph New builds over the same edges, with the same Fingerprint and
// Fingerprint128 — built from the workspace's ids without re-interning a
// name. It owns its storage (later edits never show through) and is cached
// until the next edit, so repeated calls between edits return the same
// value.
func (ws *Workspace) Snapshot() *hypergraph.Hypergraph {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return ws.snapshotLocked()
}

// Analysis returns the analysis handle for the current epoch, settling any
// components an edit has dirtied (and only those — untouched components
// keep their verdicts and join-tree fragments). Repeated calls between
// edits return the same handle; after an edit a fresh handle is built for
// the new epoch, and handles of older epochs start reporting
// *ErrStaleEpoch from their derived facets. It is AnalysisCtx without
// cancellation.
func (ws *Workspace) Analysis() *Analysis {
	a, err := ws.AnalysisCtx(context.Background())
	if err != nil {
		// Background contexts are never cancelled; AnalysisCtx has no other
		// error path.
		panic(err)
	}
	return a
}

// AnalysisCtx is Analysis with cooperative cancellation of the settling
// searches (each polls ctx every ~4096 work units). A cancelled call
// returns ctx.Err(); components whose recomputation completed stay
// settled, the rest stay dirty for the next call to finish.
func (ws *Workspace) AnalysisCtx(ctx context.Context) (*Analysis, error) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if ws.cur == nil {
		if err := ws.settleLocked(ctx); err != nil {
			return nil, err
		}
		ws.cur = &Analysis{
			ws:      ws,
			epoch:   ws.epoch.Load(),
			acyclic: ws.cyclic == 0,
			edges:   ws.alive,
			nodes:   ws.covered,
			comps:   ws.numComps(),
		}
	}
	return ws.cur, nil
}

// --- internals (callers hold ws.mu) ---

// bump advances the epoch, invalidates the per-epoch caches, and wakes
// every EpochChanged subscriber.
func (ws *Workspace) bump() {
	ws.epoch.Add(1)
	ws.cur = nil
	ws.snap = nil
	if ws.watch != nil {
		close(ws.watch)
		ws.watch = nil
	}
}

// intern resolves a name to a node id, recycling a departed node's id when
// one is free and growing the id universe otherwise.
func (ws *Workspace) intern(name string) int {
	if id, ok := ws.index[name]; ok {
		return id
	}
	if n := len(ws.freeNode); n > 0 {
		id := int(ws.freeNode[n-1])
		ws.freeNode = ws.freeNode[:n-1]
		ws.names[id] = name
		ws.index[name] = id
		ws.order.touch(int32(id))
		return id
	}
	id := len(ws.names)
	ws.names = append(ws.names, name)
	ws.index[name] = id
	ws.inc = append(ws.inc, nil)
	ws.nodeComp = append(ws.nodeComp, -1)
	ws.order.mark = append(ws.order.mark, false)
	ws.compRank = append(ws.compRank, -1)
	ws.nodeSeen = append(ws.nodeSeen, false)
	ws.order.touch(int32(id))
	return id
}

// intake is the one way an edge's node names enter the workspace, for
// AddEdge and RestoreWorkspace alike: a copy of them is sorted,
// deduplicated and checked (at least one name, none empty), offered to
// accept when one is given — before anything is interned, so a refusal
// leaves the workspace untouched — and interned. It returns the edge's
// ascending node ids and its canonical digest.
func (ws *Workspace) intake(nodes []string, accept func(names []string) error) ([]int32, hypergraph.Fingerprint128, error) {
	if len(nodes) == 0 {
		return nil, hypergraph.Fingerprint128{}, errors.New("repro: AddEdge requires at least one node")
	}
	names := slices.Clone(nodes)
	slices.Sort(names)
	names = slices.Compact(names)
	if names[0] == "" {
		return nil, hypergraph.Fingerprint128{}, errors.New("repro: empty node name")
	}
	if accept != nil {
		if err := accept(names); err != nil {
			return nil, hypergraph.Fingerprint128{}, err
		}
	}
	ids := make([]int32, len(names))
	for i, n := range names {
		ids[i] = int32(ws.intern(n))
	}
	slices.Sort(ids)
	return ids, ws.edgeDigest(names), nil
}

// edgeDigest folds one edge's canonical (name-sorted) content, in the
// attached engine's identity mode when there is one.
func (ws *Workspace) edgeDigest(sortedNames []string) hypergraph.Fingerprint128 {
	if ws.eng != nil {
		return ws.eng.EdgeDigest(sortedNames)
	}
	return hypergraph.EdgeDigestNames(sortedNames)
}

// sortedNames maps sorted node ids to their names in sorted-name order.
func (ws *Workspace) sortedNames(ids []int32) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = ws.names[id]
	}
	sort.Strings(out)
	return out
}

// dropIncidence removes edge eid from node nid's incidence list
// (swap-remove; the lists are unordered).
func (ws *Workspace) dropIncidence(nid int32, eid int32) {
	l := ws.inc[nid]
	for i, f := range l {
		if f == eid {
			l[i] = l[len(l)-1]
			ws.inc[nid] = l[:len(l)-1]
			return
		}
	}
}

// numComps counts the live components.
func (ws *Workspace) numComps() int {
	n := 0
	for _, c := range ws.comps {
		if c != nil {
			n++
		}
	}
	return n
}

// newComp allocates a fresh (dirty, unsettled) component.
func (ws *Workspace) newComp() int32 {
	var cid int32
	if n := len(ws.freeComp); n > 0 {
		cid = ws.freeComp[n-1]
		ws.freeComp = ws.freeComp[:n-1]
	} else {
		cid = int32(len(ws.comps))
		ws.comps = append(ws.comps, nil)
	}
	ws.comps[cid] = &component{edges: map[int]struct{}{}}
	ws.dirty[cid] = struct{}{}
	return cid
}

// markDirty unsettles a component, keeping the cyclic counter consistent.
func (ws *Workspace) markDirty(cid int32) {
	c := ws.comps[cid]
	if c.settled {
		if !c.acyclic {
			ws.cyclic--
		}
		c.settled = false
	}
	ws.dirty[cid] = struct{}{}
}

// destroyComp retires a component id.
func (ws *Workspace) destroyComp(cid int32) {
	c := ws.comps[cid]
	if c.settled && !c.acyclic {
		ws.cyclic--
	}
	delete(ws.dirty, cid)
	ws.comps[cid] = nil
	ws.freeComp = append(ws.freeComp, cid)
}

// mergeComps folds the touched components into the most populous one
// (union by size: relabeling charges the smaller sides) and returns it
// dirty.
func (ws *Workspace) mergeComps(touched []int32) int32 {
	base := touched[0]
	for _, cid := range touched[1:] {
		if len(ws.comps[cid].edges) > len(ws.comps[base].edges) {
			base = cid
		}
	}
	bc := ws.comps[base]
	for _, cid := range touched {
		if cid == base {
			continue
		}
		oc := ws.comps[cid]
		for eid := range oc.edges {
			bc.edges[eid] = struct{}{}
			ws.edges[eid].comp = base
			for _, nid := range ws.edges[eid].ids {
				ws.nodeComp[nid] = base
			}
		}
		bc.sum = bc.sum.Add(oc.sum)
		ws.destroyComp(cid)
	}
	ws.markDirty(base)
	return base
}

// earParent returns the fragment position of the member an edge over ids
// hangs under as an ear of component cid, or -1 when cid is not settled
// and acyclic or the edge is no ear of it. Every node of ids is either in
// cid or uncovered; the candidates are the members containing the covered
// node with the fewest incident members, each checked against the other
// covered nodes by binary search over its sorted ids, and the lowest
// position among those containing them all wins.
func (ws *Workspace) earParent(cid int32, ids []int32) int32 {
	c := ws.comps[cid]
	if !c.settled || !c.acyclic {
		return -1
	}
	pivot := int32(-1)
	for _, nid := range ids {
		if ws.nodeComp[nid] >= 0 && (pivot < 0 || len(ws.inc[nid]) < len(ws.inc[pivot])) {
			pivot = nid
		}
	}
	best := int32(-1)
candidates:
	for _, f := range ws.inc[pivot] {
		w := &ws.edges[f]
		if best >= 0 && w.pos >= best {
			continue
		}
		for _, nid := range ids {
			if ws.nodeComp[nid] < 0 {
				continue
			}
			if _, ok := slices.BinarySearch(w.ids, nid); !ok {
				continue candidates
			}
		}
		best = w.pos
	}
	return best
}

// earLeaf reports whether c is settled and its fragment position p is an
// ear hung since the last full settle with no ear hung under it. Tail
// entries follow their parents, so only the entries after p can point at
// it. (While c is unsettled, its members' positions are stale.)
func (c *component) earLeaf(p int32) bool {
	return c.settled && int(p) >= c.base && !slices.Contains(c.parent[p+1:], int(p))
}

// dropEar deletes the ear leaf at fragment position p from c's tail,
// shifting the later tail entries down one so that each still follows its
// parent; dropping the last ear costs O(1).
func (ws *Workspace) dropEar(c *component, p int) {
	n := len(c.order) - 1
	for q := p; q < n; q++ {
		c.order[q] = c.order[q+1]
		c.parent[q] = c.parent[q+1]
		if c.parent[q] > p {
			c.parent[q]--
		}
		ws.edges[c.order[q]].pos = int32(q)
	}
	c.order, c.parent = c.order[:n], c.parent[:n]
	earEdits.Inc()
}

// splitOrDirty re-partitions a component after an edge removal: a breadth-
// first sweep over the component's own edges (linear in the component's
// total edge size — the bounded rebuild) either confirms it is still
// connected, in which case it is merely dirtied, or replaces it with one
// fresh component per connected piece. The sweep marks the edges and
// nodes it reaches in edgeSeen and nodeSeen and clears them again before
// it returns, so it allocates no set of its own.
func (ws *Workspace) splitOrDirty(cid int32) {
	c := ws.comps[cid]
	if n := len(ws.edges); len(ws.edgeSeen) < n {
		ws.edgeSeen = append(ws.edgeSeen, make([]bool, n-len(ws.edgeSeen))...)
	}
	var pieces [][]int
	for eid := range c.edges {
		if ws.edgeSeen[eid] {
			continue
		}
		piece := []int{eid}
		ws.edgeSeen[eid] = true
		for i := 0; i < len(piece); i++ {
			for _, nid := range ws.edges[piece[i]].ids {
				if ws.nodeSeen[nid] {
					continue
				}
				ws.nodeSeen[nid] = true
				for _, f := range ws.inc[nid] {
					if !ws.edgeSeen[f] {
						ws.edgeSeen[f] = true
						piece = append(piece, int(f))
					}
				}
			}
		}
		pieces = append(pieces, piece)
		if len(piece) == len(c.edges) {
			break // the first sweep reached everything: still connected
		}
	}
	for _, piece := range pieces {
		for _, eid := range piece {
			ws.edgeSeen[eid] = false
			for _, nid := range ws.edges[eid].ids {
				ws.nodeSeen[nid] = false
			}
		}
	}
	if len(pieces) == 1 && len(pieces[0]) == len(c.edges) {
		ws.markDirty(cid)
		return
	}
	ws.destroyComp(cid)
	for _, piece := range pieces {
		pid := ws.newComp() // may reuse cid, so membership is the test below
		nc := ws.comps[pid]
		for _, eid := range piece {
			w := &ws.edges[eid]
			w.comp = pid
			nc.edges[eid] = struct{}{}
			nc.sum = nc.sum.Add(w.digest)
			for _, node := range w.ids {
				ws.nodeComp[node] = pid
			}
		}
	}
}

// settleLocked recomputes every dirty component and re-establishes the
// global verdict counter. The work is proportional to the total size of
// the dirty components — the components edits actually touched — plus a
// memo probe each when an engine is attached. Components recompute in
// ascending id order. On error (cancellation) the components that finished
// stay settled, the rest stay dirty for the next call, and the first error
// is returned once the loop is done.
func (ws *Workspace) settleLocked(ctx context.Context) error {
	if len(ws.dirty) == 0 {
		return nil
	}
	cids := make([]int32, 0, len(ws.dirty))
	for cid := range ws.dirty {
		cids = append(cids, cid)
	}
	sort.Slice(cids, func(i, j int) bool { return cids[i] < cids[j] })

	ctx, ssp := obs.StartSpan(ctx, "dynamic.settle")
	ssp.SetInt("dirty", int64(len(cids)))
	defer ssp.End()

	var firstErr error
	for _, cid := range cids {
		c := ws.comps[cid]
		if err := ws.recompute(ctx, c); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		c.settled, c.base = true, len(c.order)
		for i, eid := range c.order {
			ws.edges[eid].pos = int32(i)
		}
		if !c.acyclic {
			ws.cyclic++
		}
		delete(ws.dirty, cid)
	}
	return firstErr
}

// recompute derives a component's verdict and canonical join-tree fragment
// from its members alone — an ear tail it carried is folded in — through
// the engine's component-granular memo when one is attached. The
// component's distinct nodes are numbered in name order (one name sort over
// those nodes only, never the workspace's), each member is laid out in that
// numbering, and the members are sorted by their runs, duplicates by edge
// id. Runs compare as the members' name-sorted node lists do, so the
// canonical order is content-determined and the memoized fragment portable
// across workspaces holding the same component, whatever their node ids. On
// a miss the runs are the component's hypergraph as they stand. A cancelled
// search reports the context error and leaves the component untouched (and
// uninterned). The parent links may be the memo record's own, so they are
// clipped: the first ear appended to them copies them. The caller records
// the fragment's length as base and each member's position.
func (ws *Workspace) recompute(ctx context.Context, c *component) error {
	ctx, csp := obs.StartSpan(ctx, "dynamic.component")
	defer csp.End()
	// Chaos site: fires once per dirty-component re-analysis, on the
	// goroutine of the request that settles the workspace.
	if err := fault.HitCtx(ctx, fault.DynamicSettle); err != nil {
		csp.SetAttr("error", err.Error())
		return err
	}
	type member struct {
		eid int
		run []int32
	}
	members := make([]member, 0, len(c.edges))
	var nodes []int32 // the component's nodes, each once
	size := 0
	for eid := range c.edges {
		ids := ws.edges[eid].ids
		members = append(members, member{eid: eid})
		size += len(ids)
		for _, nid := range ids {
			if ws.compRank[nid] < 0 {
				ws.compRank[nid] = 0
				nodes = append(nodes, nid)
			}
		}
	}
	csp.SetInt("members", int64(len(members)))
	slices.SortFunc(nodes, func(a, b int32) int { return strings.Compare(ws.names[a], ws.names[b]) })
	for r, nid := range nodes {
		ws.compRank[nid] = int32(r)
	}
	buf := make([]int32, 0, size)
	for i := range members {
		buf, members[i].run = layout(buf, ws.edges[members[i].eid].ids, ws.compRank)
	}
	for _, nid := range nodes {
		ws.compRank[nid] = -1
	}
	slices.SortFunc(members, func(a, b member) int {
		if c := slices.Compare(a.run, b.run); c != 0 {
			return c
		}
		// Duplicate-content edges tie-break by edge id: the canonical order —
		// and with it the memoized fragment's position space — must be a pure
		// function of the component, not of map iteration order.
		return cmp.Compare(a.eid, b.eid)
	})

	order, runs := make([]int, len(members)), make([][]int32, len(members))
	for i, m := range members {
		order[i], runs[i] = m.eid, m.run
	}

	// A miss runs the maximum cardinality search over the runs as they
	// stand; the memo record is the verdict plus parent links over order.
	build := func() (engine.ComponentAnalysis, error) {
		r, err := mcs.RunCtx(ctx, hypergraph.FromIDs(len(nodes), runs))
		if err != nil || !r.Acyclic {
			return engine.ComponentAnalysis{}, err
		}
		return engine.ComponentAnalysis{Acyclic: true, Parent: r.Parent}, nil
	}
	var res engine.ComponentAnalysis
	var err error
	if ws.eng != nil {
		var hit bool
		res, hit, err = ws.eng.InternComponent(engine.ComponentKey{Sum: c.sum, Count: len(members)}, build)
		csp.SetBool("hit", hit)
	} else {
		res, err = build()
	}
	if err != nil {
		csp.SetAttr("error", err.Error())
		return err
	}
	c.acyclic = res.Acyclic
	c.parent = slices.Clip(res.Parent)
	c.order = order
	return nil
}

// layout appends an edge's node ids to buf, mapped through a name-order
// rank and sorted, and returns the grown buffer and the edge's run: the one
// way the workspace lays out an edge. The snapshot ranks by the global name
// order, a settle by its component's own.
func layout(buf, ids, rank []int32) (grown, run []int32) {
	n := len(buf)
	for _, nid := range ids {
		buf = append(buf, rank[nid])
	}
	run = buf[n:len(buf):len(buf)]
	slices.Sort(run)
	return buf, run
}

// snapshotLocked materializes (and caches) the current epoch's hypergraph.
// The snapshot is built from ids: node k is the k-th current node in name
// order, and each alive edge, in slot order, is laid out through that rank
// — the hypergraph a name Builder over the alive edges would build, sorting
// only the names touched since the last snapshot.
func (ws *Workspace) snapshotLocked() *hypergraph.Hypergraph {
	if ws.snap == nil {
		sorted, rank := ws.order.merge(ws.names, ws.nodeComp)
		names := make([]string, len(sorted))
		for r, id := range sorted {
			names[r] = ws.names[id]
		}
		size := 0
		for id := range ws.edges {
			if w := &ws.edges[id]; w.alive {
				size += len(w.ids)
			}
		}
		// The runs, laid edge after edge into one buffer, are the
		// snapshot's member list.
		members := make([]int32, 0, size)
		off := make([]int32, 1, ws.alive+1)
		for id := range ws.edges {
			if w := &ws.edges[id]; w.alive {
				members, _ = layout(members, w.ids, rank)
				off = append(off, int32(len(members)))
			}
		}
		ws.snap = hypergraph.FromSortedNames(names, members, off)
	}
	return ws.snap
}

// parentLocked assembles the join forest's parent links over the alive
// edges in slot order — the snapshot's edge order — from the settled
// per-component fragments, ear tails included: each fragment's links are
// rebased onto those positions, and every fragment root stays a root of
// the forest. A position is the count of alive slots before the edge's
// own, kept in the workspace's livePos scratch, so no snapshot is built
// and a read allocates only the links it returns. Callers hold ws.mu, and
// every component is settled and acyclic.
func (ws *Workspace) parentLocked() []int {
	pos := slices.Grow(ws.livePos[:0], len(ws.edges))[:len(ws.edges)]
	ws.livePos = pos
	n := int32(0)
	for slot := range ws.edges {
		if ws.edges[slot].alive {
			pos[slot] = n
			n++
		}
	}
	parent := make([]int, n)
	for _, c := range ws.comps {
		if c == nil {
			continue
		}
		for j, eid := range c.order {
			p := -1
			if k := c.parent[j]; k >= 0 {
				p = int(pos[c.order[k]])
			}
			parent[pos[eid]] = p
		}
	}
	return parent
}

// nameOrder keeps a workspace's current node ids in ascending name order,
// lazily: sorted is the order as of the last merge, and touched lists the
// ids named, renamed or departed since — each once, flagged in mark, so it
// never outgrows the id universe however long the edits run without a
// read. Edits only append to touched; merge pays O(nodes + k log k) for k
// touched ids, once per snapshot.
type nameOrder struct {
	sorted  []int32
	touched []int32
	mark    []bool  // node id -> listed in touched; grown by intern
	rank    []int32 // node id -> position in sorted, as of the last merge
}

// touch records that node id's name changed since the last merge.
func (o *nameOrder) touch(id int32) {
	if !o.mark[id] {
		o.mark[id] = true
		o.touched = append(o.touched, id)
	}
}

// merge folds the touched ids into the order — untouched ids keep their
// relative order, touched ids still current (nodeComp >= 0) are sorted by
// name and merged in, departed ones drop out — and returns the current
// node ids in ascending name order plus each one's position there.
func (o *nameOrder) merge(names []string, nodeComp []int32) (sorted, rank []int32) {
	if len(o.touched) > 0 {
		kept := o.sorted[:0]
		for _, id := range o.sorted {
			if !o.mark[id] {
				kept = append(kept, id)
			}
		}
		fresh := o.touched[:0]
		for _, id := range o.touched {
			o.mark[id] = false
			if nodeComp[id] >= 0 {
				fresh = append(fresh, id)
			}
		}
		slices.SortFunc(fresh, func(a, b int32) int { return strings.Compare(names[a], names[b]) })
		// Merge from the back, in place: each kept id moves up by the number
		// of fresh ids still to place.
		i, out := len(kept)-1, len(kept)+len(fresh)-1
		merged := slices.Grow(kept, len(fresh))[:out+1]
		for j := len(fresh) - 1; j >= 0; out-- {
			if i >= 0 && names[merged[i]] > names[fresh[j]] {
				merged[out] = merged[i]
				i--
			} else {
				merged[out] = fresh[j]
				j--
			}
		}
		o.sorted, o.touched = merged, fresh[:0]
	}
	if len(o.rank) < len(names) {
		o.rank = make([]int32, len(names))
	}
	for r, id := range o.sorted {
		o.rank[id] = int32(r)
	}
	return o.sorted, o.rank
}
