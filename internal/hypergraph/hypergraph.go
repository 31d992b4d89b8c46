// Package hypergraph implements the hypergraph model of Maier & Ullman,
// "Connections in Acyclic Hypergraphs" (TCS 32, 1984; PODS 1982).
//
// A hypergraph H = (N, E) is a finite set of nodes and a finite set of edges,
// each edge a subset of the nodes. A hypergraph is *reduced* when no edge is
// a subset of another. The package provides the structural operations the
// paper builds on: reduction, connected components, node-generated sets of
// edges, partial edges, node removal, and articulation sets.
//
// Nodes are interned to dense integer ids; edges are stored in the adaptive
// Edge representation (dense bitset or sorted-id sparse, chosen per edge by
// density), so total storage is proportional to total edge size even over
// million-node universes. The public API accepts and returns node names
// ([]string); the id-based forms (EdgeView, Universe, FromIDs, and the one
// node–edge incidence index, Incidence) are exposed for the algorithm
// packages layered on top.
package hypergraph

import (
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/bitset"
)

// Hypergraph is an immutable hypergraph. Construct one with New, FromIDs,
// Parse, or derive others with Reduce, NodeGenerated, RemoveNodes, etc.
// Methods never mutate the receiver.
type Hypergraph struct {
	names   []string       // node id -> name; nil means synthetic "N<id>" names (FromIDs)
	index   map[string]int // name -> node id; nil when names is nil
	n       int            // universe size: node ids live in [0, n)
	nodeSet bitset.Set     // the hypergraph's node set N (may include isolated nodes)
	edges   []Edge         // edge id -> node set (adaptive representation)

	// fp128 caches the streaming 128-bit identity (see Fingerprint128):
	// constructors seal it while laying edges down; derived hypergraphs
	// compute it on first use.
	fpOnce sync.Once
	fp128  Fingerprint128
}

// New builds a hypergraph from edges given as lists of node names.
// The node universe is the sorted union of all names; duplicate names inside
// an edge are collapsed; duplicate edges are kept (call Reduce to drop them).
// It is a thin wrapper over Builder.
func New(edges [][]string) *Hypergraph {
	b := NewBuilder()
	for _, e := range edges {
		b.Edge(e...)
	}
	return b.MustBuild()
}

// FromIDs builds a hypergraph directly over the node universe {0, ..., n-1}
// with edges given as id lists, skipping name interning entirely — the
// constructor of choice for large generated instances (10⁶ edges build in
// O(total edge size)). Node id k is named "N<k>"; ids out of [0, n) panic.
// Unsorted or duplicated ids within an edge are sorted and collapsed; sorted
// id slices are adopted without copying, so callers must not reuse them.
// It is a thin wrapper over Builder.
func FromIDs(n int, edges [][]int32) *Hypergraph {
	b := NewBuilder().UniverseSize(n)
	for _, ids := range edges {
		b.EdgeIDs(ids...)
	}
	return b.MustBuild()
}

// FromSortedNames builds a hypergraph over an already interned, name-ordered
// universe: names is the strictly ascending union of the edges' nodes, and
// each edge is a strictly ascending list of indices into names. The result
// is exactly what New returns for the same edges — node id k is names[k],
// same edge order, same Fingerprint and Fingerprint128 — but nothing is
// sorted, deduplicated or allocated per name, so a caller that already keeps
// its node ids in name order (the dynamic workspace's snapshot) skips the
// interning New pays. Both slices are adopted without copying, so callers
// must not reuse them; names out of order and edge ids out of order or out
// of [0, len(names)) panic.
func FromSortedNames(names []string, edges [][]int32) *Hypergraph {
	n := len(names)
	h := &Hypergraph{
		names:   names,
		index:   make(map[string]int, n),
		n:       n,
		nodeSet: bitset.Full(n),
		edges:   make([]Edge, len(edges)),
	}
	for i, name := range names {
		if i > 0 && names[i-1] >= name {
			panic("hypergraph: FromSortedNames: names not strictly ascending at " + strconv.Itoa(i))
		}
		h.index[name] = i
	}
	for i, ids := range edges {
		for j, id := range ids {
			if id < 0 || int(id) >= n || (j > 0 && ids[j-1] >= id) {
				panic("hypergraph: FromSortedNames: edge " + strconv.Itoa(i) + " is not strictly ascending within the universe")
			}
		}
		h.edges[i] = edgeFromSortedIDs(ids, n)
	}
	return h
}

// fromParts assembles a hypergraph that shares the universe of an existing
// one. It is the internal constructor used by derivation methods.
func fromParts(names []string, index map[string]int, n int, nodeSet bitset.Set, edges []Edge) *Hypergraph {
	return &Hypergraph{names: names, index: index, n: n, nodeSet: nodeSet, edges: edges}
}

// derive is fromParts keeping h's universe.
func (h *Hypergraph) derive(nodeSet bitset.Set, edges []Edge) *Hypergraph {
	return fromParts(h.names, h.index, h.n, nodeSet, edges)
}

// Derive returns a hypergraph over the same node universe as h with the given
// node set and edges. Edges must only use ids valid in h. The inputs are
// copied (into the adaptive representation), so the caller may keep mutating
// its sets.
func (h *Hypergraph) Derive(nodeSet bitset.Set, edges []bitset.Set) *Hypergraph {
	es := make([]Edge, len(edges))
	for i, e := range edges {
		es[i] = edgeOfSet(e, h.n)
	}
	return h.derive(nodeSet.Clone(), es)
}

// Universe returns the size of the id universe: node ids live in [0,
// Universe()). It bounds array-indexed per-node state in the algorithm
// packages and may exceed NumNodes for derived hypergraphs whose node set
// shrank.
func (h *Hypergraph) Universe() int { return h.n }

// NumNodes returns |N|, counting isolated nodes.
func (h *Hypergraph) NumNodes() int { return h.nodeSet.Len() }

// NumEdges returns |E|.
func (h *Hypergraph) NumEdges() int { return len(h.edges) }

// nameOf returns the name of a node id, synthesizing "N<id>" for
// FromIDs-built hypergraphs.
func (h *Hypergraph) nameOf(id int) string {
	if h.names == nil {
		return "N" + strconv.Itoa(id)
	}
	return h.names[id]
}

// Nodes returns the node names in id order (sorted name order for
// New-built hypergraphs).
func (h *Hypergraph) Nodes() []string {
	out := make([]string, 0, h.nodeSet.Len())
	h.nodeSet.ForEach(func(id int) { out = append(out, h.nameOf(id)) })
	return out
}

// NodeSet returns the node set N as a bitset (a copy).
func (h *Hypergraph) NodeSet() bitset.Set { return h.nodeSet.Clone() }

// NodeID returns the dense id of a node name.
func (h *Hypergraph) NodeID(name string) (int, bool) {
	id, ok := h.lookup(name)
	if !ok || !h.nodeSet.Contains(id) {
		return 0, false
	}
	return id, true
}

// lookup resolves a name to an id: through the interning map for New-built
// hypergraphs, arithmetically for the synthetic "N<id>" names of FromIDs
// (no map is ever materialized, keeping those hypergraphs memory-light and
// immutable — safe for concurrent readers).
func (h *Hypergraph) lookup(name string) (int, bool) {
	if h.names != nil {
		id, ok := h.index[name]
		return id, ok
	}
	if len(name) < 2 || name[0] != 'N' {
		return 0, false
	}
	k, err := strconv.Atoi(name[1:])
	if err != nil || k < 0 || k >= h.n || name != "N"+strconv.Itoa(k) {
		return 0, false
	}
	return k, true
}

// NodeName returns the name of node id. It panics on an invalid id.
func (h *Hypergraph) NodeName(id int) string {
	if id < 0 || id >= h.n {
		panic("hypergraph: node id " + strconv.Itoa(id) + " out of universe")
	}
	return h.nameOf(id)
}

// NodeNames maps a bitset of node ids back to node names in id order.
func (h *Hypergraph) NodeNames(s bitset.Set) []string {
	out := make([]string, 0, s.Len())
	s.ForEach(func(id int) { out = append(out, h.nameOf(id)) })
	return out
}

// MustSet builds a bitset from node names, panicking on unknown names.
// It is a convenience for tests and examples.
func (h *Hypergraph) MustSet(names ...string) bitset.Set {
	s, err := h.Set(names...)
	if err != nil {
		panic(err)
	}
	return s
}

// Set builds a bitset from node names. Unknown names report *ErrUnknownNode
// carrying the offending name.
func (h *Hypergraph) Set(names ...string) (bitset.Set, error) {
	var s bitset.Set
	for _, n := range names {
		id, ok := h.NodeID(n)
		if !ok {
			return bitset.Set{}, &ErrUnknownNode{Name: n}
		}
		s.Add(id)
	}
	return s, nil
}

// EdgeView returns edge i in the adaptive representation — the zero-copy
// accessor the algorithm packages use on hot paths.
func (h *Hypergraph) EdgeView(i int) Edge { return h.edges[i] }

// EdgeViews returns the edge list in the adaptive representation. The slice
// is shared; Edge values are immutable.
func (h *Hypergraph) EdgeViews() []Edge { return h.edges }

// Edge returns edge i's node set as a dense bitset. The returned set may
// share storage; callers must not mutate it (clone first). For sparse edges
// this materializes ⌈universe/64⌉ words — large-instance code should use
// EdgeView instead.
func (h *Hypergraph) Edge(i int) bitset.Set { return h.edges[i].Set() }

// Edges returns the edge list as dense bitsets. The sets may share storage;
// callers must not mutate them. Like Edge, this is the paper-scale
// compatibility surface — EdgeViews is the scalable accessor.
func (h *Hypergraph) Edges() []bitset.Set {
	out := make([]bitset.Set, len(h.edges))
	for i := range h.edges {
		out[i] = h.edges[i].Set()
	}
	return out
}

// EdgeNodes returns edge i as node names in id order.
func (h *Hypergraph) EdgeNodes(i int) []string {
	out := make([]string, 0, h.edges[i].Len())
	h.edges[i].ForEach(func(id int) { out = append(out, h.nameOf(id)) })
	return out
}

// EdgeLists returns all edges as name lists, in edge order.
func (h *Hypergraph) EdgeLists() [][]string {
	out := make([][]string, len(h.edges))
	for i := range h.edges {
		out[i] = h.EdgeNodes(i)
	}
	return out
}

// FindEdge returns the index of the first edge equal to s, or -1.
func (h *Hypergraph) FindEdge(s bitset.Set) int {
	for i, e := range h.edges {
		if e.EqualSet(s) {
			return i
		}
	}
	return -1
}

// IsPartialEdge reports whether s is a subset of some edge of h.
// The paper calls any subset of an edge a "partial edge".
func (h *Hypergraph) IsPartialEdge(s bitset.Set) bool {
	for _, e := range h.edges {
		if e.ContainsSet(s) {
			return true
		}
	}
	return false
}

// Equal reports whether two hypergraphs have the same node names and the
// same set of edges (as sets of name sets, ignoring order and duplicates).
// It is name-based, so hypergraphs over different universes compare sanely.
func (h *Hypergraph) Equal(g *Hypergraph) bool {
	if !slices.Equal(h.Nodes(), g.Nodes()) {
		return false
	}
	return equalEdgeSets(h.EdgeLists(), g.EdgeLists())
}

// EqualEdges reports whether two hypergraphs have the same set of edges (as
// sets of node names), ignoring node sets, edge order, and duplicates.
func (h *Hypergraph) EqualEdges(g *Hypergraph) bool {
	return equalEdgeSets(h.EdgeLists(), g.EdgeLists())
}

func edgeKeySet(lists [][]string) map[string]bool {
	m := map[string]bool{}
	for _, l := range lists {
		m[strings.Join(l, "\x00")] = true
	}
	return m
}

func equalEdgeSets(a, b [][]string) bool {
	ma, mb := edgeKeySet(a), edgeKeySet(b)
	if len(ma) != len(mb) {
		return false
	}
	for k := range ma {
		if !mb[k] {
			return false
		}
	}
	return true
}

// CanonicalString renders the hypergraph as a deterministic string:
// edges sorted lexicographically, nodes sorted inside each edge, plus any
// isolated nodes. Useful for test comparisons and map keys.
func (h *Hypergraph) CanonicalString() string {
	lists := make([]string, 0, len(h.edges))
	seen := map[string]bool{}
	covered := bitset.New(h.n)
	for i := range h.edges {
		h.edges[i].OrInto(&covered)
		s := "{" + strings.Join(h.EdgeNodes(i), " ") + "}"
		if !seen[s] {
			seen[s] = true
			lists = append(lists, s)
		}
	}
	sort.Strings(lists)
	iso := h.nodeSet.AndNot(covered)
	if !iso.IsEmpty() {
		lists = append(lists, "isolated:"+strings.Join(h.NodeNames(iso), " "))
	}
	return strings.Join(lists, " ")
}

// String renders edges in their stored order.
func (h *Hypergraph) String() string {
	parts := make([]string, len(h.edges))
	for i := range h.edges {
		parts[i] = "{" + strings.Join(h.EdgeNodes(i), " ") + "}"
	}
	return strings.Join(parts, " ")
}

// Clone returns an independent copy of h: the node set and edge list are
// copied, while the per-edge payloads are shared immutable views (Edge
// values are never mutated, the same contract Edge and Edges rely on).
func (h *Hypergraph) Clone() *Hypergraph {
	es := make([]Edge, len(h.edges))
	copy(es, h.edges)
	return h.derive(h.nodeSet.Clone(), es)
}
