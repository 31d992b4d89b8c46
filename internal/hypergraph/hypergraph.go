// Package hypergraph implements the hypergraph model of Maier & Ullman,
// "Connections in Acyclic Hypergraphs" (TCS 32, 1984; PODS 1982).
//
// A hypergraph H = (N, E) is a finite set of nodes and a finite set of edges,
// each edge a subset of the nodes. A hypergraph is *reduced* when no edge is
// a subset of another. The package provides the structural operations the
// paper builds on: reduction, connected components, node-generated sets of
// edges, partial edges, node removal, and articulation sets.
//
// Nodes are interned to dense integer ids, and the edges are stored as
// the edge half of a CSR layout: one flat list of every edge's node ids,
// each edge's run ascending, plus one offset per edge. Storage is
// proportional to the total edge size even over million-node universes.
// The public API accepts and returns node names ([]string); the id-based
// forms (Members, Universe, FromIDs, and the one node–edge incidence index,
// Incidence) are exposed for the algorithm packages layered on top.
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

	// Edge i's node ids are members[memberOff[i]:memberOff[i+1]], strictly
	// ascending; memberOff has one entry more than there are edges.
	members   []int32
	memberOff []int32

	// fp128 caches the streaming 128-bit identity, computed on first use
	// (see Fingerprint128).
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
// Unsorted or duplicated ids within an edge are sorted and collapsed. The
// ids are copied, so callers keep their slices. It is a thin wrapper over
// Builder.
func FromIDs(n int, edges [][]int32) *Hypergraph {
	b := NewBuilder().UniverseSize(n)
	size := 0
	for _, ids := range edges {
		size += len(ids)
	}
	b.flat = make([]int32, 0, size)
	b.ends = make([]int, 0, len(edges))
	for _, ids := range edges {
		b.EdgeIDs(ids...)
	}
	return b.MustBuild()
}

// FromSortedNames builds a hypergraph over an already interned, name-ordered
// universe: names is the strictly ascending union of the edges' nodes, and
// the edges are given in the hypergraph's own layout — edge i is
// members[off[i]:off[i+1]], a strictly ascending run of indices into names,
// and off has one entry more than there are edges, starting at 0 and
// ending at len(members). The result is exactly what New returns for the
// same edges — node id k is names[k], same edge order, same Fingerprint and
// Fingerprint128 — but nothing is sorted, deduplicated or allocated per
// name or edge, so a caller that already keeps its node ids in name order
// (the dynamic workspace's snapshot) skips the interning New pays. All
// three slices are adopted without copying, so callers must not reuse
// them; names out of order, offsets out of order and edge ids out of order
// or out of [0, len(names)) panic.
func FromSortedNames(names []string, members, off []int32) *Hypergraph {
	n := len(names)
	index := make(map[string]int, n)
	for i, name := range names {
		if i > 0 && names[i-1] >= name {
			panic("hypergraph: FromSortedNames: names not strictly ascending at " + strconv.Itoa(i))
		}
		index[name] = i
	}
	if len(off) == 0 || off[0] != 0 || int(off[len(off)-1]) != len(members) {
		panic("hypergraph: FromSortedNames: offsets do not span the member list")
	}
	for e := 1; e < len(off); e++ {
		if off[e-1] > off[e] {
			panic("hypergraph: FromSortedNames: offsets not ascending at " + strconv.Itoa(e))
		}
		run := members[off[e-1]:off[e]]
		for j, id := range run {
			if id < 0 || int(id) >= n || (j > 0 && run[j-1] >= id) {
				panic("hypergraph: FromSortedNames: edge " + strconv.Itoa(e-1) + " is not strictly ascending within the universe")
			}
		}
	}
	return &Hypergraph{names: names, index: index, n: n, nodeSet: bitset.Full(n), members: members, memberOff: off}
}

// derive returns a hypergraph over h's universe with the given node set and
// edges in the CSR layout.
func (h *Hypergraph) derive(nodeSet bitset.Set, members, off []int32) *Hypergraph {
	return &Hypergraph{names: h.names, index: h.index, n: h.n, nodeSet: nodeSet, members: members, memberOff: off}
}

// Derive returns a hypergraph over the same node universe as h with the given
// node set and edges. Edges must only use ids valid in h. The inputs are
// copied, so the caller may keep mutating its sets.
func (h *Hypergraph) Derive(nodeSet bitset.Set, edges []bitset.Set) *Hypergraph {
	var members []int32
	off := make([]int32, 1, len(edges)+1)
	for _, e := range edges {
		e.ForEach(func(id int) { members = append(members, int32(id)) })
		off = append(off, int32(len(members)))
	}
	return h.derive(nodeSet.Clone(), members, off)
}

// Universe returns the size of the id universe: node ids live in [0,
// Universe()). It bounds array-indexed per-node state in the algorithm
// packages and may exceed NumNodes for derived hypergraphs whose node set
// shrank.
func (h *Hypergraph) Universe() int { return h.n }

// NumNodes returns |N|, counting isolated nodes.
func (h *Hypergraph) NumNodes() int { return h.nodeSet.Len() }

// NumEdges returns |E|.
func (h *Hypergraph) NumEdges() int { return len(h.memberOff) - 1 }

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

// Members returns edge i's node ids in ascending order: the id accessor the
// algorithm packages use on hot paths. The slice is shared and capped, and
// must not be mutated.
func (h *Hypergraph) Members(i int) []int32 {
	return h.members[h.memberOff[i]:h.memberOff[i+1]:h.memberOff[i+1]]
}

// Edge returns edge i's node set as a freshly built dense bitset, which the
// caller owns. It charges a word per 64 ids up to the edge's largest, so
// large-instance code reads Members instead.
func (h *Hypergraph) Edge(i int) bitset.Set {
	ids := h.Members(i)
	if len(ids) == 0 {
		return bitset.Set{}
	}
	s := bitset.New(int(ids[len(ids)-1]) + 1)
	for _, id := range ids {
		s.Add(int(id))
	}
	return s
}

// Edges returns the edge list as freshly built dense bitsets (see Edge):
// the paper-scale surface, which loops should call once, not per edge.
func (h *Hypergraph) Edges() []bitset.Set {
	out := make([]bitset.Set, h.NumEdges())
	for i := range out {
		out[i] = h.Edge(i)
	}
	return out
}

// EdgeNodes returns edge i as node names in id order.
func (h *Hypergraph) EdgeNodes(i int) []string {
	ids := h.Members(i)
	out := make([]string, len(ids))
	for k, id := range ids {
		out[k] = h.nameOf(int(id))
	}
	return out
}

// EdgeLists returns all edges as name lists, in edge order.
func (h *Hypergraph) EdgeLists() [][]string {
	out := make([][]string, h.NumEdges())
	for i := range out {
		out[i] = h.EdgeNodes(i)
	}
	return out
}

// countIn returns |edge i ∩ s|.
func (h *Hypergraph) countIn(i int, s bitset.Set) int {
	k := 0
	for _, id := range h.Members(i) {
		if s.Contains(int(id)) {
			k++
		}
	}
	return k
}

// FindEdge returns the index of the first edge equal to s, or -1.
func (h *Hypergraph) FindEdge(s bitset.Set) int {
	size := s.Len()
	for i := range h.NumEdges() {
		if len(h.Members(i)) == size && h.countIn(i, s) == size {
			return i
		}
	}
	return -1
}

// IsPartialEdge reports whether s is a subset of some edge of h.
// The paper calls any subset of an edge a "partial edge".
func (h *Hypergraph) IsPartialEdge(s bitset.Set) bool {
	return h.EdgeContaining(s) >= 0
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
	lists := make([]string, 0, h.NumEdges())
	seen := map[string]bool{}
	for i := range h.NumEdges() {
		s := "{" + strings.Join(h.EdgeNodes(i), " ") + "}"
		if !seen[s] {
			seen[s] = true
			lists = append(lists, s)
		}
	}
	sort.Strings(lists)
	if iso := h.isolated(); !iso.IsEmpty() {
		lists = append(lists, "isolated:"+strings.Join(h.NodeNames(iso), " "))
	}
	return strings.Join(lists, " ")
}

// String renders edges in their stored order.
func (h *Hypergraph) String() string {
	parts := make([]string, h.NumEdges())
	for i := range parts {
		parts[i] = "{" + strings.Join(h.EdgeNodes(i), " ") + "}"
	}
	return strings.Join(parts, " ")
}

// Clone returns an independent copy of h: the node set is copied, while
// the member list and offsets are shared, being never mutated.
func (h *Hypergraph) Clone() *Hypergraph {
	return h.derive(h.nodeSet.Clone(), h.members, h.memberOff)
}
