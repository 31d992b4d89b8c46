// Package gyo implements Graham reduction (the GYO reduction of Graham and
// Yu–Ozsoyoglu) of hypergraphs, including the sacred-node variant GR(H, X)
// of Maier & Ullman §2.
//
// Graham reduction repeatedly applies two rules until neither applies:
//
//  1. Node removal: a non-sacred node appearing in exactly one edge is
//     deleted from the node set and from that edge.
//  2. Edge removal: an edge that is a subset of another edge is deleted.
//
// The rules form a finite Church–Rosser system (Lemma 2.1), so the surviving
// set of partial edges is independent of rule order. A connected hypergraph
// reduces to a single empty edge with no sacred nodes iff it is acyclic
// (Beeri–Fagin–Maier–Yannakakis), which is the acyclicity test used across
// this repository.
package gyo

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/bitset"
	"repro/internal/hypergraph"
)

// StepKind identifies which Graham reduction rule a Step applied.
type StepKind int

const (
	// NodeRemoval deletes a node occurring in exactly one edge.
	NodeRemoval StepKind = iota
	// EdgeRemoval deletes an edge that is a subset of another edge.
	EdgeRemoval
)

// String returns "node-removal" or "edge-removal".
func (k StepKind) String() string {
	if k == NodeRemoval {
		return "node-removal"
	}
	return "edge-removal"
}

// Step records one application of a Graham reduction rule. Edge indices
// refer to the edge positions of the *original* hypergraph, which are stable
// throughout the reduction.
type Step struct {
	Kind StepKind
	// Node is the removed node's name (NodeRemoval only).
	Node string
	// Edge is the index of the edge the rule touched: the edge the node was
	// removed from, or the deleted edge.
	Edge int
	// Into is the index of the superset edge justifying an EdgeRemoval; -1
	// for NodeRemoval.
	Into int
	// Partial holds the deleted edge's remaining nodes at removal time
	// (EdgeRemoval only). An empty Partial means the edge had been fully
	// consumed by node removals before being deleted.
	Partial []string
}

// String renders the step in the paper's informal style.
func (s Step) String() string {
	if s.Kind == NodeRemoval {
		return fmt.Sprintf("remove node %s from edge #%d", s.Node, s.Edge)
	}
	return fmt.Sprintf("remove edge #%d (subset of edge #%d)", s.Edge, s.Into)
}

// Result is the outcome of a Graham reduction.
type Result struct {
	// Original is the input hypergraph.
	Original *hypergraph.Hypergraph
	// Sacred is the set of nodes that were protected from node removal.
	Sacred bitset.Set
	// Hypergraph is GR(H, X): the surviving partial edges over the surviving
	// nodes. It is always reduced.
	Hypergraph *hypergraph.Hypergraph
	// Steps is the sequence of rule applications, in the order taken.
	Steps []Step
}

// Vanished reports whether the reduction consumed the whole hypergraph: no
// edges remain, or only a single empty edge (the terminal state of a
// connected acyclic hypergraph with no sacred nodes).
func (r *Result) Vanished() bool {
	h := r.Hypergraph
	switch h.NumEdges() {
	case 0:
		return true
	case 1:
		return len(h.Members(0)) == 0
	default:
		return false
	}
}

// Trace renders the step list, one step per line.
func (r *Result) Trace() string {
	var b strings.Builder
	for i, s := range r.Steps {
		fmt.Fprintf(&b, "%3d. %s\n", i+1, s)
	}
	return b.String()
}

// Reduce computes GR(h, sacred): Graham reduction where nodes in sacred may
// not be removed by node removal. Rules are applied in a fixed deterministic
// order; by confluence (Lemma 2.1) the resulting partial edges are the same
// for every order.
//
// The implementation is worklist-driven: node removals are batched, and
// subset candidates for an edge E are looked up through the occurrence list
// of one of E's nodes (any superset of E must contain that node), giving
// near-linear behavior on chain- and tree-like inputs instead of repeated
// all-pairs scans.
//
// It is RunCtx without cancellation.
func Reduce(h *hypergraph.Hypergraph, sacred bitset.Set) *Result {
	r, err := RunCtx(context.Background(), h, sacred)
	if err != nil {
		// Background contexts are never cancelled; RunCtx has no other
		// error path.
		panic(err)
	}
	return r
}

// cancelStride is how much reduction work (rule applications plus
// occurrence-list scanning) runs between context checks — the same bound
// mcs.RunCtx and the exec kernels use, so a large Graham reduction stops
// within ~4096 work units of cancellation instead of running to completion.
const cancelStride = 4096

// RunCtx is Reduce with coarse-grained cooperative cancellation: the
// worklist polls ctx every ~cancelStride units of work and returns
// (nil, ctx.Err()) when cancelled, discarding partial state. The check
// granularity is a rule application plus its occurrence scans, so the
// worst-case latency is one stride plus a single subset probe.
func RunCtx(ctx context.Context, h *hypergraph.Hypergraph, sacred bitset.Set) (*Result, error) {
	// Fail fast on an already-dead context, matching mcs.RunCtx: reductions
	// too small to reach a stride boundary still observe cancellation.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	st := newState(h, sacred)
	// Every edge starts dirty: it may be subsumed from the outset.
	dirty := make([]int, 0, len(st.edges))
	inDirty := make([]bool, len(st.edges))
	for i := range st.edges {
		dirty = append(dirty, i)
		inDirty[i] = true
	}
	push := func(e int) {
		if e >= 0 && st.alive[e] && !inDirty[e] {
			dirty = append(dirty, e)
			inDirty[e] = true
		}
	}
	for {
		if st.work >= cancelStride {
			st.work = 0
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		// Node removals may shrink edges, making them subset candidates.
		for _, e := range st.removeAllFreeNodesTracking() {
			push(e)
		}
		if len(dirty) == 0 {
			break
		}
		e := dirty[0]
		dirty = dirty[1:]
		inDirty[e] = false
		st.work++
		if !st.alive[e] {
			continue
		}
		if into := st.findSuperset(e); into >= 0 {
			// Tie-break duplicates deterministically: remove the higher
			// index; if that is `into`, e survives and must be rechecked.
			victim, survivor := e, into
			if st.edges[e].Equal(st.edges[into]) && e < into {
				victim, survivor = into, e
			}
			st.removeEdge(victim, survivor)
			if victim != e {
				push(e)
			}
		}
	}
	return st.result(), nil
}

// ReduceRandomOrder applies single Graham reduction rules in an order chosen
// by rng among all applicable rule instances. It exists to test confluence
// (Lemma 2.1): the final partial-edge set must match Reduce for every seed.
func ReduceRandomOrder(h *hypergraph.Hypergraph, sacred bitset.Set, rng *rand.Rand) *Result {
	st := newState(h, sacred)
	for {
		type move struct {
			node int // node id, or -1
			edge int
			into int
		}
		var moves []move
		for _, n := range st.freeNodes() {
			moves = append(moves, move{node: n, edge: st.soleEdgeOf(n), into: -1})
		}
		for _, p := range st.subsetPairs() {
			moves = append(moves, move{node: -1, edge: p[0], into: p[1]})
		}
		if len(moves) == 0 {
			break
		}
		m := moves[rng.Intn(len(moves))]
		if m.node >= 0 {
			st.removeNode(m.node, m.edge)
		} else {
			st.removeEdge(m.edge, m.into)
		}
	}
	return st.result()
}

// IsAcyclic reports whether h is an acyclic hypergraph: Graham reduction
// with no sacred nodes consumes it entirely. For disconnected hypergraphs
// this holds iff every component is acyclic.
func IsAcyclic(h *hypergraph.Hypergraph) bool {
	return Reduce(h, bitset.Set{}).Vanished()
}

// state is the mutable reduction workspace. Edges keep their original
// indices; dead edges are flagged rather than removed so traces stay stable.
type state struct {
	orig      *hypergraph.Hypergraph
	sacred    bitset.Set
	edges     []bitset.Set // mutable copies
	alive     []bool
	count     []int   // node id -> number of alive edges containing it
	nodeEdges [][]int // node id -> edge indices that originally contain it
	nodes     bitset.Set
	steps     []Step
	work      int // work units since the last RunCtx cancellation check
}

func newState(h *hypergraph.Hypergraph, sacred bitset.Set) *state {
	st := &state{
		orig:   h,
		sacred: sacred.Clone(),
		alive:  make([]bool, h.NumEdges()),
		nodes:  h.NodeSet(),
	}
	maxID := 0
	st.nodes.ForEach(func(id int) {
		if id > maxID {
			maxID = id
		}
	})
	st.count = make([]int, maxID+1)
	st.nodeEdges = make([][]int, maxID+1)
	// Edges builds fresh dense sets the reduction state owns and shrinks in
	// place.
	st.edges = h.Edges()
	for i := range st.edges {
		st.alive[i] = true
		for _, id := range h.Members(i) {
			st.count[id]++
			st.nodeEdges[id] = append(st.nodeEdges[id], i)
		}
	}
	return st
}

// findSuperset returns an alive edge that contains edge e (preferring the
// smallest index), or -1. Any superset of a nonempty e must contain e's
// first node, so only that node's occurrence list is scanned; an emptied
// edge is a subset of every edge.
func (st *state) findSuperset(e int) int {
	if st.edges[e].IsEmpty() {
		for f := range st.edges {
			if f != e && st.alive[f] {
				return f
			}
		}
		return -1
	}
	n := st.edges[e].Min()
	st.work += len(st.nodeEdges[n])
	for _, f := range st.nodeEdges[n] {
		if f != e && st.alive[f] && st.edges[e].IsSubset(st.edges[f]) {
			return f
		}
	}
	return -1
}

// removeAllFreeNodesTracking applies node removal exhaustively and returns
// the indices of edges that shrank.
func (st *state) removeAllFreeNodesTracking() []int {
	var touched []int
	for {
		free := st.freeNodes()
		if len(free) == 0 {
			return touched
		}
		st.work += len(free)
		for _, id := range free {
			if e := st.soleEdgeOf(id); e >= 0 {
				st.removeNode(id, e)
				touched = append(touched, e)
			} else {
				st.nodes.Remove(id)
				st.count[id] = 0
			}
		}
	}
}

// freeNodes returns non-sacred node ids that occur in exactly one edge.
func (st *state) freeNodes() []int {
	var out []int
	st.nodes.ForEach(func(id int) {
		if st.count[id] == 1 && !st.sacred.Contains(id) {
			out = append(out, id)
		}
	})
	return out
}

func (st *state) soleEdgeOf(id int) int {
	for _, i := range st.nodeEdges[id] {
		if st.alive[i] && st.edges[i].Contains(id) {
			return i
		}
	}
	return -1
}

// subsetPairs returns (edge, supersetEdge) pairs eligible for edge removal.
// For duplicate edges only the higher index is listed as removable, so the
// rule terminates.
func (st *state) subsetPairs() [][2]int {
	var out [][2]int
	for i, e := range st.edges {
		if !st.alive[i] {
			continue
		}
		for j, f := range st.edges {
			if i == j || !st.alive[j] {
				continue
			}
			if e.IsSubset(f) && (!e.Equal(f) || i > j) {
				out = append(out, [2]int{i, j})
				break
			}
		}
	}
	return out
}

func (st *state) removeNode(id, edge int) {
	st.edges[edge].Remove(id)
	st.count[id] = 0
	st.nodes.Remove(id)
	st.steps = append(st.steps, Step{Kind: NodeRemoval, Node: st.orig.NodeName(id), Edge: edge, Into: -1})
}

func (st *state) removeEdge(edge, into int) {
	st.alive[edge] = false
	st.edges[edge].ForEach(func(id int) { st.count[id]-- })
	st.steps = append(st.steps, Step{
		Kind:    EdgeRemoval,
		Edge:    edge,
		Into:    into,
		Partial: st.orig.NodeNames(st.edges[edge]),
	})
}

func (st *state) result() *Result {
	var edges []bitset.Set
	for i, e := range st.edges {
		if st.alive[i] {
			edges = append(edges, e)
		}
	}
	return &Result{
		Original:   st.orig,
		Sacred:     st.sacred,
		Hypergraph: st.orig.Derive(st.nodes, edges),
		Steps:      st.steps,
	}
}
