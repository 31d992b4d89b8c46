// Package acyclic implements the acyclicity tests used and referenced by
// Maier & Ullman.
//
// The paper's notion of acyclicity (α-acyclicity of Beeri–Fagin–Maier–
// Yannakakis and Fagin–Mendelzon–Ullman) is defined in §1: every
// node-generated set of edges is either a single edge or has an articulation
// set. By BFMY this is equivalent to Graham (GYO) reducibility, which is the
// fast test. This package provides both — the definition-based check is
// exponential and exists as an executable specification for differential
// testing — plus the stricter classical notions the paper contrasts against
// (§1 notes its definition "is less restrictive than the standard one" of
// Berge): Berge-acyclicity, and the β- and γ-acyclicity refinements from
// Fagin's hierarchy, so the strictness relations can be demonstrated.
//
// Class inclusions (as predicates on hypergraphs):
//
//	Berge-acyclic ⊂ γ-acyclic ⊂ β-acyclic ⊂ α-acyclic
package acyclic

import (
	"context"
	"fmt"

	"repro/internal/bitset"
	"repro/internal/gyo"
	"repro/internal/hypergraph"
	"repro/internal/mcs"
)

// specCancelStride is how many search steps the exponential specification
// testers take between context polls. The steps are heavyweight (a subset
// materialization or a recursive extension each), so the stride is much
// finer than the 4096-unit convention of the polynomial testers.
const specCancelStride = 64

// specTicker threads a context through the exponential searches: tick
// reports true when the search should unwind, and err holds the reason.
// Callers must check err before trusting a negative search result.
type specTicker struct {
	ctx  context.Context
	work int
	err  error
}

func (t *specTicker) tick() bool {
	if t.err != nil {
		return true
	}
	t.work++
	if t.work%specCancelStride == 0 {
		if err := t.ctx.Err(); err != nil {
			t.err = err
			return true
		}
	}
	return false
}

// IsAcyclic reports α-acyclicity (the paper's notion) via the linear-time
// maximum cardinality search of internal/mcs; gyo.IsAcyclic is the Graham
// reduction twin it is differentially tested against.
func IsAcyclic(h *hypergraph.Hypergraph) bool {
	return mcs.IsAcyclic(h)
}

// maxDefinitionNodes bounds the exponential definition-based test.
const maxDefinitionNodes = 20

// IsAcyclicByDefinition checks α-acyclicity literally by the paper's §1
// definition: for every node subset N, every connected component of the
// node-generated set of edges must be a single edge or have an articulation
// set. Exponential in the node count (capped at 20 nodes).
func IsAcyclicByDefinition(h *hypergraph.Hypergraph) (bool, error) {
	_, cyclic, err := CyclicWitnessByDefinition(h)
	return !cyclic, err
}

// CyclicWitnessByDefinition returns a node set N witnessing cyclicity: the
// node-generated set of edges for N is connected, has at least two edges,
// and has no articulation set. found is false for acyclic hypergraphs.
func CyclicWitnessByDefinition(h *hypergraph.Hypergraph) (witness bitset.Set, found bool, err error) {
	return CyclicWitnessByDefinitionCtx(context.Background(), h)
}

// CyclicWitnessByDefinitionCtx is CyclicWitnessByDefinition observing ctx:
// the subset enumeration polls the context mid-search, so a deadline stops
// the exponential sweep instead of riding it out.
func CyclicWitnessByDefinitionCtx(ctx context.Context, h *hypergraph.Hypergraph) (witness bitset.Set, found bool, err error) {
	if err := ctx.Err(); err != nil {
		return bitset.Set{}, false, err
	}
	ids := h.NodeSet().Elems()
	n := len(ids)
	if n > maxDefinitionNodes {
		return bitset.Set{}, false, fmt.Errorf("acyclic: definition-based test capped at %d nodes, have %d", maxDefinitionNodes, n)
	}
	tk := specTicker{ctx: ctx}
	for mask := 1; mask < 1<<n; mask++ {
		if tk.tick() {
			return bitset.Set{}, false, tk.err
		}
		var N bitset.Set
		for b := 0; b < n; b++ {
			if mask&(1<<b) != 0 {
				N.Add(ids[b])
			}
		}
		f := h.NodeGenerated(N)
		for _, comp := range f.Components() {
			sub := f.NodeGenerated(comp)
			if sub.NumEdges() >= 2 && !sub.HasArticulationSet() {
				return comp, true, nil
			}
		}
	}
	return bitset.Set{}, false, nil
}

// IsBergeAcyclic reports whether h has no Berge cycle, i.e. whether the
// bipartite incidence graph (nodes vs. edges, arcs for membership) is a
// forest. Two edges sharing two or more nodes already form a Berge cycle.
func IsBergeAcyclic(h *hypergraph.Hypergraph) bool {
	// DFS over the incidence graph detecting any cycle. Vertices: node ids
	// (even keys 2i) and edge ids (odd keys 2j+1).
	type vertex struct{ id, parent int }
	edges := h.Edges()
	adjNode := map[int][]int{} // node id -> edge ids
	for j, e := range edges {
		e.ForEach(func(id int) { adjNode[id] = append(adjNode[id], j) })
	}
	seenNode := map[int]bool{}
	seenEdge := map[int]bool{}
	for j := range edges {
		if seenEdge[j] {
			continue
		}
		// Iterative DFS from edge j.
		type frame struct {
			isEdge     bool
			id, parent int // parent is the vertex (other kind) we came from
		}
		stack := []frame{{isEdge: true, id: j, parent: -1}}
		seenEdge[j] = true
		for len(stack) > 0 {
			f := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if f.isEdge {
				cameFromNode := f.parent
				skipped := false
				for _, nid := range edges[f.id].Elems() {
					if nid == cameFromNode && !skipped {
						skipped = true
						continue
					}
					if seenNode[nid] {
						return false // second way to reach nid: a Berge cycle
					}
					seenNode[nid] = true
					stack = append(stack, frame{isEdge: false, id: nid, parent: f.id})
				}
			} else {
				cameFromEdge := f.parent
				skipped := false
				for _, eid := range adjNode[f.id] {
					if eid == cameFromEdge && !skipped {
						skipped = true
						continue
					}
					if seenEdge[eid] {
						return false
					}
					seenEdge[eid] = true
					stack = append(stack, frame{isEdge: true, id: eid, parent: f.id})
				}
			}
		}
	}
	return true
}

// IsBetaAcyclic reports β-acyclicity via nest-point elimination: repeatedly
// delete a node whose incident edges form a chain under inclusion, dropping
// emptied and duplicated edges; h is β-acyclic iff all nodes can be deleted.
// This is the polynomial test; see IsBetaAcyclicByDefinition for the
// executable specification (every edge subfamily α-acyclic).
func IsBetaAcyclic(h *hypergraph.Hypergraph) bool {
	edges := h.Edges() // fresh sets, eliminated from in place
	remaining := h.CoveredNodes()
	for !remaining.IsEmpty() {
		nest := -1
		remaining.ForEach(func(id int) {
			if nest >= 0 {
				return
			}
			if isNestPoint(edges, id) {
				nest = id
			}
		})
		if nest < 0 {
			return false
		}
		for i := range edges {
			edges[i].Remove(nest)
		}
		remaining.Remove(nest)
		edges = dropEmptyAndDuplicate(edges)
	}
	return true
}

// isNestPoint reports whether the edges containing id form a chain under ⊆.
func isNestPoint(edges []bitset.Set, id int) bool {
	var incident []bitset.Set
	for _, e := range edges {
		if e.Contains(id) {
			incident = append(incident, e)
		}
	}
	for i := 0; i < len(incident); i++ {
		for j := i + 1; j < len(incident); j++ {
			if !incident[i].IsSubset(incident[j]) && !incident[j].IsSubset(incident[i]) {
				return false
			}
		}
	}
	return true
}

func dropEmptyAndDuplicate(edges []bitset.Set) []bitset.Set {
	seen := map[string]bool{}
	out := edges[:0]
	for _, e := range edges {
		if e.IsEmpty() {
			continue
		}
		k := e.Key()
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, e)
	}
	return out
}

// maxBetaDefinitionEdges bounds the exponential β specification.
const maxBetaDefinitionEdges = 16

// IsBetaAcyclicByDefinition checks β-acyclicity literally: every subfamily
// of edges is α-acyclic. Exponential in the edge count (capped at 16 edges).
func IsBetaAcyclicByDefinition(h *hypergraph.Hypergraph) (bool, error) {
	return IsBetaAcyclicByDefinitionCtx(context.Background(), h)
}

// IsBetaAcyclicByDefinitionCtx is IsBetaAcyclicByDefinition observing ctx
// across the subfamily enumeration.
func IsBetaAcyclicByDefinitionCtx(ctx context.Context, h *hypergraph.Hypergraph) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	m := h.NumEdges()
	if m > maxBetaDefinitionEdges {
		return false, fmt.Errorf("acyclic: definition-based β test capped at %d edges, have %d", maxBetaDefinitionEdges, m)
	}
	all := h.Edges()
	tk := specTicker{ctx: ctx}
	for mask := 1; mask < 1<<m; mask++ {
		if tk.tick() {
			return false, tk.err
		}
		var edges []bitset.Set
		var nodes bitset.Set
		for b := 0; b < m; b++ {
			if mask&(1<<b) != 0 {
				edges = append(edges, all[b])
				nodes.InPlaceOr(all[b])
			}
		}
		if !gyo.IsAcyclic(h.Derive(nodes, edges)) {
			return false, nil
		}
	}
	return true, nil
}

// IsGammaAcyclic reports whether h has no γ-cycle in the sense of Fagin
// (JACM 1983): a sequence (S₁,x₁,S₂,x₂,…,S_m,x_m,S₁) with m ≥ 3, distinct
// edges S_i, distinct nodes x_i, x_i ∈ S_i ∩ S_{i+1}, and — for every i < m —
// x_i belonging to no other edge of the sequence. The search is exponential;
// intended for small hypergraphs.
func IsGammaAcyclic(h *hypergraph.Hypergraph) bool {
	ok, _ := IsGammaAcyclicCtx(context.Background(), h)
	return ok
}

// IsGammaAcyclicCtx is IsGammaAcyclic observing ctx: the recursive sequence
// search polls the context as it extends candidates, so a deadline stops
// the exponential search mid-branch. A cancelled search reports the context
// error; the boolean is meaningless then.
func IsGammaAcyclicCtx(ctx context.Context, h *hypergraph.Hypergraph) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	tk := &specTicker{ctx: ctx}
	edges := h.Edges()
	for start := range edges {
		if searchGamma(edges, tk, start, []int{start}, nil) {
			return false, nil
		}
		if tk.err != nil {
			return false, tk.err
		}
	}
	return true, nil
}

// searchGamma extends the sequence seq (edge indices) with connecting nodes
// xs (len(xs) == len(seq)-1) and reports whether a γ-cycle through
// seq[0] exists. On cancellation it unwinds returning false with tk.err
// set; the caller must check tk.err before trusting a negative answer.
func searchGamma(edges []bitset.Set, tk *specTicker, start int, seq []int, xs []int) bool {
	if tk.tick() {
		return false
	}
	last := seq[len(seq)-1]
	// Try closing the cycle: need len(seq) >= 3 and x_m ∈ S_m ∩ S_1 distinct
	// from earlier x's. x_m is exempt from the "no other edge" condition.
	if len(seq) >= 3 {
		closing := edges[last].And(edges[start])
		ok := false
		closing.ForEach(func(x int) {
			if ok || containsInt(xs, x) {
				return
			}
			ok = true
		})
		if ok {
			return true
		}
	}
	if len(seq) == len(edges) {
		return false
	}
	for next := range edges {
		if containsInt(seq, next) {
			continue
		}
		inter := edges[last].And(edges[next])
		found := false
		inter.ForEach(func(x int) {
			if found || containsInt(xs, x) {
				return
			}
			// x_i (i < m) may belong to no other edge of the sequence.
			// Edges of the final sequence are unknown ahead of time, so we
			// enforce it incrementally against the current prefix and
			// retro-check when extending.
			for _, s := range seq[:len(seq)-1] {
				if edges[s].Contains(x) {
					return
				}
			}
			// Also, earlier interior x's must not be contained in the new
			// edge `next`.
			for _, px := range xs {
				if edges[next].Contains(px) {
					return
				}
			}
			seq2 := append(append([]int{}, seq...), next)
			xs2 := append(append([]int{}, xs...), x)
			if searchGamma(edges, tk, start, seq2, xs2) {
				found = true
			}
		})
		if found {
			return true
		}
	}
	return false
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// Classification reports where a hypergraph sits in the acyclicity
// hierarchy. The fields are ordered from weakest to strongest notion.
type Classification struct {
	Alpha bool // the paper's acyclicity (GYO-reducible)
	Beta  bool // every edge subfamily α-acyclic
	Gamma bool // no γ-cycle
	Berge bool // incidence graph is a forest
}

// Classify computes the full classification of h. The γ test is exponential,
// so Classify is intended for small-to-moderate hypergraphs.
func Classify(h *hypergraph.Hypergraph) Classification {
	return Classification{
		Alpha: IsAcyclic(h),
		Beta:  IsBetaAcyclic(h),
		Gamma: IsGammaAcyclic(h),
		Berge: IsBergeAcyclic(h),
	}
}

// String renders e.g. "α✓ β✓ γ✗ Berge✗".
func (c Classification) String() string {
	mark := func(b bool) string {
		if b {
			return "✓"
		}
		return "✗"
	}
	return fmt.Sprintf("α%s β%s γ%s Berge%s", mark(c.Alpha), mark(c.Beta), mark(c.Gamma), mark(c.Berge))
}
