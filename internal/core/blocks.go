package core

import (
	"sort"

	"repro/internal/bitset"
	"repro/internal/hypergraph"
)

// Blocks decomposes h by articulation sets, generalizing the block
// decomposition of ordinary graphs the paper's abstract refers to: while a
// piece has an articulation set Y, it is split into the node-generated
// hypergraphs on (component of piece − Y) ∪ Y; pieces without articulation
// sets are the blocks. An acyclic hypergraph decomposes into single edges;
// a cyclic one retains at least one multi-edge block (its cyclic core lives
// there). Results are deduplicated and ordered canonically.
func Blocks(h *hypergraph.Hypergraph) []*hypergraph.Hypergraph {
	var out []*hypergraph.Hypergraph
	seen := map[string]bool{}
	var rec func(g *hypergraph.Hypergraph)
	rec = func(g *hypergraph.Hypergraph) {
		g = g.Reduce()
		if g.NumEdges() <= 1 {
			add(&out, seen, g)
			return
		}
		arts := g.ArticulationSets()
		if len(arts) == 0 {
			add(&out, seen, g)
			return
		}
		y := arts[0]
		for _, comp := range g.RemoveNodes(y).Components() {
			rec(g.NodeGenerated(comp.Or(y)))
		}
	}
	for _, comp := range h.Components() {
		rec(h.NodeGenerated(comp))
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].CanonicalString() < out[j].CanonicalString()
	})
	return out
}

func add(out *[]*hypergraph.Hypergraph, seen map[string]bool, g *hypergraph.Hypergraph) {
	k := g.CanonicalString()
	if !seen[k] {
		seen[k] = true
		*out = append(*out, g)
	}
}

// Ring is a witness for Lemma 4.1: pairwise-disjoint nonempty node sets
// N₁..N_k (k >= 3) and edges E₁..E_k with N_i ∪ N_{i+1} ⊆ E_i (cyclically,
// N_{k+1} = N₁), such that no edge of the hypergraph contains three of the
// N_i. Lemma 4.1 states that a hypergraph containing such a ring is cyclic.
type Ring struct {
	Sets  []bitset.Set
	Edges []int
}

// Validate checks the ring conditions against h.
func (r *Ring) Validate(h *hypergraph.Hypergraph) error {
	k := len(r.Sets)
	if k < 3 || len(r.Edges) != k {
		return errRing("need k >= 3 sets and k edges")
	}
	for i, s := range r.Sets {
		if s.IsEmpty() {
			return errRing("empty set")
		}
		for j := i + 1; j < k; j++ {
			if s.Intersects(r.Sets[j]) {
				return errRing("sets not pairwise disjoint")
			}
		}
	}
	edges := h.Edges()
	for i := 0; i < k; i++ {
		e := r.Edges[i]
		if e < 0 || e >= len(edges) {
			return errRing("edge index out of range")
		}
		pair := r.Sets[i].Or(r.Sets[(i+1)%k])
		if !pair.IsSubset(edges[e]) {
			return errRing("consecutive sets not inside their edge")
		}
	}
	if e, _ := edgeWithThree(h, r.Sets); e >= 0 {
		return errRing("an edge contains three of the sets")
	}
	return nil
}

type ringError string

func errRing(s string) error      { return ringError(s) }
func (e ringError) Error() string { return "core: invalid ring: " + string(e) }

// FindRing searches for a Lemma 4.1 ring with singleton sets N_i = {x_i}:
// a cyclic sequence of distinct nodes x₁..x_k (k >= 3) and edges E_i ⊇
// {x_i, x_{i+1}} such that no edge contains three of the x_i. Singleton
// rings suffice for the 2-uniform families and most small cyclic
// hypergraphs; found is false when no singleton ring exists (which does not
// imply acyclicity).
func FindRing(h *hypergraph.Hypergraph, maxLen int) (*Ring, bool) {
	if maxLen <= 0 {
		maxLen = h.NumNodes()
	}
	nodes := h.NodeSet().Elems()
	for _, start := range nodes {
		if r, ok := ringDFS(h, start, []int{start}, maxLen); ok {
			return r, true
		}
	}
	return nil, false
}

func ringDFS(h *hypergraph.Hypergraph, start int, seq []int, maxLen int) (*Ring, bool) {
	last := seq[len(seq)-1]
	if len(seq) >= 3 {
		if r, ok := closeRing(h, seq); ok {
			return r, true
		}
	}
	if len(seq) == maxLen {
		return nil, false
	}
	for _, next := range h.NodeSet().Elems() {
		// Canonical form: the start node is the minimum of the sequence, so
		// every ring is explored exactly once up to rotation.
		if next <= start || containsInt(seq, next) {
			continue
		}
		if h.EdgeContaining(bitset.Of(last, next)) < 0 {
			continue
		}
		if r, ok := ringDFS(h, start, append(append([]int{}, seq...), next), maxLen); ok {
			return r, true
		}
	}
	return nil, false
}

// closeRing checks whether the node sequence closes into a valid ring and
// assembles it.
func closeRing(h *hypergraph.Hypergraph, seq []int) (*Ring, bool) {
	k := len(seq)
	sets := make([]bitset.Set, k)
	for i, x := range seq {
		sets[i] = bitset.Of(x)
	}
	edges := make([]int, k)
	for i := 0; i < k; i++ {
		e := h.EdgeContaining(bitset.Of(seq[i], seq[(i+1)%k]))
		if e < 0 {
			return nil, false
		}
		edges[i] = e
	}
	r := &Ring{Sets: sets, Edges: edges}
	if err := r.Validate(h); err != nil {
		return nil, false
	}
	return r, true
}

// CheckLemma42 validates Lemma 4.2 for a given h and sacred set x: every
// articulation set Y of TR(h, x) must (a) be the intersection of two edges
// of h, and (b) separate in h every pair of components it separates in
// TR(h, x). It returns nil when the lemma holds.
func CheckLemma42(h *hypergraph.Hypergraph, x bitset.Set) error {
	tr := CC(h, x)
	for _, y := range tr.ArticulationSets() {
		if !isEdgeIntersection(h, y) {
			return errLemma42("articulation set " + setName(h, y) + " of TR is not an edge intersection of H")
		}
		trComps := tr.RemoveNodes(y).Components()
		hComps := h.RemoveNodes(y).Components()
		for i := 0; i < len(trComps); i++ {
			for j := i + 1; j < len(trComps); j++ {
				// Two TR-components must not live inside one H-component.
				same := false
				for _, hc := range hComps {
					if trComps[i].Intersects(hc) && trComps[j].Intersects(hc) {
						same = true
					}
				}
				if same {
					return errLemma42("components " + setName(h, trComps[i]) + " and " +
						setName(h, trComps[j]) + " of TR−Y are not separated in H−Y")
				}
			}
		}
	}
	return nil
}

func isEdgeIntersection(h *hypergraph.Hypergraph, y bitset.Set) bool {
	edges := h.Edges()
	for i, e := range edges {
		for _, f := range edges[i+1:] {
			if e.And(f).Equal(y) {
				return true
			}
		}
	}
	return false
}

func setName(h *hypergraph.Hypergraph, s bitset.Set) string {
	return "{" + joinNames(h, s) + "}"
}

type lemmaError string

func errLemma42(s string) error    { return lemmaError(s) }
func (e lemmaError) Error() string { return "core: lemma 4.2 violated: " + string(e) }
