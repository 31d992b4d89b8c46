package core

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/gyo"
	"repro/internal/hypergraph"
)

// MinimalCyclicCore returns a node set N of h such that the node-generated
// hypergraph for N is cyclic, connected, has at least two edges and no
// articulation set, and every proper node-removal makes it acyclic. Such a
// core exists exactly when h is cyclic; found is false otherwise.
//
// The construction greedily deletes nodes while cyclicity survives. The 'if'
// direction of Theorem 6.1 starts from exactly this configuration ("we may
// assume H has no articulation sets at all").
func MinimalCyclicCore(h *hypergraph.Hypergraph) (bitset.Set, bool) {
	if gyo.IsAcyclic(h) {
		return bitset.Set{}, false
	}
	n := h.NodeSet()
	for {
		shrunk := false
		for _, id := range n.Elems() {
			cand := n.Clone()
			cand.Remove(id)
			if !gyo.IsAcyclic(h.NodeGenerated(cand)) {
				n = cand
				shrunk = true
			}
		}
		if !shrunk {
			return n, true
		}
	}
}

// IndependentPathWitness constructs an independent path for a cyclic
// hypergraph, following the 'if' direction of Theorem 6.1:
//
//  1. shrink to a minimal cyclic core F (connected, no articulation sets);
//  2. pick edges F*, G* of F whose intersection X is maximal;
//  3. walk from F*−X to G*−X through F−X, collecting stepping-stone sets
//     M₁ = F*−X, M_i = (E_{i-1} ∩ E_i)−X, M_k = G*−X;
//  4. shrink the sequence (M₁, …, M_k, X) whenever an edge of F contains
//     three of its sets, per the proof's induction.
//
// It returns the path and the node-generated core F it lives in. The path
// is stated over h's node ids (the core is node-generated, so its nodes are
// h's nodes) and is verified in F before being returned. found is false iff
// h is acyclic; the acyclic side costs one Graham reduction.
func IndependentPathWitness(h *hypergraph.Hypergraph) (*Path, *hypergraph.Hypergraph, bool, error) {
	coreNodes, found := MinimalCyclicCore(h)
	if !found {
		return nil, nil, false, nil
	}
	f := h.NodeGenerated(coreNodes)
	path, err := witnessInCore(f)
	if err != nil {
		return nil, nil, true, err
	}
	// The witness is valid in the core f; by the theorem's argument it stays
	// independent in f. Verify against f (paths in a node-generated core do
	// not always transfer verbatim to h, since h's larger edges may contain
	// three of the sets).
	if err := path.Validate(f); err != nil {
		return nil, nil, true, fmt.Errorf("core: witness invalid: %w", err)
	}
	if ok, _ := path.IsIndependent(f); !ok {
		return nil, nil, true, fmt.Errorf("core: witness not independent in core")
	}
	return path, f, true, nil
}

// witnessInCore builds the stepping-stone path inside a cyclic core
// (connected, >= 2 edges, no articulation sets).
func witnessInCore(f *hypergraph.Hypergraph) (*Path, error) {
	fi, gi, x := maximalIntersection(f)
	if fi < 0 {
		return nil, fmt.Errorf("core: no intersecting edge pair in core %v", f)
	}
	steps, err := edgeWalk(f, fi, gi, x)
	if err != nil {
		return nil, err
	}
	// Stepping stones: M1 = F*−X, interior = consecutive intersections − X,
	// Mk = G*−X, then X itself.
	edges := f.Edges()
	var sets []bitset.Set
	sets = append(sets, edges[fi].AndNot(x))
	for i := 0; i+1 < len(steps); i++ {
		m := edges[steps[i]].And(edges[steps[i+1]]).AndNot(x)
		sets = append(sets, m)
	}
	sets = append(sets, edges[gi].AndNot(x))
	sets = append(sets, x.Clone())
	return shrinkPath(f, sets)
}

// maximalIntersection returns an edge pair (i, j) of f whose nonempty
// intersection is not properly contained in any other pairwise intersection,
// along with that intersection.
func maximalIntersection(f *hypergraph.Hypergraph) (int, int, bitset.Set) {
	bi, bj := -1, -1
	var best bitset.Set
	edges := f.Edges()
	m := len(edges)
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			x := edges[i].And(edges[j])
			if x.IsEmpty() {
				continue
			}
			if bi < 0 || best.IsProperSubset(x) {
				bi, bj, best = i, j, x
			}
		}
	}
	if bi < 0 {
		return -1, -1, bitset.Set{}
	}
	// best is now some intersection; lift it to a maximal one.
	for changed := true; changed; {
		changed = false
		for i := 0; i < m; i++ {
			for j := i + 1; j < m; j++ {
				x := edges[i].And(edges[j])
				if best.IsProperSubset(x) {
					bi, bj, best = i, j, x
					changed = true
				}
			}
		}
	}
	return bi, bj, best
}

// edgeWalk finds a sequence of edge indices from edge a to edge b in f where
// consecutive edges intersect outside x. It exists because removing an
// articulation-set-free core's edge intersection never disconnects it.
func edgeWalk(f *hypergraph.Hypergraph, a, b int, x bitset.Set) ([]int, error) {
	edges := f.Edges()
	m := len(edges)
	parent := make([]int, m)
	for i := range parent {
		parent[i] = -2
	}
	parent[a] = -1
	queue := []int{a}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if v == b {
			var rev []int
			for u := b; u != -1; u = parent[u] {
				rev = append(rev, u)
			}
			for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
				rev[i], rev[j] = rev[j], rev[i]
			}
			return rev, nil
		}
		for w := 0; w < m; w++ {
			if parent[w] != -2 {
				continue
			}
			if edges[v].And(edges[w]).AndNot(x).IsEmpty() {
				continue
			}
			parent[w] = v
			queue = append(queue, w)
		}
	}
	return nil, fmt.Errorf("core: edges %d and %d disconnected outside %v — not an articulation-free core", a, b, f.NodeNames(x))
}

// shrinkPath applies the proof's induction to the raw stepping-stone
// sequence until it is a valid connecting path: duplicates are cut out, and
// whenever an edge contains three of the sets the sequence is shortened
// (cutting the stretch between two co-edge sets, or restarting after the
// middle set when the edge spans both endpoints).
func shrinkPath(f *hypergraph.Hypergraph, sets []bitset.Set) (*Path, error) {
	const maxIter = 1 << 12
	for iter := 0; ; iter++ {
		if iter > maxIter {
			return nil, fmt.Errorf("core: path shrinking did not converge")
		}
		if len(sets) < 2 {
			return nil, fmt.Errorf("core: path collapsed below two sets")
		}
		// Cut out duplicates: keep the first occurrence, resume at the last.
		if i, j := firstDuplicate(sets); i >= 0 {
			sets = append(sets[:i+1], sets[j+1:]...)
			continue
		}
		e, trio := edgeWithThree(f, sets)
		if e < 0 {
			break
		}
		i, j, l := trio[0], trio[1], trio[2]
		if i == 0 && l == len(sets)-1 {
			// The edge spans both endpoints (it contains M₁ ∪ X): restart
			// the path at the middle set, which stays co-edge with X.
			sets = sets[j:]
			continue
		}
		// Cut the stretch strictly between positions i and l; both remain
		// and are now consecutive inside edge e.
		sets = append(sets[:i+1], sets[l:]...)
	}
	p := &Path{Sets: sets}
	return p, nil
}

func firstDuplicate(sets []bitset.Set) (int, int) {
	for i := 0; i < len(sets); i++ {
		for j := len(sets) - 1; j > i; j-- {
			if sets[i].Equal(sets[j]) {
				return i, j
			}
		}
	}
	return -1, -1
}

// FindIndependentPathExhaustive searches every connecting path of length at
// most maxLen whose sets are subsets of edges, returning the first
// independent one. It is exponential and intended for small hypergraphs in
// tests of Theorem 6.1; maxLen <= 0 selects min(numEdges+2, 6).
func FindIndependentPathExhaustive(h *hypergraph.Hypergraph, maxLen int) (*Path, bool) {
	if maxLen <= 0 {
		maxLen = h.NumEdges() + 2
		if maxLen > 6 {
			maxLen = 6
		}
	}
	cands := candidateSets(h)
	ccCache := map[string]bitset.Set{}
	ccNodes := func(union bitset.Set) bitset.Set {
		k := union.Key()
		if v, ok := ccCache[k]; ok {
			return v
		}
		v := CCNodes(h, union)
		ccCache[k] = v
		return v
	}
	// edgeCount[e] = number of chosen sets contained in edge e.
	edgeCount := make([]int, h.NumEdges())
	edges := h.Edges() // hoisted: Edges() materializes a fresh slice per call
	var seq []bitset.Set
	var result *Path

	var dfs func() bool
	dfs = func() bool {
		if len(seq) >= 3 {
			cc := ccNodes(seq[0].Or(seq[len(seq)-1]))
			for _, s := range seq[1 : len(seq)-1] {
				if !s.IsSubset(cc) {
					cp := make([]bitset.Set, len(seq))
					for i := range seq {
						cp[i] = seq[i].Clone()
					}
					result = &Path{Sets: cp}
					return true
				}
			}
		}
		if len(seq) == maxLen {
			return false
		}
		for _, cand := range cands {
			if len(seq) > 0 {
				// Consecutive pair must fit in an edge.
				if h.EdgeContaining(seq[len(seq)-1].Or(cand)) < 0 {
					continue
				}
			}
			dup := false
			for _, s := range seq {
				if s.Equal(cand) {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			// Minimality: no edge may contain three sets.
			ok := true
			for e, edge := range edges {
				if cand.IsSubset(edge) && edgeCount[e] == 2 {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			for e, edge := range edges {
				if cand.IsSubset(edge) {
					edgeCount[e]++
				}
			}
			seq = append(seq, cand)
			if dfs() {
				return true
			}
			seq = seq[:len(seq)-1]
			for e, edge := range edges {
				if cand.IsSubset(edge) {
					edgeCount[e]--
				}
			}
		}
		return false
	}
	if dfs() {
		return result, true
	}
	return nil, false
}

// candidateSets enumerates the distinct nonempty subsets of h's edges —
// every set of a connecting path must be one of these.
func candidateSets(h *hypergraph.Hypergraph) []bitset.Set {
	seen := map[string]bool{}
	var out []bitset.Set
	for _, e := range h.Edges() {
		elems := e.Elems()
		n := len(elems)
		for mask := 1; mask < 1<<n; mask++ {
			var s bitset.Set
			for b := 0; b < n; b++ {
				if mask&(1<<b) != 0 {
					s.Add(elems[b])
				}
			}
			k := s.Key()
			if !seen[k] {
				seen[k] = true
				out = append(out, s)
			}
		}
	}
	return out
}
