// Package gen generates hypergraph workloads for tests, experiments, and
// benchmarks: named families (paths, stars, rings, grids, cliques),
// seeded random hypergraphs (cyclic and guaranteed-acyclic), and an
// exhaustive corpus of all small reduced connected hypergraphs used as
// ground truth in differential tests.
package gen

import (
	"fmt"
	"math/rand"

	"repro/internal/bitset"
	"repro/internal/hypergraph"
)

// NodeNames returns n deterministic node names: A..Z for n <= 26, else
// N0, N1, ...
func NodeNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		if n <= 26 {
			out[i] = string(rune('A' + i))
		} else {
			out[i] = fmt.Sprintf("N%d", i)
		}
	}
	return out
}

// PathGraph returns the acyclic 2-uniform path A-B, B-C, ... with n nodes.
func PathGraph(n int) *hypergraph.Hypergraph {
	names := NodeNames(n)
	var edges [][]string
	for i := 0; i+1 < n; i++ {
		edges = append(edges, []string{names[i], names[i+1]})
	}
	return hypergraph.New(edges)
}

// Star returns the acyclic 2-uniform star with center A and n-1 leaves.
func Star(n int) *hypergraph.Hypergraph {
	names := NodeNames(n)
	var edges [][]string
	for i := 1; i < n; i++ {
		edges = append(edges, []string{names[0], names[i]})
	}
	return hypergraph.New(edges)
}

// CycleGraph returns the 2-uniform cycle on n >= 3 nodes (cyclic as a
// hypergraph for every n >= 3).
func CycleGraph(n int) *hypergraph.Hypergraph {
	names := NodeNames(n)
	var edges [][]string
	for i := 0; i < n; i++ {
		edges = append(edges, []string{names[i], names[(i+1)%n]})
	}
	return hypergraph.New(edges)
}

// Grid returns the 2-uniform r x c grid graph (cyclic when r, c >= 2).
func Grid(r, c int) *hypergraph.Hypergraph {
	name := func(i, j int) string { return fmt.Sprintf("N%d_%d", i, j) }
	var edges [][]string
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if j+1 < c {
				edges = append(edges, []string{name(i, j), name(i, j+1)})
			}
			if i+1 < r {
				edges = append(edges, []string{name(i, j), name(i+1, j)})
			}
		}
	}
	return hypergraph.New(edges)
}

// CliqueGraph returns the complete 2-uniform graph K_n (cyclic for n >= 3).
func CliqueGraph(n int) *hypergraph.Hypergraph {
	names := NodeNames(n)
	var edges [][]string
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, []string{names[i], names[j]})
		}
	}
	return hypergraph.New(edges)
}

// HyperRing returns k >= 3 arity-3 edges arranged in a ring:
// {x_i, y_i, x_{i+1}} — cyclic, with no articulation sets, used as the
// witness-extraction stress family.
func HyperRing(k int) *hypergraph.Hypergraph {
	var edges [][]string
	for i := 0; i < k; i++ {
		edges = append(edges, []string{
			fmt.Sprintf("X%d", i),
			fmt.Sprintf("Y%d", i),
			fmt.Sprintf("X%d", (i+1)%k),
		})
	}
	return hypergraph.New(edges)
}

// AcyclicChain returns m edges of the given arity chained with the given
// overlap: edge i shares `overlap` nodes with edge i-1 and introduces
// arity-overlap fresh nodes. The result satisfies the running-intersection
// property, hence is acyclic. Requires 1 <= overlap < arity.
func AcyclicChain(m, arity, overlap int) *hypergraph.Hypergraph {
	if overlap < 1 || overlap >= arity {
		panic("gen: need 1 <= overlap < arity")
	}
	var edges [][]string
	next := 0
	fresh := func(k int) []string {
		out := make([]string, k)
		for i := range out {
			out[i] = fmt.Sprintf("N%d", next)
			next++
		}
		return out
	}
	first := fresh(arity)
	edges = append(edges, first)
	prev := first
	for i := 1; i < m; i++ {
		e := append([]string{}, prev[len(prev)-overlap:]...)
		e = append(e, fresh(arity-overlap)...)
		edges = append(edges, e)
		prev = e
	}
	return hypergraph.New(edges)
}

// AcyclicChainIDs is the id-based AcyclicChain: the same chained structure
// built through hypergraph.FromIDs, skipping name interning entirely. With
// edges stored as sorted id runs this is the family that scales to 10⁶
// edges — the node universe grows with m, which dense bitset edges cannot
// afford (universe/64 words per edge), and construction is O(total edge
// size). Edge i covers the contiguous ids [i·(arity-overlap),
// i·(arity-overlap)+arity). Requires 1 <= overlap < arity.
func AcyclicChainIDs(m, arity, overlap int) *hypergraph.Hypergraph {
	if overlap < 1 || overlap >= arity {
		panic("gen: need 1 <= overlap < arity")
	}
	step := arity - overlap
	n := arity + (m-1)*step
	edges := make([][]int32, m)
	flat := make([]int32, m*arity) // one backing array for every edge
	for i := 0; i < m; i++ {
		e := flat[i*arity : (i+1)*arity]
		for j := range e {
			e[j] = int32(i*step + j)
		}
		edges[i] = e
	}
	return hypergraph.FromIDs(n, edges)
}

// AcyclicBlocksIDs is the id-based AcyclicBlocks (same structure, built via
// hypergraph.FromIDs): blockCount full block edges chained by 2-node
// connectors, padded to m edges with random contiguous sub-ranges of random
// blocks. Scaling blockCount with m keeps per-block subset populations
// bounded, which is the regime where the linearized Reduce shows its
// edge-size-proportional cost. Requirements match AcyclicBlocks.
func AcyclicBlocksIDs(rng *rand.Rand, m, blockCount, blockSize int) *hypergraph.Hypergraph {
	if blockCount < 1 || blockSize < 2 || m < 2*blockCount-1 {
		panic("gen: AcyclicBlocksIDs needs blockCount >= 1, blockSize >= 2, m >= 2*blockCount-1")
	}
	n := blockCount * blockSize
	edges := make([][]int32, 0, m)
	for b := 0; b < blockCount; b++ {
		e := make([]int32, blockSize)
		for j := range e {
			e[j] = int32(b*blockSize + j)
		}
		edges = append(edges, e)
	}
	for b := 0; b+1 < blockCount; b++ {
		edges = append(edges, []int32{int32(b*blockSize + blockSize - 1), int32((b + 1) * blockSize)})
	}
	for len(edges) < m {
		b := rng.Intn(blockCount) * blockSize
		arity := 2 + rng.Intn(min(15, blockSize-1))
		start := rng.Intn(blockSize - arity + 1)
		e := make([]int32, arity)
		for j := range e {
			e[j] = int32(b + start + j)
		}
		edges = append(edges, e)
	}
	return hypergraph.FromIDs(n, edges)
}

// RandomRawIDs is the id-based RandomRaw: independent random edges over a
// bounded universe with no reduction or connectivity repair, built via
// hypergraph.FromIDs. Such instances are cyclic with overwhelming
// probability and stress the rejection path of the acyclicity engines at
// sizes where name interning would dominate the measurement.
func RandomRawIDs(rng *rand.Rand, spec RandomSpec) *hypergraph.Hypergraph {
	edges := make([][]int32, 0, spec.Edges)
	for i := 0; i < spec.Edges; i++ {
		a := min(spec.arity(rng), spec.Nodes)
		seen := make(map[int32]bool, a)
		e := make([]int32, 0, a)
		for len(e) < a {
			p := int32(rng.Intn(spec.Nodes))
			if !seen[p] {
				seen[p] = true
				e = append(e, p)
			}
		}
		edges = append(edges, e)
	}
	return hypergraph.FromIDs(spec.Nodes, edges)
}

// AcyclicBlocks returns a large guaranteed-acyclic hypergraph with m edges
// over a bounded node universe of blockCount*blockSize nodes — the
// large-instance benchmark family. (Dense bitset edges cost universe/64
// words each, which made unbounded-universe families like AcyclicChain
// memory-bound near 10⁵ edges; this family never was.)
//
// Structure: one full edge per block of nodes, 2-node connector edges
// chaining consecutive blocks, and the remaining m-(2*blockCount-1) edges
// random contiguous sub-ranges of a random block. Every sub-range is a
// subset of its block edge and the block edges form a chain, so the whole
// hypergraph satisfies the running-intersection property and is α-acyclic
// (though deliberately not reduced). Requires m >= 2*blockCount-1,
// blockCount >= 1, blockSize >= 2.
func AcyclicBlocks(rng *rand.Rand, m, blockCount, blockSize int) *hypergraph.Hypergraph {
	if blockCount < 1 || blockSize < 2 || m < 2*blockCount-1 {
		panic("gen: AcyclicBlocks needs blockCount >= 1, blockSize >= 2, m >= 2*blockCount-1")
	}
	names := NodeNames(blockCount * blockSize)
	block := func(b int) []string { return names[b*blockSize : (b+1)*blockSize] }
	edges := make([][]string, 0, m)
	for b := 0; b < blockCount; b++ {
		edges = append(edges, block(b))
	}
	for b := 0; b+1 < blockCount; b++ {
		edges = append(edges, []string{block(b)[blockSize-1], block(b + 1)[0]})
	}
	for len(edges) < m {
		b := block(rng.Intn(blockCount))
		arity := 2 + rng.Intn(min(15, blockSize-1))
		start := rng.Intn(blockSize - arity + 1)
		edges = append(edges, b[start:start+arity])
	}
	return hypergraph.New(edges)
}

// RandomRaw returns a seeded random hypergraph with no reduction and no
// connectivity repair: edges are drawn independently over the node
// universe. Unlike Random, generation is O(total edge size), so it scales
// to 10⁵ edges; such instances are cyclic with overwhelming probability and
// stress the rejection path of the acyclicity engines.
func RandomRaw(rng *rand.Rand, spec RandomSpec) *hypergraph.Hypergraph {
	names := NodeNames(spec.Nodes)
	edges := make([][]string, 0, spec.Edges)
	for i := 0; i < spec.Edges; i++ {
		a := min(spec.arity(rng), spec.Nodes)
		seen := make(map[int]bool, a)
		e := make([]string, 0, a)
		for len(e) < a {
			p := rng.Intn(spec.Nodes)
			if !seen[p] {
				seen[p] = true
				e = append(e, names[p])
			}
		}
		edges = append(edges, e)
	}
	return hypergraph.New(edges)
}

// RandomSpec parameterizes the random hypergraph generators.
type RandomSpec struct {
	Nodes    int // number of nodes to draw from
	Edges    int // number of edges
	MinArity int // inclusive, >= 1
	MaxArity int // inclusive, >= MinArity
}

func (s RandomSpec) arity(rng *rand.Rand) int {
	if s.MaxArity <= s.MinArity {
		return s.MinArity
	}
	return s.MinArity + rng.Intn(s.MaxArity-s.MinArity+1)
}

// Random returns a seeded random hypergraph: edges drawn uniformly over the
// node universe, then linked into a single component and reduced. The result
// may be cyclic or acyclic.
func Random(rng *rand.Rand, spec RandomSpec) *hypergraph.Hypergraph {
	names := NodeNames(spec.Nodes)
	var edges [][]string
	for i := 0; i < spec.Edges; i++ {
		a := spec.arity(rng)
		perm := rng.Perm(spec.Nodes)
		e := make([]string, 0, a)
		for _, p := range perm[:min(a, spec.Nodes)] {
			e = append(e, names[p])
		}
		edges = append(edges, e)
	}
	h := hypergraph.New(edges).Reduce()
	return connect(rng, h)
}

// connect links the components of h with fresh 2-node bridge edges so the
// result is connected.
func connect(rng *rand.Rand, h *hypergraph.Hypergraph) *hypergraph.Hypergraph {
	comps := h.Components()
	if len(comps) <= 1 {
		return h
	}
	edges := h.EdgeLists()
	for i := 1; i < len(comps); i++ {
		a := h.NodeNames(comps[0])[0]
		bNames := h.NodeNames(comps[i])
		b := bNames[rng.Intn(len(bNames))]
		edges = append(edges, []string{a, b})
	}
	return hypergraph.New(edges).Reduce()
}

// RandomAcyclic returns a seeded random acyclic hypergraph with the given
// number of edges and arity range (MinArity >= 2). It grows a join tree: each
// new edge overlaps a single existing edge in a proper nonempty subset and
// adds at least one fresh node, which guarantees the running-intersection
// property (hence acyclicity) and keeps the hypergraph reduced and connected.
// The Nodes field of spec is ignored; nodes are created on demand.
func RandomAcyclic(rng *rand.Rand, spec RandomSpec) *hypergraph.Hypergraph {
	if spec.MinArity < 2 {
		panic("gen: RandomAcyclic needs MinArity >= 2")
	}
	next := 0
	fresh := func() string {
		s := fmt.Sprintf("N%d", next)
		next++
		return s
	}
	var edges [][]string
	first := make([]string, spec.arity(rng))
	for i := range first {
		first[i] = fresh()
	}
	edges = append(edges, first)
	for len(edges) < spec.Edges {
		parent := edges[rng.Intn(len(edges))]
		a := spec.arity(rng)
		// Proper nonempty overlap: 1 <= k <= min(a-1, |parent|-1).
		maxK := min(a-1, len(parent)-1)
		if maxK < 1 {
			continue
		}
		k := 1 + rng.Intn(maxK)
		perm := rng.Perm(len(parent))
		e := make([]string, 0, a)
		for _, p := range perm[:k] {
			e = append(e, parent[p])
		}
		for len(e) < a {
			e = append(e, fresh())
		}
		edges = append(edges, e)
	}
	return hypergraph.New(edges)
}

// AllConnectedReduced enumerates every reduced connected hypergraph whose
// node set is exactly {first n names} (every node covered by some edge),
// for n <= 4. This is the exhaustive ground-truth corpus for differential
// tests. The count grows like the Dedekind numbers, so n is capped.
func AllConnectedReduced(n int) []*hypergraph.Hypergraph {
	if n < 1 || n > 4 {
		panic("gen: AllConnectedReduced supports 1 <= n <= 4")
	}
	names := NodeNames(n)
	subsets := 1<<n - 1 // nonempty subsets encoded 1..2^n-1
	// Pre-decode subsets to name lists and bitsets.
	type sub struct {
		mask  int
		nodes []string
	}
	subs := make([]sub, 0, subsets)
	for m := 1; m <= subsets; m++ {
		var ns []string
		for b := 0; b < n; b++ {
			if m&(1<<b) != 0 {
				ns = append(ns, names[b])
			}
		}
		subs = append(subs, sub{mask: m, nodes: ns})
	}
	var out []*hypergraph.Hypergraph
	for family := 1; family < 1<<len(subs); family++ {
		// Collect member masks; reject non-antichains early.
		var members []int
		ok := true
		cover := 0
		for i := 0; i < len(subs) && ok; i++ {
			if family&(1<<i) == 0 {
				continue
			}
			mi := subs[i].mask
			for _, mj := range members {
				if mi&mj == mi || mi&mj == mj { // one contains the other
					ok = false
					break
				}
			}
			members = append(members, mi)
			cover |= mi
		}
		if !ok || cover != subsets {
			continue
		}
		// Connectivity over masks.
		if !masksConnected(members) {
			continue
		}
		var edges [][]string
		for i, s := range subs {
			if family&(1<<i) != 0 {
				edges = append(edges, s.nodes)
			}
		}
		out = append(out, hypergraph.New(edges))
	}
	return out
}

func masksConnected(members []int) bool {
	if len(members) == 0 {
		return false
	}
	reached := members[0]
	used := make([]bool, len(members))
	used[0] = true
	for changed := true; changed; {
		changed = false
		for i, m := range members {
			if !used[i] && m&reached != 0 {
				used[i] = true
				reached |= m
				changed = true
			}
		}
	}
	for _, u := range used {
		if !u {
			return false
		}
	}
	return true
}

// RandomNodeSubset returns a random subset of h's nodes with each node
// included with probability p.
func RandomNodeSubset(rng *rand.Rand, h *hypergraph.Hypergraph, p float64) bitset.Set {
	var s bitset.Set
	h.NodeSet().ForEach(func(id int) {
		if rng.Float64() < p {
			s.Add(id)
		}
	})
	return s
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
