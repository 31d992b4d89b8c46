package spectrum

import (
	"context"

	"repro/internal/hypergraph"
)

// Berge reports Berge-acyclicity: whether the bipartite node–edge incidence
// graph is a forest. A union-find over nodes and edges detects the first
// incidence that closes a cycle; multi-incidence of a node pair in two edges
// shows up the same way, so no separate multiplicity check is needed.
func Berge(ctx context.Context, h *hypergraph.Hypergraph) (bool, error) {
	return runBerge(ctx, h.Incidence())
}

// runBerge is Berge over an incidence index already built; it reads x's
// member lists as they stand and copies nothing.
func runBerge(ctx context.Context, x hypergraph.Incidence) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	t := ticker{ctx: ctx}
	n := x.Universe()
	// Items 0..n-1 are node ids, n..n+m-1 are edges.
	parent := make([]int32, n+x.NumEdges())
	for i := range parent {
		parent[i] = int32(i)
	}
	if err := t.tick(len(parent)); err != nil {
		return false, err
	}
	find := func(i int32) int32 {
		for parent[i] != i {
			parent[i] = parent[parent[i]] // path halving
			i = parent[i]
		}
		return i
	}
	for e := range x.NumEdges() {
		mem := x.Members(e)
		if err := t.tick(len(mem)); err != nil {
			return false, err
		}
		for _, v := range mem {
			a, b := find(v), find(int32(n+e))
			if a == b {
				return false, nil
			}
			parent[a] = b
		}
	}
	return true, nil
}
