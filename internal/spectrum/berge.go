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
	w, err := load(ctx, h)
	if err != nil {
		return false, err
	}
	n := len(w.nodeOf)
	// Items 0..n-1 are nodes, n..n+m-1 are edges.
	parent := make([]int32, n+len(w.members))
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	for e, mem := range w.members {
		if err := w.t.tick(len(mem)); err != nil {
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
