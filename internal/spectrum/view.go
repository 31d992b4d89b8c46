package spectrum

import (
	"context"

	"repro/internal/hypergraph"
)

// view is the live hypergraph a tester works on. Covered nodes are numbered
// densely in id order, so each edge's members are ascending dense ids and
// each node's incident edges are ascending edge indices; isolated universe
// nodes are left out, since they constrain no class. Deletions only set the
// dead marks: liveEdges and liveNodes drop dead entries lazily, compacting
// a list in place the next time it is read, which keeps its order.
type view struct {
	t        ticker
	members  [][]int32 // edge -> ascending dense node ids
	incident [][]int32 // dense node -> ascending edge indices
	nodeOf   []int32   // dense node -> node id
	deadV    []bool    // dense node
	deadE    []bool
}

// load builds the view of h, polling ctx on entry and per cancelStride
// incidences. Members and incidences each fill one capped backing array.
func load(ctx context.Context, h *hypergraph.Hypergraph) (*view, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	covered := h.CoveredNodes()
	w := &view{t: ticker{ctx: ctx}, nodeOf: make([]int32, 0, covered.Len())}
	m := h.NumEdges()
	dense := make([]int32, h.Universe())
	covered.ForEach(func(id int) {
		dense[id] = int32(len(w.nodeOf))
		w.nodeOf = append(w.nodeOf, int32(id))
	})
	n := len(w.nodeOf)
	size := 0
	for e := 0; e < m; e++ {
		size += h.EdgeView(e).Len()
	}
	flat := make([]int32, 0, size)
	deg := make([]int32, n)
	w.members = make([][]int32, m)
	for e := 0; e < m; e++ {
		start := len(flat)
		h.EdgeView(e).ForEach(func(id int) {
			flat = append(flat, dense[id])
			deg[dense[id]]++
		})
		w.members[e] = flat[start:len(flat):len(flat)]
		if err := w.t.tick(len(flat) - start); err != nil {
			return nil, err
		}
	}
	inc := make([]int32, size)
	w.incident = make([][]int32, n)
	off := 0
	for v, d := range deg {
		w.incident[v] = inc[off : off : off+int(d)]
		off += int(d)
	}
	for e, mem := range w.members {
		for _, v := range mem {
			w.incident[v] = append(w.incident[v], int32(e))
		}
	}
	w.deadV = make([]bool, n)
	w.deadE = make([]bool, m)
	return w, nil
}

// liveEdges compacts v's incidence list in place, dropping dead edges, and
// returns it; the result aliases the stored list.
func (w *view) liveEdges(v int32) []int32 {
	inc := w.incident[v][:0]
	for _, e := range w.incident[v] {
		if !w.deadE[e] {
			inc = append(inc, e)
		}
	}
	w.incident[v] = inc
	return inc
}

// liveNodes compacts e's member list in place, dropping dead nodes, and
// returns it; the result aliases the stored list.
func (w *view) liveNodes(e int32) []int32 {
	mem := w.members[e][:0]
	for _, v := range w.members[e] {
		if !w.deadV[v] {
			mem = append(mem, v)
		}
	}
	w.members[e] = mem
	return mem
}

// liveIDs lists the live nodes' ids in id order, nil when none is live.
func (w *view) liveIDs() []int32 {
	var ids []int32
	for v, dead := range w.deadV {
		if !dead {
			ids = append(ids, w.nodeOf[v])
		}
	}
	return ids
}
