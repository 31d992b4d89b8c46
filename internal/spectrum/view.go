package spectrum

import (
	"context"

	"repro/internal/hypergraph"
)

// view is the live hypergraph a tester works on: its own copy of the
// incidence index's lists — each edge's members as ascending node ids, each
// node id's incident edges as ascending edge indices — plus dead marks.
// Node ids no edge covers are dead from the start, since they constrain no
// class. Deletions only set the dead marks: liveEdges and liveNodes drop
// dead entries lazily, compacting a list in place the next time it is read,
// which keeps its order.
type view struct {
	t        ticker
	members  [][]int32 // edge -> ascending node ids
	incident [][]int32 // node id -> ascending edge indices
	deadV    []bool    // node id
	deadE    []bool
}

// load copies the mutable parts of x into a fresh view, polling ctx on
// entry and per cancelStride copied entries. Members and incidences each
// fill one backing array.
func load(ctx context.Context, x hypergraph.Incidence) (*view, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	w := &view{t: ticker{ctx: ctx}, deadV: make([]bool, x.Universe()), deadE: make([]bool, x.NumEdges())}
	var err error
	if w.members, err = w.copyLists(x.NumEdges(), x.Size(), x.Members); err != nil {
		return nil, err
	}
	if w.incident, err = w.copyLists(x.Universe(), x.Size(), x.Edges); err != nil {
		return nil, err
	}
	for v, inc := range w.incident {
		w.deadV[v] = len(inc) == 0
	}
	return w, nil
}

// copyLists copies lists 0..k-1 of one kind into one backing array of
// size entries, capping each copy so a compaction stays inside its list.
func (w *view) copyLists(k, size int, list func(int) []int32) ([][]int32, error) {
	out := make([][]int32, k)
	flat := make([]int32, 0, size)
	for i := range out {
		start := len(flat)
		flat = append(flat, list(i)...)
		out[i] = flat[start:len(flat):len(flat)]
		if err := w.t.tick(len(flat) - start); err != nil {
			return nil, err
		}
	}
	return out, nil
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

// liveIDs lists the live node ids in ascending order, nil when none is
// live.
func (w *view) liveIDs() []int32 {
	var ids []int32
	for v, dead := range w.deadV {
		if !dead {
			ids = append(ids, int32(v))
		}
	}
	return ids
}
