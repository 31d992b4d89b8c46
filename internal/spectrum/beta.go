package spectrum

import (
	"cmp"
	"context"
	"slices"

	"repro/internal/hypergraph"
)

// BetaResult is the verdict of the polynomial β tester with its certificate:
// when Acyclic, Order is a nest-point elimination order covering every node
// that appears in some edge (eliminating in that order empties the
// hypergraph); when not, Core is a non-empty set of nodes whose induced
// sub-hypergraph has no nest point — a locally-checkable obstruction, since
// β-acyclicity is hereditary under node deletion and every non-empty
// β-acyclic hypergraph has a nest point.
type BetaResult struct {
	Acyclic bool
	Order   []int32
	Core    []int32
}

// Beta decides β-acyclicity by greedy nest-point elimination
// (Brault-Baron). A node is a nest point when its incident live edges form a
// chain under ⊆; elimination is confluent, so running any maximal sequence
// decides the class. The worklist re-examines only nodes that shared an edge
// with an eliminated node — removal elsewhere cannot create a new chain among
// untouched incident-edge families.
func Beta(ctx context.Context, h *hypergraph.Hypergraph) (*BetaResult, error) {
	return runBeta(ctx, h.Incidence())
}

// runBeta is Beta over an incidence index already built.
func runBeta(ctx context.Context, x hypergraph.Incidence) (*BetaResult, error) {
	w, err := load(ctx, x)
	if err != nil {
		return nil, err
	}
	n := len(w.deadV)
	st := &betaState{view: w, edgeLen: make([]int, len(w.members)), inQueue: make([]bool, n), queue: make([]int32, 0, n)}
	for e, mem := range w.members {
		st.edgeLen[e] = len(mem)
	}
	for v, dead := range w.deadV {
		if !dead {
			st.queue = append(st.queue, int32(v))
			st.inQueue[v] = true
		}
	}
	return st.run()
}

// betaState is the elimination's worklist over the view: the live member
// count of each edge and the queue of nodes pending a nest-point check.
type betaState struct {
	*view
	edgeLen []int
	inQueue []bool
	queue   []int32 // node ids pending a nest-point check
}

func (st *betaState) run() (*BetaResult, error) {
	order := make([]int32, 0, len(st.queue))
	for len(st.queue) > 0 {
		v := st.queue[0]
		st.queue = st.queue[1:]
		st.inQueue[v] = false
		if st.deadV[v] {
			continue
		}
		nest, err := st.isNestPoint(v)
		if err != nil {
			return nil, err
		}
		if !nest {
			continue
		}
		if err := st.eliminate(v); err != nil {
			return nil, err
		}
		order = append(order, v)
	}
	if core := st.liveIDs(); core != nil {
		return &BetaResult{Core: core}, nil
	}
	return &BetaResult{Acyclic: true, Order: order}, nil
}

// isNestPoint reports whether v's live incident edges form a ⊆-chain.
// Sorting them by live length makes chain-ness equivalent to each edge
// containing its predecessor, so the check is a sequence of sorted-merge
// subset tests. The sort reorders v's stored incidence list, which later
// reads walk in that order.
func (st *betaState) isNestPoint(v int32) (bool, error) {
	live := st.liveEdges(v)
	if len(live) <= 1 {
		return true, nil
	}
	slices.SortFunc(live, func(a, b int32) int { return cmp.Compare(st.edgeLen[a], st.edgeLen[b]) })
	for i := 0; i+1 < len(live); i++ {
		ok, err := st.subset(live[i], live[i+1])
		if err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

// subset reports whether edge a's live members are all live members of edge
// b, by merging the two ascending live lists.
func (st *betaState) subset(a, b int32) (bool, error) {
	am, bm := st.liveNodes(a), st.liveNodes(b)
	if err := st.t.tick(len(am) + len(bm)); err != nil {
		return false, err
	}
	j := 0
	for _, x := range am {
		for j < len(bm) && bm[j] < x {
			j++
		}
		if j == len(bm) || bm[j] != x {
			return false, nil
		}
		j++
	}
	return true, nil
}

// eliminate removes node v, killing edges that empty out and re-enqueueing
// every node that shared an edge with v — the only nodes whose incident
// families changed.
func (st *betaState) eliminate(v int32) error {
	st.deadV[v] = true
	for _, e := range st.liveEdges(v) {
		st.edgeLen[e]--
		if st.edgeLen[e] == 0 {
			st.deadE[e] = true
		}
		for _, u := range st.members[e] {
			if !st.deadV[u] && !st.inQueue[u] {
				st.inQueue[u] = true
				st.queue = append(st.queue, u)
			}
		}
		if err := st.t.tick(len(st.members[e])); err != nil {
			return err
		}
	}
	return nil
}
