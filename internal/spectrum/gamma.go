package spectrum

import (
	"context"
	"slices"

	"repro/internal/hypergraph"
)

// StepKind names one rule of the γ reduction.
type StepKind uint8

const (
	// StepLeafNode deletes a node contained in at most one live edge.
	StepLeafNode StepKind = iota
	// StepTwinNode deletes a node whose live edge set equals another live
	// node's (a false twin).
	StepTwinNode
	// StepLeafEdge deletes an edge containing at most one live node.
	StepLeafEdge
	// StepTwinEdge deletes an edge whose live node set equals another live
	// edge's.
	StepTwinEdge
)

// String renders the rule name.
func (k StepKind) String() string {
	switch k {
	case StepLeafNode:
		return "leaf-node"
	case StepTwinNode:
		return "twin-node"
	case StepLeafEdge:
		return "leaf-edge"
	case StepTwinEdge:
		return "twin-edge"
	default:
		return "unknown"
	}
}

// Step is one application of a reduction rule. ID is the deleted node id or
// edge index; for twin rules Twin is the surviving witness with the
// identical live incidence (node id or edge index respectively).
type Step struct {
	Kind StepKind
	ID   int32
	Twin int32
}

// GammaResult is the verdict of the polynomial γ tester with its
// certificate: when Acyclic, Steps is a reduction sequence that deletes
// every covered node and every edge; when not, CoreNodes/CoreEdges is the
// non-empty irreducible residual — no rule applies to it, which refutes
// γ-acyclicity because the class is hereditary under node and edge deletion
// and every non-empty γ-acyclic hypergraph admits a step.
type GammaResult struct {
	Acyclic   bool
	Steps     []Step
	CoreNodes []int32
	CoreEdges []int32
}

// Gamma decides γ-acyclicity by the D'Atri–Moscarini reduction: repeatedly
// delete leaf nodes, false-twin nodes, leaf edges, and false-twin edges
// until nothing applies; the hypergraph is γ-acyclic iff the residual is
// empty. Twin detection hashes live incidence lists into signature buckets
// and verifies candidates by exact comparison, so collisions cost compares
// but never a missed twin; the dirty worklist re-examines an item only when
// its live incidence changed.
func Gamma(ctx context.Context, h *hypergraph.Hypergraph) (*GammaResult, error) {
	return runGamma(ctx, h.Incidence())
}

// runGamma is Gamma over an incidence index already built.
func runGamma(ctx context.Context, x hypergraph.Incidence) (*GammaResult, error) {
	w, err := load(ctx, x)
	if err != nil {
		return nil, err
	}
	n, m := len(w.deadV), len(w.members)
	st := &gammaState{
		view:     w,
		inQueue:  [][]bool{make([]bool, n), make([]bool, m)},
		queue:    make([]gItem, 0, n+m),
		vBuckets: make(map[uint64][]int32, n),
		eBuckets: make(map[uint64][]int32, m),
	}
	for v, dead := range w.deadV {
		if !dead {
			st.enqueue(gItem{0, int32(v)})
		}
	}
	for e := 0; e < m; e++ {
		st.enqueue(gItem{1, int32(e)})
	}
	return st.run()
}

// item addresses a node (kind 0) or an edge (kind 1) in the worklist.
type gItem struct {
	kind uint8
	id   int32
}

// gammaState is the reduction's worklist over the view: the dirty queue,
// the twin signature buckets, and the steps taken so far.
type gammaState struct {
	*view
	inQueue [][]bool // [kind][id]
	queue   []gItem
	// Signature buckets: FNV-64 over the live incidence list -> candidate
	// ids. Entries go stale when items die or their incidence changes;
	// verification filters them out.
	vBuckets map[uint64][]int32
	eBuckets map[uint64][]int32
	steps    []Step
}

func (st *gammaState) enqueue(it gItem) {
	if !st.inQueue[it.kind][it.id] {
		st.inQueue[it.kind][it.id] = true
		st.queue = append(st.queue, it)
	}
}

func (st *gammaState) run() (*GammaResult, error) {
	for len(st.queue) > 0 {
		it := st.queue[0]
		st.queue = st.queue[1:]
		st.inQueue[it.kind][it.id] = false
		var err error
		if it.kind == 0 {
			err = st.tryNode(it.id)
		} else {
			err = st.tryEdge(it.id)
		}
		if err != nil {
			return nil, err
		}
	}
	res := &GammaResult{CoreNodes: st.liveIDs()}
	for e, dead := range st.deadE {
		if !dead {
			res.CoreEdges = append(res.CoreEdges, int32(e))
		}
	}
	if res.CoreNodes == nil && res.CoreEdges == nil {
		res.Acyclic, res.Steps = true, st.steps
	}
	return res, nil
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvMix(h uint64, x int32) uint64 {
	h ^= uint64(uint32(x))
	return h * fnvPrime
}

// tryNode applies the first node rule that fits v: leaf (≤1 live edge) or
// false twin (identical live edge list as a surviving bucket candidate).
func (st *gammaState) tryNode(v int32) error {
	if st.deadV[v] {
		return nil
	}
	live := st.liveEdges(v)
	if err := st.t.tick(len(live) + 1); err != nil {
		return err
	}
	if len(live) <= 1 {
		return st.deleteNode(v, Step{Kind: StepLeafNode, ID: v})
	}
	sig := uint64(fnvOffset)
	for _, e := range live {
		sig = fnvMix(sig, e)
	}
	for _, u := range st.vBuckets[sig] {
		if u == v || st.deadV[u] {
			continue
		}
		same, err := st.sameList(st.liveEdges(u), live)
		if err != nil {
			return err
		}
		if same {
			return st.deleteNode(v, Step{Kind: StepTwinNode, ID: v, Twin: u})
		}
	}
	// Not reducible now; park v under its current signature so a future
	// twin (processed later with the same incidence) finds it.
	st.vBuckets[sig] = append(st.vBuckets[sig], v)
	return nil
}

// tryEdge applies the first edge rule that fits e: leaf (≤1 live node) or
// false twin (identical live node list as a surviving bucket candidate).
func (st *gammaState) tryEdge(e int32) error {
	if st.deadE[e] {
		return nil
	}
	live := st.liveNodes(e)
	if err := st.t.tick(len(live) + 1); err != nil {
		return err
	}
	if len(live) <= 1 {
		return st.deleteEdge(e, Step{Kind: StepLeafEdge, ID: e})
	}
	sig := uint64(fnvOffset)
	for _, v := range live {
		sig = fnvMix(sig, v)
	}
	for _, f := range st.eBuckets[sig] {
		if f == e || st.deadE[f] {
			continue
		}
		same, err := st.sameList(st.liveNodes(f), live)
		if err != nil {
			return err
		}
		if same {
			return st.deleteEdge(e, Step{Kind: StepTwinEdge, ID: e, Twin: f})
		}
	}
	st.eBuckets[sig] = append(st.eBuckets[sig], e)
	return nil
}

func (st *gammaState) sameList(a, b []int32) (bool, error) {
	if err := st.t.tick(len(a)); err != nil {
		return false, err
	}
	return slices.Equal(a, b), nil
}

// deleteNode kills v and dirties the edges it lived in (their member lists
// changed) plus, transitively via the queue, anything those edges affect.
func (st *gammaState) deleteNode(v int32, step Step) error {
	st.deadV[v] = true
	st.steps = append(st.steps, step)
	for _, e := range st.liveEdges(v) {
		st.enqueue(gItem{1, e})
		// The edge's surviving members may now be twins/leaves of each
		// other, so they go dirty too.
		live := st.liveNodes(e)
		for _, u := range live {
			st.enqueue(gItem{0, u})
		}
		if err := st.t.tick(len(live)); err != nil {
			return err
		}
	}
	return nil
}

// deleteEdge kills e and dirties its members (their incidence lists
// changed) plus the other edges those members belong to.
func (st *gammaState) deleteEdge(e int32, step Step) error {
	st.deadE[e] = true
	st.steps = append(st.steps, step)
	for _, v := range st.liveNodes(e) {
		st.enqueue(gItem{0, v})
		live := st.liveEdges(v)
		for _, f := range live {
			st.enqueue(gItem{1, f})
		}
		if err := st.t.tick(len(live)); err != nil {
			return err
		}
	}
	return nil
}
