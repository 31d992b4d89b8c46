package spectrum

import (
	"fmt"

	"repro/internal/hypergraph"
)

// The checkers below validate certificates independently of the testers:
// they rebuild their own view of the hypergraph, replay accepting runs step
// by step against the rule preconditions, and confirm rejecting cores rule
// by rule straight from the definitions. They share no state or search
// logic with beta.go/gamma.go, so an agreeing pair is two separate
// derivations of the same verdict.

// checkView is a naive mutable copy of the hypergraph used for replay:
// edge member sets and node incidence sets as maps, no worklists, no
// signatures.
type checkView struct {
	members  []map[int32]bool // edge index -> live original node ids
	incident map[int32]map[int32]bool
}

func newCheckView(h *hypergraph.Hypergraph) *checkView {
	cv := &checkView{
		members:  make([]map[int32]bool, h.NumEdges()),
		incident: make(map[int32]map[int32]bool),
	}
	for e := 0; e < h.NumEdges(); e++ {
		set := make(map[int32]bool)
		for _, id := range h.Members(e) {
			set[id] = true
			if cv.incident[id] == nil {
				cv.incident[id] = make(map[int32]bool)
			}
			cv.incident[id][int32(e)] = true
		}
		cv.members[e] = set
	}
	return cv
}

func (cv *checkView) removeNode(v int32) {
	for e := range cv.incident[v] {
		delete(cv.members[e], v)
	}
	delete(cv.incident, v)
}

func (cv *checkView) removeEdge(e int32) {
	for v := range cv.members[e] {
		delete(cv.incident[v], e)
	}
	cv.members[e] = nil
}

func sameSet(a, b map[int32]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for x := range a {
		if !b[x] {
			return false
		}
	}
	return true
}

// VerifyBeta validates a β certificate against h. For an accepting result it
// replays the elimination order, requiring each node to be a nest point
// (live incident edges pairwise ⊆-comparable) at its turn and the residual
// to be empty afterwards. For a rejecting result it requires the core to be
// non-empty and checks that the node-induced sub-hypergraph on the core has
// no nest point at all.
func VerifyBeta(h *hypergraph.Hypergraph, r *BetaResult) error {
	if r == nil {
		return fmt.Errorf("spectrum: nil beta result")
	}
	if r.Acyclic {
		cv := newCheckView(h)
		seen := make(map[int32]bool, len(r.Order))
		for i, v := range r.Order {
			if seen[v] {
				return fmt.Errorf("spectrum: beta order repeats node %d", v)
			}
			seen[v] = true
			if cv.incident[v] == nil {
				return fmt.Errorf("spectrum: beta order step %d names unknown or uncovered node %d", i, v)
			}
			if !chainIncident(cv, v) {
				return fmt.Errorf("spectrum: beta order step %d: node %d is not a nest point", i, v)
			}
			cv.removeNode(v)
		}
		for v, inc := range cv.incident {
			if len(inc) > 0 {
				return fmt.Errorf("spectrum: beta order leaves node %d live", v)
			}
		}
		return nil
	}
	if len(r.Core) == 0 {
		return fmt.Errorf("spectrum: rejecting beta result with empty core")
	}
	// Induce on the core: drop every node outside it, then demand that no
	// core node is a nest point of the residual.
	cv := newCheckView(h)
	inCore := make(map[int32]bool, len(r.Core))
	for _, v := range r.Core {
		if cv.incident[v] == nil {
			return fmt.Errorf("spectrum: beta core names unknown or uncovered node %d", v)
		}
		inCore[v] = true
	}
	for v := range cv.incident {
		if !inCore[v] {
			cv.removeNode(v)
		}
	}
	for _, v := range r.Core {
		if chainIncident(cv, v) {
			return fmt.Errorf("spectrum: beta core node %d is still a nest point", v)
		}
	}
	return nil
}

// chainIncident reports whether v's live incident edges are pairwise
// ⊆-comparable — the nest-point condition, checked quadratically from the
// definition.
func chainIncident(cv *checkView, v int32) bool {
	edges := make([]map[int32]bool, 0, len(cv.incident[v]))
	for e := range cv.incident[v] {
		if len(cv.members[e]) > 0 {
			edges = append(edges, cv.members[e])
		}
	}
	for i := range edges {
		for j := i + 1; j < len(edges); j++ {
			if !subsetOf(edges[i], edges[j]) && !subsetOf(edges[j], edges[i]) {
				return false
			}
		}
	}
	return true
}

func subsetOf(a, b map[int32]bool) bool {
	for x := range a {
		if !b[x] {
			return false
		}
	}
	return true
}

// VerifyGamma validates a γ certificate against h. For an accepting result
// it replays the step sequence, checking each rule's precondition against
// the live residual (leaf node in ≤1 live edge; twin node sharing its exact
// live edge set with the named witness; leaf edge with ≤1 live node; twin
// edge sharing its exact live node set), then requires the residual to be
// empty. For a rejecting result it requires a non-empty core and checks
// irreducibility: restricted to the core, no node and no edge satisfies any
// rule.
func VerifyGamma(h *hypergraph.Hypergraph, r *GammaResult) error {
	if r == nil {
		return fmt.Errorf("spectrum: nil gamma result")
	}
	if r.Acyclic {
		return verifyGammaSteps(h, r.Steps)
	}
	return verifyGammaCore(h, r)
}

func verifyGammaSteps(h *hypergraph.Hypergraph, steps []Step) error {
	cv := newCheckView(h)
	deadE := make([]bool, h.NumEdges())
	for i, s := range steps {
		switch s.Kind {
		case StepLeafNode:
			inc := cv.incident[s.ID]
			if inc == nil {
				return fmt.Errorf("spectrum: gamma step %d deletes dead node %d", i, s.ID)
			}
			if len(inc) > 1 {
				return fmt.Errorf("spectrum: gamma step %d: node %d is in %d live edges, not a leaf", i, s.ID, len(inc))
			}
			cv.removeNode(s.ID)
		case StepTwinNode:
			inc, winc := cv.incident[s.ID], cv.incident[s.Twin]
			if inc == nil || winc == nil {
				return fmt.Errorf("spectrum: gamma step %d: twin-node pair (%d,%d) not both live", i, s.ID, s.Twin)
			}
			if s.ID == s.Twin || !sameSet(inc, winc) {
				return fmt.Errorf("spectrum: gamma step %d: nodes %d and %d are not false twins", i, s.ID, s.Twin)
			}
			cv.removeNode(s.ID)
		case StepLeafEdge:
			if int(s.ID) < 0 || int(s.ID) >= len(deadE) || deadE[s.ID] {
				return fmt.Errorf("spectrum: gamma step %d deletes dead edge %d", i, s.ID)
			}
			if len(cv.members[s.ID]) > 1 {
				return fmt.Errorf("spectrum: gamma step %d: edge %d has %d live nodes, not a leaf", i, s.ID, len(cv.members[s.ID]))
			}
			deadE[s.ID] = true
			cv.removeEdge(s.ID)
		case StepTwinEdge:
			if int(s.ID) < 0 || int(s.ID) >= len(deadE) || deadE[s.ID] ||
				int(s.Twin) < 0 || int(s.Twin) >= len(deadE) || deadE[s.Twin] {
				return fmt.Errorf("spectrum: gamma step %d: twin-edge pair (%d,%d) not both live", i, s.ID, s.Twin)
			}
			if s.ID == s.Twin || !sameSet(cv.members[s.ID], cv.members[s.Twin]) {
				return fmt.Errorf("spectrum: gamma step %d: edges %d and %d are not false twins", i, s.ID, s.Twin)
			}
			deadE[s.ID] = true
			cv.removeEdge(s.ID)
		default:
			return fmt.Errorf("spectrum: gamma step %d has unknown kind %d", i, s.Kind)
		}
	}
	for v, inc := range cv.incident {
		if inc != nil {
			return fmt.Errorf("spectrum: gamma steps leave node %d live", v)
		}
	}
	for e, dead := range deadE {
		if !dead {
			return fmt.Errorf("spectrum: gamma steps leave edge %d live", e)
		}
	}
	return nil
}

func verifyGammaCore(h *hypergraph.Hypergraph, r *GammaResult) error {
	if len(r.CoreNodes) == 0 && len(r.CoreEdges) == 0 {
		return fmt.Errorf("spectrum: rejecting gamma result with empty core")
	}
	cv := newCheckView(h)
	inCore := make(map[int32]bool, len(r.CoreNodes))
	for _, v := range r.CoreNodes {
		if cv.incident[v] == nil {
			return fmt.Errorf("spectrum: gamma core names unknown or uncovered node %d", v)
		}
		inCore[v] = true
	}
	coreEdge := make([]bool, h.NumEdges())
	for _, e := range r.CoreEdges {
		if int(e) < 0 || int(e) >= len(coreEdge) {
			return fmt.Errorf("spectrum: gamma core names unknown edge %d", e)
		}
		coreEdge[e] = true
	}
	// Restrict to the core.
	for v := range cv.incident {
		if !inCore[v] {
			cv.removeNode(v)
		}
	}
	for e := range cv.members {
		if !coreEdge[e] {
			cv.removeEdge(int32(e))
		}
	}
	// Irreducibility: no rule applies.
	nodes := make([]int32, 0, len(inCore))
	for v := range inCore {
		nodes = append(nodes, v)
	}
	for i, v := range nodes {
		if len(cv.incident[v]) <= 1 {
			return fmt.Errorf("spectrum: gamma core node %d is a leaf", v)
		}
		for _, u := range nodes[i+1:] {
			if sameSet(cv.incident[v], cv.incident[u]) {
				return fmt.Errorf("spectrum: gamma core nodes %d and %d are false twins", v, u)
			}
		}
	}
	for i, e := range r.CoreEdges {
		if len(cv.members[e]) <= 1 {
			return fmt.Errorf("spectrum: gamma core edge %d is a leaf", e)
		}
		for _, f := range r.CoreEdges[i+1:] {
			if sameSet(cv.members[e], cv.members[f]) {
				return fmt.Errorf("spectrum: gamma core edges %d and %d are false twins", e, f)
			}
		}
	}
	return nil
}
