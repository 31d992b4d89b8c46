package hypergraph

// Incidence is the node–edge incidence structure of a hypergraph in CSR
// layout, over universe ids: each edge's members and each node's incident
// edges are one flat slice plus offsets, both ascending. It is the one
// node→edge index of the repository — MCS, the spectrum testers and Reduce
// read it, while GYO and the spectrum's certificate checkers stay
// independent of it. The edge half is the hypergraph's own storage. An
// Incidence is an immutable value, like the hypergraph: copies share the
// layout, and the slices its accessors return are shared and must not be
// mutated.
type Incidence struct {
	memberOff []int32 // edge e's members are members[memberOff[e]:memberOff[e+1]]
	members   []int32
	edgeOff   []int32 // node v's edges are edges[edgeOff[v]:edgeOff[v+1]]
	edges     []int32
}

// Incidence builds h's incidence index in O(universe + total edge size):
// the edge half is h's member list and offsets, adopted as they are, and
// the node half is counted, prefix-summed, and filled by one backward pass
// that leaves each node's edges in ascending order. It is built on each
// call and not kept on h, so a memoized hypergraph pins no node half.
func (h *Hypergraph) Incidence() Incidence {
	m, n := h.NumEdges(), h.n
	x := Incidence{memberOff: h.memberOff, members: h.members, edgeOff: make([]int32, n+1)}
	total := len(x.members)
	for _, v := range x.members {
		x.edgeOff[v]++
	}
	// edgeOff[v] becomes the end of v's list; the backward fill walks each
	// end down to the list's start.
	for v := 1; v < n; v++ {
		x.edgeOff[v] += x.edgeOff[v-1]
	}
	x.edgeOff[n] = int32(total)
	x.edges = make([]int32, total)
	for e := m - 1; e >= 0; e-- {
		for _, v := range x.Members(e) {
			x.edgeOff[v]--
			x.edges[x.edgeOff[v]] = int32(e)
		}
	}
	return x
}

// NumEdges returns the number of edges.
func (x Incidence) NumEdges() int { return len(x.memberOff) - 1 }

// Universe returns the size of the id universe the node lists cover.
func (x Incidence) Universe() int { return len(x.edgeOff) - 1 }

// Size returns the total edge size Σ|e|, the length of both flat slices.
func (x Incidence) Size() int { return len(x.members) }

// Members returns edge e's node ids in ascending order.
func (x Incidence) Members(e int) []int32 {
	return x.members[x.memberOff[e]:x.memberOff[e+1]:x.memberOff[e+1]]
}

// Edges returns the indices of the edges containing node id v, ascending;
// empty for a node no edge covers.
func (x Incidence) Edges(v int) []int32 {
	return x.edges[x.edgeOff[v]:x.edgeOff[v+1]:x.edgeOff[v+1]]
}
