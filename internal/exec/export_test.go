package exec

import (
	"context"

	"repro/internal/bitset"
	"repro/internal/jointree"
)

// Stamps is the dense semijoin's scratch, exposed to the kernel
// differential.
type Stamps = stamps

// StampsAt returns scratch whose next epoch is epoch+1, so tests can drive
// the wraparound clear.
func StampsAt(epoch uint32) *Stamps { return &stamps{epoch: epoch} }

// SemijoinDense is r ⋉ s with the dense stamp filter enabled: a pair
// sharing exactly one column takes it, any other pair the kernel Reduce
// would pick.
func SemijoinDense(ctx context.Context, r, s *Table, st *Stamps) (*Table, error) {
	out, _, err := semijoin(ctx, r, s, st)
	return out, err
}

// JoinProject is the fused join-and-project kernel on the hash probe and
// row set: π_keep(r ⋈ s) and |r ⋈ s|.
func JoinProject(ctx context.Context, r, s *Table, keep []string) (*Table, int, error) {
	out, matches, _, err := joinProject(ctx, r, s, keep, nil)
	return out, matches, err
}

// JoinScratch is the dense join kernels' scratch, exposed to the kernel
// differential.
type JoinScratch = joinScratch

// JoinProjectDense is JoinProject with the dense kernels enabled, as Eval
// runs it when the dictionary fits. It also reports whether the probe went
// through value-id chain heads, and the dedup kernel: "bitmap", "set", or
// "" when every attribute is kept.
func JoinProjectDense(ctx context.Context, r, s *Table, keep []string, js *JoinScratch) (out *Table, matches int, denseProbe bool, dedup string, err error) {
	out, matches, k, err := joinProject(ctx, r, s, keep, js)
	return out, matches, k.dense, [...]string{dedupNone: "", dedupSet: "set", dedupBitmap: "bitmap"}[k.dedup], err
}

// DenseFits reports whether Reduce may pick the dense kernel for d.
var DenseFits = denseFits

// JoinedNodes returns the node ids of tree.H covered by the tables Eval's
// join phase builds for a query on x: the union of the kept objects'
// projections, which bounds every accumulator built above them.
func JoinedNodes(tree *jointree.JoinTree, x bitset.Set) bitset.Set {
	c := planConnection(tree, x)
	out := bitset.New(tree.H.Universe())
	for _, v := range c.nodes {
		for _, a := range c.need(tree.H.EdgeNodes(v), v, c.children[v]) {
			id, _ := tree.H.NodeID(a)
			out.Add(id)
		}
	}
	return out
}
