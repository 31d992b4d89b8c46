package exec

import (
	"context"
	"slices"

	"repro/internal/bitset"
	"repro/internal/jointree"
)

// JoinScratch is the scratch of the dense kernels Reduce and Eval run,
// exposed to the kernel differentials.
type JoinScratch = evalScratch

// HeadsClean reports whether every value-id head of sc reads -1, as it
// must between kernels.
func HeadsClean(sc *JoinScratch) bool {
	return !slices.ContainsFunc(sc.head, func(h int32) bool { return h != -1 })
}

// CancelAfter returns a context whose Err answers nil n times, then
// context.Canceled: one cancelled partway through a kernel.
func CancelAfter(n int) context.Context {
	return &countdownCtx{Context: context.Background(), n: n}
}

// SemijoinDense is r ⋉ s with the dense kernel enabled, as Reduce runs it
// when the dictionary fits: a pair sharing exactly one column takes it,
// any other pair the hash kernel.
func SemijoinDense(ctx context.Context, r, s *Table, sc *JoinScratch) (*Table, error) {
	out, _, err := semijoin(ctx, r, s, sc)
	return out, err
}

// JoinProject is the fused join-and-project kernel on the hash probe and
// row set: π_keep(r ⋈ s) and |r ⋈ s|.
func JoinProject(ctx context.Context, r, s *Table, keep []string) (*Table, int, error) {
	out, matches, _, err := joinProject(ctx, r, s, keep, nil)
	return out, matches, err
}

// dedupNames names the dedup kernels for the differentials.
var dedupNames = [...]string{dedupNone: "", dedupSet: "set", dedupBitmap: "bitmap"}

// JoinProjectDense is JoinProject with the dense kernels enabled, as Eval
// runs it when the dictionary fits. It also reports whether the probe went
// through value-id chain heads, and the dedup kernel: "bitmap", "set", or
// "" when every attribute is kept.
func JoinProjectDense(ctx context.Context, r, s *Table, keep []string, js *JoinScratch) (out *Table, matches int, denseProbe bool, dedup string, err error) {
	out, matches, k, err := joinProject(ctx, r, s, keep, js)
	return out, matches, k.dense, dedupNames[k.dedup], err
}

// ProjectDense is Project with the dense kernels enabled, as Eval runs it
// when the dictionary fits, and the dedup kernel it ran: "bitmap", "set",
// or "" when every attribute is kept and t itself is returned.
func ProjectDense(ctx context.Context, t *Table, attrs []string, sc *JoinScratch) (*Table, string, error) {
	out, k, err := project(ctx, t, attrs, sc)
	return out, dedupNames[k.dedup], err
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
