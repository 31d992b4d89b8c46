// Package spectrum decides the full acyclicity spectrum of a hypergraph in
// polynomial time, with locally-checkable certificates.
//
// The repo's core (internal/mcs) decides α-acyclicity — the paper's notion —
// in linear time. Fagin's hierarchy refines it:
//
//	Berge-acyclic ⊂ γ-acyclic ⊂ β-acyclic ⊂ α-acyclic
//
// internal/acyclic keeps the literal, exponential definition-based testers
// for β and γ as executable specifications; this package provides the
// polynomial deciders that replace them everywhere a verdict is served:
//
//   - β-acyclicity via nest-point elimination (Brault-Baron, "Hypergraph
//     Acyclicity Revisited"): a node is a nest point when its incident edges
//     form a chain under ⊆; a hypergraph is β-acyclic iff repeatedly deleting
//     nest points empties it. Elimination is confluent, so one greedy maximal
//     run decides the class. The accepting certificate is the elimination
//     order; the rejecting certificate is the nest-free core — the non-empty
//     residual in which no node is a nest point (β-acyclicity is hereditary
//     under node deletion, and every non-empty β-acyclic hypergraph has a
//     nest point, so a nest-free core is a concrete obstruction).
//
//   - γ-acyclicity via the D'Atri–Moscarini reduction (the Bachman-diagram
//     characterization Fagin proved equivalent, in the incremental form
//     Leitert's generator inverts): repeatedly delete a leaf node (in at most
//     one live edge), a false-twin node (same live edges as another node), a
//     leaf edge (at most one live node), or a false-twin edge (same live
//     nodes as another edge); the hypergraph is γ-acyclic iff everything can
//     be deleted. The accepting certificate is the step sequence; the
//     rejecting certificate is the irreducible core (γ-acyclicity is
//     hereditary under node and edge deletion, and every non-empty γ-acyclic
//     hypergraph admits a reduction step).
//
//   - Berge-acyclicity via a union-find pass over the node–edge incidence
//     graph (Berge-acyclic iff the incidence graph is a forest).
//
// The three testers read a hypergraph one way, through its incidence index
// (hypergraph.Incidence: ascending member and incidence lists over universe
// ids), which ClassifyWithAlpha builds once. β and γ each copy only the
// mutable parts into their view (the lists they compact, and dead marks
// under which uncovered ids start dead) and keep their worklist on top;
// Berge's union-find reads the index's member lists and copies nothing.
// Loading and every tester observe ctx every ~4096 work units, so server
// deadlines reach mid-traversal — the property that lets the serving layer
// classify 10⁴-edge schemas under its default deadline instead of refusing
// them.
//
// Certificates are validated by independent checkers (VerifyBeta,
// VerifyGamma) that share no state or search logic with the testers: they
// replay accepting runs step by step against the rule preconditions, and
// confirm rejecting cores rule by rule from the definitions. The
// differential suite additionally pins every verdict to the exponential
// specifications of internal/acyclic on the exhaustive small corpus and the
// generator corpus (including gen.GammaAcyclic instances).
package spectrum

import (
	"context"

	"repro/internal/hypergraph"
	"repro/internal/mcs"
)

// Degree is a rung of the acyclicity hierarchy. Higher degrees are strictly
// stronger: DegreeGamma implies β- and α-acyclicity, and so on.
type Degree int

const (
	// DegreeCyclic marks hypergraphs that are not even α-acyclic.
	DegreeCyclic Degree = iota
	// DegreeAlpha is α-acyclic (GYO-reducible) but not β-acyclic.
	DegreeAlpha
	// DegreeBeta is β-acyclic (every edge subfamily α-acyclic) but not
	// γ-acyclic.
	DegreeBeta
	// DegreeGamma is γ-acyclic (no Fagin γ-cycle) but not Berge-acyclic.
	DegreeGamma
	// DegreeBerge is Berge-acyclic: the node–edge incidence graph is a
	// forest.
	DegreeBerge
)

// String renders the degree as its class name.
func (d Degree) String() string {
	switch d {
	case DegreeAlpha:
		return "alpha-acyclic"
	case DegreeBeta:
		return "beta-acyclic"
	case DegreeGamma:
		return "gamma-acyclic"
	case DegreeBerge:
		return "berge-acyclic"
	default:
		return "cyclic"
	}
}

// Result is a full spectrum classification: the per-class verdicts with
// their certificates, and the overall degree — the longest true prefix of
// α ⊇ β ⊇ γ ⊇ Berge (the testers are independent, so the degree is defined
// conservatively rather than trusting any single one).
type Result struct {
	Alpha  bool
	Beta   *BetaResult
	Gamma  *GammaResult
	Berge  bool
	Degree Degree
}

// String renders the four verdicts, e.g. "α✓ β✓ γ✗ Berge✗" — the same
// text as the exponential testers' acyclic.Classification.
func (r *Result) String() string {
	mark := func(b bool) string {
		if b {
			return "✓"
		}
		return "✗"
	}
	return "α" + mark(r.Alpha) + " β" + mark(r.Beta.Acyclic) + " γ" + mark(r.Gamma.Acyclic) + " Berge" + mark(r.Berge)
}

// cancelStride is how many work units a tester performs between context
// checks — the repo-wide convention (mcs, gyo, exec kernels), coarse enough
// to stay out of profiles, fine enough to bound cancellation latency.
const cancelStride = 4096

// ticker counts work units and polls ctx once per cancelStride.
type ticker struct {
	ctx  context.Context
	work int
}

// tick charges n work units and reports ctx.Err() when a stride boundary
// was crossed.
func (t *ticker) tick(n int) error {
	before := t.work
	t.work += n
	if t.work/cancelStride != before/cancelStride {
		return t.ctx.Err()
	}
	return nil
}

// Classify runs the full spectrum over h: α via the linear-time MCS, β and
// γ via the polynomial certificate-producing testers, Berge via the
// incidence union-find. All four observe ctx; a cancelled run returns
// ctx.Err() with no partial result.
func Classify(ctx context.Context, h *hypergraph.Hypergraph) (*Result, error) {
	r, err := mcs.RunCtx(ctx, h)
	if err != nil {
		return nil, err
	}
	return ClassifyWithAlpha(ctx, h, r.Acyclic)
}

// ClassifyWithAlpha is Classify for callers that already hold the α verdict
// (the session API shares its MCS run), so no second search runs. It builds
// h's incidence index once for the three testers.
func ClassifyWithAlpha(ctx context.Context, h *hypergraph.Hypergraph, alpha bool) (*Result, error) {
	x := h.Incidence()
	beta, err := runBeta(ctx, x)
	if err != nil {
		return nil, err
	}
	gamma, err := runGamma(ctx, x)
	if err != nil {
		return nil, err
	}
	berge, err := runBerge(ctx, x)
	if err != nil {
		return nil, err
	}
	res := &Result{Alpha: alpha, Beta: beta, Gamma: gamma, Berge: berge}
	switch {
	case alpha && beta.Acyclic && gamma.Acyclic && berge:
		res.Degree = DegreeBerge
	case alpha && beta.Acyclic && gamma.Acyclic:
		res.Degree = DegreeGamma
	case alpha && beta.Acyclic:
		res.Degree = DegreeBeta
	case alpha:
		res.Degree = DegreeAlpha
	default:
		res.Degree = DegreeCyclic
	}
	return res, nil
}
