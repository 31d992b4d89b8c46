package repro

import "repro/internal/analysis"

type (
	// Analysis is a concurrency-safe session over one hypergraph that
	// lazily computes and caches every derived artifact — Verdict, MCS,
	// JoinTree, Spectrum, GrahamTrace, FullReducer — each exactly once, no
	// matter how many facets are queried or from how many goroutines. See
	// internal/analysis for the facet documentation; the Theorem 6.1
	// witness is the free function IndependentPathWitness.
	Analysis = analysis.Analysis
	// AnalyzeOption configures an Analysis session (see WithVerify).
	AnalyzeOption = analysis.Option
	// AnalysisStats counts how often each underlying traversal ran on a
	// handle — at most once each, by construction (Analysis.Stats).
	AnalysisStats = analysis.Stats
)

// Analyze opens an analysis session over h: the session-oriented entry
// point of the library. The handle is cheap until a facet is queried;
// facets share work (the join tree reuses the MCS order the verdict
// computed) and every traversal runs at most once per handle:
//
//	a := repro.Analyze(h)
//	if a.Verdict() {                  // one MCS traversal...
//		jt, _ := a.JoinTree()     // ...reused here,
//		prog, _ := a.FullReducer() // ...and here
//	}
//
// For memoized sessions shared across content-equal hypergraphs — the warm
// path under repeat traffic — use Engine.Analyze instead.
func Analyze(h *Hypergraph, opts ...AnalyzeOption) *Analysis {
	return analysis.New(h, opts...)
}

// WithVerify makes the session's JoinTree facet cross-check the
// running-intersection invariant once when the tree is first built.
func WithVerify() AnalyzeOption { return analysis.WithVerify() }
