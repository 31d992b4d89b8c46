package repro

import (
	"repro/internal/bitset"
	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/engine"
	"repro/internal/gyo"
	"repro/internal/hypergraph"
	"repro/internal/jointree"
	"repro/internal/mcs"
	"repro/internal/relation"
	"repro/internal/spectrum"
	"repro/internal/tableau"
)

// Re-exported core types. The aliases point at the implementation packages;
// methods documented there apply unchanged.
type (
	// Hypergraph is a finite hypergraph: nodes (attributes) and edges
	// (objects). See internal/hypergraph.
	Hypergraph = hypergraph.Hypergraph
	// NodeSet is a set of node ids of a particular Hypergraph.
	NodeSet = bitset.Set
	// GrahamResult is the outcome of a Graham (GYO) reduction, including the
	// step trace.
	GrahamResult = gyo.Result
	// Tableau is the tableau of a hypergraph with a sacred node set.
	Tableau = tableau.Tableau
	// Minimization is a reduced tableau: minimal rows plus the row mapping.
	Minimization = tableau.Minimization
	// Path is a connecting path (a candidate independent path).
	Path = core.Path
	// Tree is a connecting tree (a candidate independent tree).
	Tree = core.Tree
	// Ring is a Lemma 4.1 ring witness.
	Ring = core.Ring
	// JoinTree is a join tree/forest over a hypergraph's edges.
	JoinTree = jointree.JoinTree
	// SemijoinStep is one statement of a semijoin (full reducer) program.
	SemijoinStep = jointree.SemijoinStep
	// Relation is an in-memory relation with set semantics.
	Relation = relation.Relation
	// Database is a universal-relation database: hypergraph schema plus one
	// relation per object.
	Database = db.Database
	// JD is a join dependency given by a hypergraph, with instance-level
	// satisfaction checking (db layer).
	JD = db.JD
	// JoinDep is a join dependency for the chase engine (⋈[components]);
	// MVDs are its two-component special case.
	JoinDep = chase.JD
	// SpectrumResult is the full acyclicity-spectrum classification of a
	// hypergraph: per-class verdicts with locally-checkable certificates
	// (elimination orders and reduction sequences on accept, hereditary
	// cores on reject) plus the overall degree. See internal/spectrum;
	// obtained from Analysis.Spectrum.
	SpectrumResult = spectrum.Result
	// SpectrumDegree is a rung of the acyclicity hierarchy, from cyclic
	// through Berge-acyclic (spectrum.DegreeCyclic .. spectrum.DegreeBerge).
	SpectrumDegree = spectrum.Degree
	// MCSResult is the outcome of a maximum cardinality search: verdict,
	// selection orders, join-tree parents or reject certificate.
	MCSResult = mcs.Result
	// MCSCertificate is the rejection certificate of a cyclic MCS run.
	MCSCertificate = mcs.Certificate
	// Engine is the shared, memoizing query layer, safe for concurrent
	// use; Engine.Analyze is the memoized flavor of Analyze.
	Engine = engine.Engine
	// Builder unifies hypergraph construction — name edges, id edges over
	// a declared universe, and parsed text — behind one chainable
	// accumulator; NewHypergraph, NewHypergraphFromIDs, and ParseHypergraph
	// are thin wrappers over it.
	Builder = hypergraph.Builder
	// Fingerprint128 is the streaming 128-bit identity that keys the
	// engine memo, computed during construction.
	Fingerprint128 = hypergraph.Fingerprint128
)

// NewBuilder returns an empty hypergraph Builder:
//
//	h, err := repro.NewBuilder().
//		NamedEdge("R1", "A", "B", "C").
//		Edge("C", "D", "E").
//		Build()
func NewBuilder() *Builder { return hypergraph.NewBuilder() }

// NewHypergraph builds a hypergraph from edges given as node-name lists.
func NewHypergraph(edges [][]string) *Hypergraph { return hypergraph.New(edges) }

// NewHypergraphFromIDs builds a hypergraph directly over the node universe
// {0, ..., n-1} with edges given as id lists, skipping name interning — the
// constructor for large generated instances (a 10⁶-edge hypergraph builds
// in well under a second with storage proportional to total edge size).
// Node k is named "N<k>".
func NewHypergraphFromIDs(n int, edges [][]int32) *Hypergraph { return hypergraph.FromIDs(n, edges) }

// ParseHypergraph reads the "one edge per line" text format; see
// internal/hypergraph.Parse for the grammar. The second result holds
// optional edge names. Syntax errors are *ErrParse values carrying the
// 1-based line and column.
func ParseHypergraph(text string) (*Hypergraph, []string, error) { return hypergraph.Parse(text) }

// Fig1 returns the paper's Figure 1 hypergraph
// {A,B,C}, {C,D,E}, {A,E,F}, {A,C,E}.
func Fig1() *Hypergraph { return hypergraph.Fig1() }

// Fig5 returns a reconstruction of the paper's Figure 5: edges chosen to
// have exactly the properties the paper's text states for it.
func Fig5() *Hypergraph { return hypergraph.Fig5() }

// NewEngine returns an engine with per-hypergraph memoization keyed by the
// streaming 128-bit fingerprint: Engine.Analyze returns the memoized
// Analysis session shared by all content-equal queries. The engine runs no
// goroutines of its own; share one across goroutines for concurrency.
func NewEngine() *Engine { return engine.New() }

// GrahamReduction computes GR(h, X) for sacred nodes given by name and
// returns the surviving partial edges. Use GrahamReductionTrace for steps.
// Unknown sacred names report *ErrUnknownNode carrying the offending name.
func GrahamReduction(h *Hypergraph, sacred ...string) (*Hypergraph, error) {
	r, err := GrahamReductionTrace(h, sacred...)
	if err != nil {
		return nil, err
	}
	return r.Hypergraph, nil
}

// GrahamReductionTrace computes GR(h, X) and returns the full result with
// the reduction trace. Unknown sacred names report *ErrUnknownNode.
func GrahamReductionTrace(h *Hypergraph, sacred ...string) (*GrahamResult, error) {
	x, err := h.Set(sacred...)
	if err != nil {
		return nil, err
	}
	return gyo.Reduce(h, x), nil
}

// NewTableau builds the tableau of h with the named nodes distinguished.
func NewTableau(h *Hypergraph, sacred ...string) (*Tableau, error) {
	x, err := h.Set(sacred...)
	if err != nil {
		return nil, err
	}
	return tableau.New(h, x), nil
}

// TableauReduction computes TR(h, X): minimize the tableau and read back the
// partial edges.
func TableauReduction(h *Hypergraph, sacred ...string) (*Hypergraph, error) {
	x, err := h.Set(sacred...)
	if err != nil {
		return nil, err
	}
	return tableau.TR(h, x), nil
}

// CanonicalConnection returns CC_h(X) = TR(h, X) (§5): the natural set of
// partial edges connecting the named nodes.
func CanonicalConnection(h *Hypergraph, names ...string) (*Hypergraph, error) {
	return TableauReduction(h, names...)
}

// HasIndependentPath reports whether some pair of node sets of h admits an
// independent path; by Theorem 6.1 this is equivalent to h being cyclic.
func HasIndependentPath(h *Hypergraph) bool { return core.HasIndependentPath(h) }

// IndependentPathWitness constructs the Theorem 6.1 independent path of a
// cyclic h and returns it with the node-generated cyclic core it lives in;
// found is false iff h is acyclic. Shrinking h to the core runs one Graham
// reduction per node per pass, far more than the linear-time verdict, so
// the witness is not an Analysis facet; for a workspace epoch, pass
// WorkspaceAnalysis.Snapshot.
func IndependentPathWitness(h *Hypergraph) (path *Path, coreGraph *Hypergraph, found bool, err error) {
	return core.IndependentPathWitness(h)
}

// PathFromTree converts an independent tree into an independent path
// between two of its leaves (Lemma 5.2).
func PathFromTree(h *Hypergraph, t *Tree) (*Path, error) { return core.PathFromTree(h, t) }

// Blocks decomposes h by articulation sets into articulation-set-free
// pieces, the hypergraph generalization of graph blocks.
func Blocks(h *Hypergraph) []*Hypergraph { return core.Blocks(h) }

// MinimalConnectors enumerates the minimal edge subsets connecting the
// named nodes — the paper's closing footnote made executable (subsets of
// the canonical connection can connect the nodes; CC is the canonical one).
func MinimalConnectors(h *Hypergraph, names ...string) ([][]int, error) {
	x, err := h.Set(names...)
	if err != nil {
		return nil, err
	}
	return core.MinimalConnectors(h, x)
}

// FindRing searches for a Lemma 4.1 ring witness with singleton sets.
func FindRing(h *Hypergraph) (*Ring, bool) { return core.FindRing(h, 0) }

// NewRelation builds a relation over the given attributes.
func NewRelation(attrs []string, rows ...[]string) (*Relation, error) {
	return relation.New(attrs, rows...)
}

// NewDatabase binds a schema to one relation per edge.
func NewDatabase(schema *Hypergraph, objects []*Relation) (*Database, error) {
	return db.New(schema, objects)
}

// DatabaseFromUniversal projects a universal relation onto every object of
// the schema, yielding a globally consistent instance.
func DatabaseFromUniversal(schema *Hypergraph, u *Relation) (*Database, error) {
	return db.FromUniversal(schema, u)
}

// JoinDependency reads the join dependency ⋈[E₁,…,E_k] off a schema, for
// use with the chase (JDImplies).
func JoinDependency(schema *Hypergraph) JoinDep { return chase.FromHypergraph(schema) }

// MVD builds the multivalued dependency X →→ Y over the universe as the
// two-component join dependency ⋈[X∪Y, X∪(U−Y)].
func MVD(x, y, universe []string) JoinDep { return chase.MVD(x, y, universe) }

// JDImplies reports whether the given join dependencies imply the target
// over the universe, by chasing the target's canonical tableau. maxRows
// bounds chase growth.
func JDImplies(given []JoinDep, target JoinDep, universe []string, maxRows int) (bool, error) {
	return chase.Implies(given, target, universe, maxRows)
}

// JoinTreeMVDs derives the MVD basis of an acyclic schema from its join
// tree (BFMY: equivalent to the schema's full join dependency). Cyclic
// schemas report ErrCyclicSchema (which also matches ErrCyclic under
// errors.Is).
func JoinTreeMVDs(schema *Hypergraph) ([]JoinDep, error) {
	jt, ok := jointree.Build(schema)
	if !ok {
		return nil, ErrCyclicSchema
	}
	return chase.JoinTreeMVDs(schema, jt.Parent)
}
