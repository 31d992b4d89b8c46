package spectrum

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/acyclic"
	"repro/internal/gen"
	"repro/internal/hypergraph"
)

// checkAgainstSpec pins the polynomial testers to the exponential /
// independent implementations in internal/acyclic and validates both
// certificates. useBetaDef additionally runs the exponential β definition
// (feasible only under its edge cap).
func checkAgainstSpec(t *testing.T, h *hypergraph.Hypergraph, useBetaDef bool) {
	t.Helper()
	ctx := context.Background()
	res, err := Classify(ctx, h)
	if err != nil {
		t.Fatalf("Classify: %v", err)
	}
	cl := acyclic.Classify(h)
	if res.Alpha != cl.Alpha {
		t.Fatalf("alpha mismatch: spectrum=%v acyclic=%v\n%s", res.Alpha, cl.Alpha, h.Format())
	}
	if res.Beta.Acyclic != cl.Beta {
		t.Fatalf("beta mismatch: spectrum=%v acyclic=%v\n%s", res.Beta.Acyclic, cl.Beta, h.Format())
	}
	if res.Gamma.Acyclic != cl.Gamma {
		t.Fatalf("gamma mismatch: spectrum=%v acyclic(exponential)=%v\n%s", res.Gamma.Acyclic, cl.Gamma, h.Format())
	}
	if res.Berge != cl.Berge {
		t.Fatalf("berge mismatch: spectrum=%v acyclic=%v\n%s", res.Berge, cl.Berge, h.Format())
	}
	if useBetaDef {
		def, err := acyclic.IsBetaAcyclicByDefinition(h)
		if err != nil {
			t.Fatalf("IsBetaAcyclicByDefinition: %v", err)
		}
		if res.Beta.Acyclic != def {
			t.Fatalf("beta vs exponential definition mismatch: spectrum=%v def=%v\n%s", res.Beta.Acyclic, def, h.Format())
		}
	}
	if err := VerifyBeta(h, res.Beta); err != nil {
		t.Fatalf("beta certificate rejected: %v\n%s", err, h.Format())
	}
	if err := VerifyGamma(h, res.Gamma); err != nil {
		t.Fatalf("gamma certificate rejected: %v\n%s", err, h.Format())
	}
	wantDegree := DegreeCyclic
	switch {
	case cl.Alpha && cl.Beta && cl.Gamma && cl.Berge:
		wantDegree = DegreeBerge
	case cl.Alpha && cl.Beta && cl.Gamma:
		wantDegree = DegreeGamma
	case cl.Alpha && cl.Beta:
		wantDegree = DegreeBeta
	case cl.Alpha:
		wantDegree = DegreeAlpha
	}
	if res.Degree != wantDegree {
		t.Fatalf("degree mismatch: spectrum=%v want=%v\n%s", res.Degree, wantDegree, h.Format())
	}
}

// TestSpectrumExhaustiveSmall differentially pins the polynomial testers to
// the exponential specifications on every connected reduced hypergraph over
// up to 4 nodes.
func TestSpectrumExhaustiveSmall(t *testing.T) {
	for n := 1; n <= 4; n++ {
		for _, h := range gen.AllConnectedReduced(n) {
			checkAgainstSpec(t, h, true)
		}
	}
}

// TestResultStringMatchesClassification pins Result.String to the text the
// exponential testers render for the same verdicts, on every connected
// reduced hypergraph over up to 4 nodes, so callers printing a spectrum
// print what they printed for acyclic.Classification.
func TestResultStringMatchesClassification(t *testing.T) {
	for n := 1; n <= 4; n++ {
		for _, h := range gen.AllConnectedReduced(n) {
			res, err := Classify(context.Background(), h)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := res.String(), acyclic.Classify(h).String(); got != want {
				t.Fatalf("String() = %q, acyclic.Classify = %q\n%s", got, want, h.Format())
			}
		}
	}
}

// TestSpectrumKnownExamples walks the named boundary instances of the
// hierarchy: each rung's classic witness classifies to exactly that degree.
func TestSpectrumKnownExamples(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name   string
		h      *hypergraph.Hypergraph
		degree Degree
	}{
		{"single-edge", hypergraph.New([][]string{{"a", "b", "c"}}), DegreeBerge},
		{"path", gen.PathGraph(5), DegreeBerge},
		{"berge-breaker", hypergraph.New([][]string{{"a", "b"}, {"a", "b", "c"}}), DegreeGamma},
		{"fagin-beta-not-gamma", hypergraph.New([][]string{{"a", "b"}, {"b", "c"}, {"a", "b", "c"}}), DegreeBeta},
		{"alpha-not-beta", hypergraph.New([][]string{{"a", "b"}, {"b", "c"}, {"c", "a"}, {"a", "b", "c"}}), DegreeAlpha},
		{"triangle", gen.CycleGraph(3), DegreeCyclic},
	}
	for _, tc := range cases {
		res, err := Classify(ctx, tc.h)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Degree != tc.degree {
			t.Errorf("%s: degree %v, want %v", tc.name, res.Degree, tc.degree)
		}
		if err := VerifyBeta(tc.h, res.Beta); err != nil {
			t.Errorf("%s: beta certificate rejected: %v", tc.name, err)
		}
		if err := VerifyGamma(tc.h, res.Gamma); err != nil {
			t.Errorf("%s: gamma certificate rejected: %v", tc.name, err)
		}
	}
}

// TestSpectrumRandomDifferential runs the differential pin over seeded
// random hypergraphs small enough for the exponential γ search.
func TestSpectrumRandomDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	for i := 0; i < 300; i++ {
		h := gen.Random(rng, gen.RandomSpec{
			Nodes:    3 + rng.Intn(6),
			Edges:    1 + rng.Intn(7),
			MinArity: 1,
			MaxArity: 4,
		})
		checkAgainstSpec(t, h, h.NumEdges() <= 12)
	}
}

// TestSpectrumGammaGenerator checks that every instance of the ported
// Leitert generator is γ-acyclic per the polynomial tester (with a valid
// certificate), and differentially per the exponential γ search at small
// sizes.
func TestSpectrumGammaGenerator(t *testing.T) {
	rng := rand.New(rand.NewSource(1982))
	ctx := context.Background()
	for i := 0; i < 200; i++ {
		m, n := 1+rng.Intn(8), 1+rng.Intn(8)
		h := gen.GammaAcyclic(rng, m, n)
		res, err := Gamma(ctx, h)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Acyclic {
			t.Fatalf("GammaAcyclic(m=%d,n=%d) judged cyclic\n%s", m, n, h.Format())
		}
		if err := VerifyGamma(h, res); err != nil {
			t.Fatalf("certificate rejected: %v\n%s", err, h.Format())
		}
		if !acyclic.IsGammaAcyclic(h) {
			t.Fatalf("exponential spec disagrees on generator instance\n%s", h.Format())
		}
	}
	// Larger instances: tester + checker only (the spec search is
	// exponential).
	for i := 0; i < 10; i++ {
		h := gen.GammaAcyclic(rng, 200, 150)
		res, err := Gamma(ctx, h)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Acyclic {
			t.Fatalf("large GammaAcyclic instance judged cyclic")
		}
		if err := VerifyGamma(h, res); err != nil {
			t.Fatalf("large certificate rejected: %v", err)
		}
	}
}

// TestSpectrumLargeUnderDeadline is the acceptance bar that motivated the
// subsystem: a 10⁴-edge schema classifies — full spectrum, certificates and
// all — within the server's default 2 s deadline.
func TestSpectrumLargeUnderDeadline(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := gen.GammaAcyclic(rng, 10000, 6000)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	start := time.Now()
	res, err := Classify(ctx, h)
	if err != nil {
		t.Fatalf("10⁴-edge classification missed the 2s deadline after %v: %v", time.Since(start), err)
	}
	if res.Degree < DegreeGamma {
		t.Fatalf("generator instance classified below gamma: %v", res.Degree)
	}
	t.Logf("10⁴-edge spectrum in %v", time.Since(start))
}

// errPolled is what a pollCtx reports once it has been polled enough.
var errPolled = errors.New("cancelled at poll k")

// pollCtx counts its Err polls; from the k-th on (k > 0) it reports
// errPolled, so a run sees its cancellation at a chosen point mid-traversal.
type pollCtx struct {
	context.Context
	polls, k int
}

func (c *pollCtx) Err() error {
	if c.polls++; c.k > 0 && c.polls >= c.k {
		return errPolled
	}
	return nil
}

// TestSpectrumCancellation checks that a pre-cancelled context surfaces
// ctx.Err() from every tester, and that a cancellation first seen mid-run —
// at the loader's or a tester's first poll after the entry check, at a
// middle one, and at its last — surfaces too, on an instance large enough
// to cross the polling stride many times: neither loading nor any worklist
// runs to its end unpolled.
func TestSpectrumCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	h := gen.GammaAcyclic(rng, 3000, 2000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Beta(ctx, h); err == nil {
		t.Error("Beta ignored cancelled context")
	}
	if _, err := Gamma(ctx, h); err == nil {
		t.Error("Gamma ignored cancelled context")
	}
	if _, err := Berge(ctx, h); err == nil {
		t.Error("Berge ignored cancelled context")
	}
	if _, err := Classify(ctx, h); err == nil {
		t.Error("Classify ignored cancelled context")
	}
	for _, tc := range []struct {
		name string
		run  func(context.Context) error
	}{
		{"load", func(ctx context.Context) error { _, err := load(ctx, h.Incidence()); return err }},
		{"Beta", func(ctx context.Context) error { _, err := Beta(ctx, h); return err }},
		{"Gamma", func(ctx context.Context) error { _, err := Gamma(ctx, h); return err }},
		{"Berge", func(ctx context.Context) error { _, err := Berge(ctx, h); return err }},
	} {
		count := &pollCtx{Context: context.Background()}
		if err := tc.run(count); err != nil {
			t.Fatalf("%s: uncancelled run: %v", tc.name, err)
		}
		if count.polls < 2 {
			t.Fatalf("%s polled ctx %d times; want the entry check and at least one mid-run poll", tc.name, count.polls)
		}
		for _, k := range []int{2, (2 + count.polls) / 2, count.polls} {
			if err := tc.run(&pollCtx{Context: context.Background(), k: k}); !errors.Is(err, errPolled) {
				t.Fatalf("%s cancelled at poll %d of %d returned %v, want %v", tc.name, k, count.polls, err, errPolled)
			}
		}
	}
}

// allNodes lists the covered node ids of h.
func allNodes(h *hypergraph.Hypergraph) []int32 {
	var ids []int32
	h.CoveredNodes().ForEach(func(id int) { ids = append(ids, int32(id)) })
	return ids
}

// TestVerifyRejectsForgedCertificates makes sure the checkers are not
// rubber stamps: corrupted orders, step sequences, and cores must all be
// rejected.
func TestVerifyRejectsForgedCertificates(t *testing.T) {
	ctx := context.Background()
	h := hypergraph.New([][]string{{"a", "b"}, {"b", "c"}, {"a", "b", "c"}}) // β-acyclic, not γ
	beta, err := Beta(ctx, h)
	if err != nil || !beta.Acyclic {
		t.Fatalf("setup: beta = %+v, %v", beta, err)
	}
	gamma, err := Gamma(ctx, h)
	if err != nil || gamma.Acyclic {
		t.Fatalf("setup: gamma = %+v, %v", gamma, err)
	}

	// Truncated elimination order leaves live nodes behind.
	forged := &BetaResult{Acyclic: true, Order: beta.Order[:1]}
	if VerifyBeta(h, forged) == nil {
		t.Error("VerifyBeta accepted a truncated order")
	}
	// An accepting claim for a cyclic instance cannot be completed.
	tri := gen.CycleGraph(3)
	if VerifyBeta(tri, &BetaResult{Acyclic: true, Order: allNodes(tri)}) == nil {
		t.Error("VerifyBeta accepted a forged order for a cyclic graph")
	}
	// A core that still contains a nest point is no obstruction.
	if VerifyBeta(h, &BetaResult{Core: allNodes(h)}) == nil {
		t.Error("VerifyBeta accepted a reducible core")
	}
	// Forged gamma acceptance of a non-gamma instance.
	if VerifyGamma(h, &GammaResult{Acyclic: true, Steps: nil}) == nil {
		t.Error("VerifyGamma accepted an empty step sequence for a non-empty hypergraph")
	}
	// A twin step naming non-twins.
	bad := &GammaResult{Acyclic: true, Steps: append([]Step{{Kind: StepTwinEdge, ID: 0, Twin: 2}}, gamma.Steps...)}
	if VerifyGamma(h, bad) == nil {
		t.Error("VerifyGamma accepted a false twin-edge step")
	}
	// A core with a leaf in it.
	path := gen.PathGraph(3)
	if VerifyGamma(path, &GammaResult{CoreNodes: allNodes(path), CoreEdges: []int32{0, 1}}) == nil {
		t.Error("VerifyGamma accepted a reducible core")
	}
}
