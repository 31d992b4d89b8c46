package dynamic

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/gendb"
	"repro/internal/hypergraph"
)

// parkedCtx stands in for a long facet run: the first cancellation poll of
// the traversal it drives closes started and parks until release closes.
type parkedCtx struct {
	context.Context
	once    sync.Once
	started chan struct{}
	release chan struct{}
}

func (c *parkedCtx) Err() error {
	c.once.Do(func() {
		close(c.started)
		<-c.release
	})
	return c.Context.Err()
}

// TestFacetWaitersObserveOwnDeadline: while one caller's classification of
// a large workspace is in flight, a second caller with a ~1 ms deadline
// must give up with context.DeadlineExceeded on its own schedule, and the
// hot JoinTree read must not queue behind the run.
func TestFacetWaitersObserveOwnDeadline(t *testing.T) {
	ws, err := NewFrom(gen.GammaAcyclic(rand.New(rand.NewSource(5)), 3000, 2000))
	if err != nil {
		t.Fatal(err)
	}
	a := ws.Analysis()
	runner := &parkedCtx{Context: context.Background(), started: make(chan struct{}), release: make(chan struct{})}
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(runner.release) }) }
	defer release()
	runnerDone := make(chan error, 1)
	go func() {
		_, err := a.Spectrum(runner)
		runnerDone <- err
	}()
	<-runner.started // the runner is inside the spectrum traversal

	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	waiter := make(chan error, 1)
	go func() {
		_, err := a.Spectrum(ctx)
		waiter <- err
	}()
	select {
	case err := <-waiter:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("waiter returned %v, want context.DeadlineExceeded", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter blocked past its deadline behind the in-flight classification")
	}
	jtDone := make(chan error, 1)
	go func() {
		_, err := a.JoinTree()
		jtDone <- err
	}()
	select {
	case err := <-jtDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("JoinTree queued behind the in-flight classification")
	}

	release()
	if err := <-runnerDone; err != nil {
		t.Fatalf("runner: %v", err)
	}
	if res, err := a.Spectrum(context.Background()); err != nil || !res.Gamma.Acyclic {
		t.Fatalf("latched spectrum = %v, %v; want γ-acyclic", res, err)
	}
}

// TestHandleNeverRerunsMCS: the handle's session is seeded with the
// settled verdict and join forest, so no facet re-runs the maximum
// cardinality search, and every facet computes at most once however often
// it is asked.
func TestHandleNeverRerunsMCS(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(11))
	for _, h := range []*hypergraph.Hypergraph{gen.AcyclicChain(8, 3, 1), gen.CycleGraph(6)} {
		ws, err := NewFrom(h)
		if err != nil {
			t.Fatal(err)
		}
		a := ws.Analysis()
		snap, err := a.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		d := gendb.Random(rng, snap, gen.InstanceSpec{Rows: 40, DomainSize: 4})
		attrs := snap.Nodes()[:2]
		cyclic := !a.Verdict()
		for i := 0; i < 3; i++ {
			_, jtErr := a.JoinTree()
			_, frErr := a.FullReducer()
			if _, err := a.Spectrum(ctx); err != nil {
				t.Fatal(err)
			}
			if _, err := a.GrahamTrace(ctx); err != nil {
				t.Fatal(err)
			}
			_, redErr := a.Reduce(ctx, d)
			_, evalErr := a.Eval(ctx, d, attrs)
			if cyclic {
				if !errors.Is(jtErr, hypergraph.ErrCyclic) {
					t.Fatalf("JoinTree on a cyclic epoch: %v", jtErr)
				}
				for _, err := range []error{frErr, redErr, evalErr} {
					if !errors.Is(err, hypergraph.ErrCyclicSchema) {
						t.Fatalf("plan facet on a cyclic epoch: %v, want ErrCyclicSchema", err)
					}
				}
			} else {
				for _, err := range []error{jtErr, frErr, redErr, evalErr} {
					if err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		st := a.inner.Stats()
		if st.MCSRuns != 0 || st.HierarchyRuns != 1 || st.GrahamRuns != 1 {
			t.Fatalf("cyclic=%v: stats = %+v, want no MCS and one run per queried traversal", cyclic, st)
		}
	}
}
