package exec_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/hypergraph"
	"repro/internal/jointree"
	"repro/internal/pool"
	"repro/internal/relation"
)

// TestStepWaitSplitsQueueingFromKernelTime pins the WaitNs/Elapsed split:
// pool queueing delay lands in StepStats.Wait, never in Elapsed. A starved
// pool forces a parallel reduction's level tasks to run sequentially on the
// caller while a delay injection makes every semijoin step take a known
// time, so later tasks of a level queue for a deterministic multiple of the
// delay — time that used to be misattributed as kernel time.
func TestStepWaitSplitsQueueingFromKernelTime(t *testing.T) {
	// Star schema: a down-pass level containing all three leaves, pinned by
	// constructing the tree shape directly instead of relying on builder
	// tie-breaks.
	h := hypergraph.New([][]string{{"A", "B"}, {"A", "C"}, {"A", "D"}, {"A", "E"}})
	tree := &jointree.JoinTree{H: h, Parent: []int{-1, 0, 0, 0}}
	d, err := exec.FromRelations(h, []*relation.Relation{
		relation.MustNew([]string{"A", "B"}, []string{"a1", "b1"}, []string{"a2", "b2"}),
		relation.MustNew([]string{"A", "C"}, []string{"a1", "c1"}, []string{"a2", "c2"}),
		relation.MustNew([]string{"A", "D"}, []string{"a1", "d1"}),
		relation.MustNew([]string{"A", "E"}, []string{"a2", "e1"}),
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, p := range []*pool.Pool{nil, pool.New(1)} {
		serial, err := exec.Reduce(context.Background(), d, tree, p)
		if err != nil {
			t.Fatal(err)
		}
		for i, st := range serial.Steps {
			if st.Wait != 0 {
				t.Fatalf("workers %d: step %d has Wait %v, want 0 (serial runs never queue)", p.Parallelism(), i, st.Wait)
			}
		}
	}

	const delay = 20 * time.Millisecond
	fault.Activate(fault.PoolAcquire, fault.Injection{Kind: fault.KindStarve})
	fault.Activate(fault.ExecReduceStep, fault.Injection{Kind: fault.KindDelay, Delay: delay})
	defer fault.Reset()

	par, err := exec.Reduce(context.Background(), d, tree, pool.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(par.Steps) != 6 {
		t.Fatalf("got %d steps, want 6 (3 up + 3 down)", len(par.Steps))
	}

	// The starved pool runs each level inline: the down level's three tasks
	// execute back to back, so the second and third queue for at least one
	// and two step delays respectively.
	queued := 0
	var sumWait, sumElapsed time.Duration
	for _, st := range par.Steps {
		sumWait += st.Wait
		sumElapsed += st.Elapsed
		if st.Wait >= delay {
			queued++
		}
	}
	if queued < 2 {
		t.Fatalf("only %d steps saw queueing >= %v (waits: %v total), want >= 2", queued, delay, sumWait)
	}
	if sumWait < 3*delay {
		t.Fatalf("total Wait %v, want >= %v (0 + 1 + 2 step delays on the down level)", sumWait, 3*delay)
	}
	// All six steps sleep once each; if queueing leaked into Elapsed the
	// total would grow by sumWait (>= 3 more delays).
	if sumElapsed >= 6*delay+2*delay {
		t.Fatalf("total Elapsed %v includes queueing time (6 steps x %v kernel, waits %v)", sumElapsed, delay, sumWait)
	}
}
