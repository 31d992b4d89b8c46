// Package pool provides the bounded worker-token pool of the parallel
// layers: the engine's batch fan-out and the workspace's per-component
// settle each draw goroutine tokens from a Pool, so neither exceeds its
// configured parallelism.
//
// The design is cooperative and non-blocking: a caller always counts as
// one worker and only *extra* goroutines need tokens (TryAcquire), so work
// never waits for a token — when the pool is exhausted the work simply runs
// inline on the caller. That makes nested parallel regions self-balancing
// (inner regions inherit whatever budget the outer ones left) and makes a
// nil *Pool a valid serial executor, which keeps every call site free of
// special cases.
package pool

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/obs"
)

// Pool metrics: grant/refusal counts make degrade-to-inline visible on
// /metricsz, and the held gauge shows instantaneous token pressure.
var (
	acquireGranted = obs.C("pool_acquire_granted_total")
	acquireRefused = obs.C("pool_acquire_refused_total")
	tokensHeld     = obs.G("pool_tokens_held")
)

// Pool is a bounded budget of concurrent workers. The zero value is not
// usable; construct with New. A nil *Pool is valid everywhere and means
// "serial": Parallelism reports 1, TryAcquire always refuses, Do runs
// inline.
type Pool struct {
	par int
	sem chan struct{} // par-1 buffered tokens; the caller is the par-th worker
}

// New returns a pool admitting up to n concurrent workers (the caller plus
// n-1 token-holding goroutines). Values < 1 fall back to
// runtime.GOMAXPROCS(0).
func New(n int) *Pool {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	p := &Pool{par: n}
	if n > 1 {
		p.sem = make(chan struct{}, n-1)
		for i := 0; i < n-1; i++ {
			p.sem <- struct{}{}
		}
	}
	return p
}

// Parallelism returns the configured worker bound (1 for a nil pool).
func (p *Pool) Parallelism() int {
	if p == nil {
		return 1
	}
	return p.par
}

// TryAcquire takes one worker token without blocking, reporting whether one
// was available. Every successful TryAcquire must be paired with a Release.
func (p *Pool) TryAcquire() bool {
	if p == nil || p.sem == nil {
		return false
	}
	// Chaos site: a starved pool must refuse tokens, forcing every parallel
	// region onto its degrade-inline path (never a deadlock or a spin).
	if fault.Starved(fault.PoolAcquire) {
		acquireRefused.Inc()
		return false
	}
	select {
	case <-p.sem:
		acquireGranted.Inc()
		tokensHeld.Add(1)
		return true
	default:
		acquireRefused.Inc()
		return false
	}
}

// Release returns a token taken by TryAcquire.
func (p *Pool) Release() {
	tokensHeld.Add(-1)
	p.sem <- struct{}{}
}

// Do runs f(0..n-1) with the caller plus as many token-holding goroutines
// as the pool can spare (at most n-1), handing indices out through an
// atomic cursor so uneven per-item cost balances automatically. It returns
// after every index has been processed. f must be safe for concurrent
// invocation on distinct indices; cancellation, if needed, lives inside f
// (record an error and make the remaining indices cheap no-ops).
//
// Panic isolation: a panic in f on a spawned worker does not crash the
// process the way an unrecovered goroutine panic would — Do captures the
// first worker panic, waits for the remaining workers, and re-raises it on
// the caller's goroutine (wrapped with the worker's stack), so callers that
// guard against panics — a serving layer isolating requests — see parallel
// execution fail exactly like serial execution: as a panic they can recover.
func (p *Pool) Do(n int, f func(i int)) {
	if n <= 0 {
		return
	}
	if p == nil || p.par <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var cursor atomic.Int64
	var panicked atomic.Pointer[workerPanic]
	loop := func() {
		for {
			if panicked.Load() != nil {
				return // a sibling already failed; stop handing out work
			}
			i := int(cursor.Add(1)) - 1
			if i >= n {
				return
			}
			f(i)
		}
	}
	var wg sync.WaitGroup
	spawned := 0
	for spawned < p.par-1 && spawned < n-1 && p.TryAcquire() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer p.Release()
			defer func() {
				if v := recover(); v != nil {
					panicked.CompareAndSwap(nil, &workerPanic{val: v, stack: debug.Stack()})
				}
			}()
			loop()
		}()
		spawned++
	}
	// The caller's own slice of the loop is captured the same way, so a
	// panic on either side stops the siblings at their next item boundary,
	// every worker is drained, and exactly one panic re-raises here.
	func() {
		defer func() {
			if v := recover(); v != nil {
				panicked.CompareAndSwap(nil, &workerPanic{val: v, stack: debug.Stack()})
			}
		}()
		loop()
	}()
	wg.Wait()
	if wp := panicked.Load(); wp != nil {
		panic(fmt.Sprintf("pool: worker panic: %v\n%s", wp.val, wp.stack))
	}
}

// workerPanic records the first panic captured on a spawned Do worker.
type workerPanic struct {
	val   any
	stack []byte
}
