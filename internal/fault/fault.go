// Package fault is the deterministic fault-injection harness behind the
// chaos suite: a registry of *named sites* compiled into the engine,
// execution, dynamic, store, and server layers, each a single call that is
// free when the registry is idle (one atomic load) and, when a test arms an
// injection plan, deterministically delays, errors, panics, or tears a write
// at that site.
//
// The harness exists to *prove* degradation instead of hoping for it: the
// server's chaos tests arm a plan, drive real traffic, and assert that every
// failure injected deep in the stack surfaces as a typed error on the wire —
// a deadline becomes a 408, a panic becomes a 500 with an incident id and a
// surviving process, a torn write leaves a recoverable prefix — and never as
// a crash or a hang.
//
// Determinism: an Injection fires by hit count (skip the first After hits,
// then fire Count times), and hits are counted under the registry lock, so a
// plan's firing pattern is a pure function of the traffic order. No
// randomness, no time-based triggers.
//
// The registry is process-global (sites are compiled into package code, so
// there is nothing to thread a handle through). Tests that arm plans must
// not run in parallel with each other; Reset restores the zero-cost idle
// state.
package fault

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// The named sites. Each constant documents where the site sits and which
// injection kinds it honors; arming an unsupported kind at a site is not an
// error, it simply cannot fire the way the plan hoped (a KindError armed at
// a void site still delays/panics but its Err is discarded by the caller).
const (
	// EngineAnalyze sits on the path of every memoized query (Analyze,
	// AnalyzeCtx, AnalyzeText): in engine.(*Engine).entryFor, and on
	// AnalyzeText's text-plane hits, which skip entryFor. A text that
	// fails to parse never reaches it.
	// Honors: KindDelay, KindPanic. (The site has no error return.)
	EngineAnalyze = "engine.analyze"
	// EngineIntern sits at the head of engine.(*Engine).InternComponent,
	// the component-granular memo path workspaces re-analyze through.
	// Honors: KindDelay, KindError, KindPanic.
	EngineIntern = "engine.intern-component"
	// ExecReduceStep sits in exec.Reduce's step runner, firing once per
	// semijoin step of a reduction, whichever kernel the step takes.
	// Honors: KindDelay, KindError, KindPanic.
	ExecReduceStep = "exec.reduce.step"
	// ExecEvalJoin sits at the head of the Yannakakis evaluation pipeline
	// (exec.Eval), firing once per evaluation.
	// Honors: KindDelay, KindError, KindPanic.
	ExecEvalJoin = "exec.eval.join"
	// DynamicSettle sits in dynamic.(*Workspace).recompute, firing once per
	// dirty-component re-analysis, on the goroutine of the request that
	// settles the workspace.
	// Honors: KindDelay, KindError, KindPanic.
	DynamicSettle = "dynamic.settle"
	// ServerHandle sits at the head of every server endpoint handler, after
	// admission and deadline setup. Honors: KindDelay, KindError, KindPanic.
	ServerHandle = "server.handle"
	// StoreAppend sits in store.(*Session).Append, before the WAL frame is
	// written — inside the workspace edit, so a firing injection must abort
	// the edit without acknowledging it.
	// Honors: KindDelay, KindError, KindPanic, KindTorn (the session writes
	// a partial frame, then runs its crash-repair path).
	StoreAppend = "store.append"
	// StoreSnapshot sits at the head of store.(*Session).Compact, guarding
	// the snapshot write and WAL rewrite.
	// Honors: KindDelay, KindError, KindPanic, KindTorn (a partial snapshot
	// temp file is left behind; the live snapshot must stay untouched).
	StoreSnapshot = "store.snapshot"
	// StoreRecover sits at the head of store.Open and store.Verify, before
	// any session file is read. Honors: KindDelay, KindError, KindPanic.
	StoreRecover = "store.recover"
)

// Kind selects what an armed Injection does when it fires.
type Kind int

const (
	// KindDelay sleeps for Delay before the site proceeds.
	KindDelay Kind = iota
	// KindError makes error-capable sites return Err.
	KindError
	// KindPanic panics with Panic (a string value).
	KindPanic
	// KindTorn makes write-capable sites return ErrTorn after emitting a
	// deliberately partial write — the simulation of a crash mid-write. At
	// sites with nothing to tear it degrades to a plain injected error.
	KindTorn
)

// ErrTorn is the error KindTorn injections return from Hit/HitCtx.
// Torn-capable sites (store.append, store.snapshot) recognize it and write
// a partial frame before failing, so recovery code faces exactly the bytes
// a real mid-write crash would leave behind.
var ErrTorn = errors.New("fault: injected torn write")

// Injection is one armed fault. The trigger is deterministic by hit count:
// the site's first After hits pass through untouched, the next Count hits
// fire (Count <= 0 means every subsequent hit fires).
type Injection struct {
	Kind  Kind
	Delay time.Duration // KindDelay: how long to sleep
	Err   error         // KindError: the error to inject
	Panic string        // KindPanic: the panic value
	After int           // hits to skip before firing
	Count int           // firings after that (<= 0: unlimited)
}

type site struct {
	inj  Injection
	hits int // total hits observed while armed
}

var (
	// armed counts armed sites; the idle fast path is this single load.
	armed atomic.Int32
	mu    sync.Mutex
	sites map[string]*site
)

// Activate arms an injection at a site, replacing any previous plan for it
// (the hit counter restarts).
func Activate(name string, inj Injection) {
	mu.Lock()
	defer mu.Unlock()
	if sites == nil {
		sites = make(map[string]*site)
	}
	if _, ok := sites[name]; !ok {
		armed.Add(1)
	}
	sites[name] = &site{inj: inj}
}

// Deactivate disarms one site (keeping other plans armed).
func Deactivate(name string) {
	mu.Lock()
	defer mu.Unlock()
	if _, ok := sites[name]; ok {
		delete(sites, name)
		armed.Add(-1)
	}
}

// Reset disarms every site, restoring the zero-cost idle state.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	armed.Store(0)
	sites = nil
}

// Hits reports how many times a site was reached while its plan was armed —
// the chaos suite's proof that a named site was actually exercised.
func Hits(name string) int {
	mu.Lock()
	defer mu.Unlock()
	if s, ok := sites[name]; ok {
		return s.hits
	}
	return 0
}

// Active reports whether any site is armed.
func Active() bool { return armed.Load() != 0 }

// fire consumes one hit and returns the injection to apply, if the trigger
// window covers this hit.
func fire(name string) (Injection, bool) {
	mu.Lock()
	defer mu.Unlock()
	s, ok := sites[name]
	if !ok {
		return Injection{}, false
	}
	n := s.hits
	s.hits++
	if n < s.inj.After {
		return Injection{}, false
	}
	if s.inj.Count > 0 && n >= s.inj.After+s.inj.Count {
		return Injection{}, false
	}
	return s.inj, true
}

// injectedTotal counts every injection that actually fired, across all
// sites — the chaos suite's aggregate visible on /metricsz.
var injectedTotal = obs.C("fault_injected_total")

// kindName names an injection kind for span attributes.
func kindName(k Kind) string {
	switch k {
	case KindDelay:
		return "delay"
	case KindError:
		return "error"
	case KindPanic:
		return "panic"
	case KindTorn:
		return "torn"
	}
	return "unknown"
}

// Hit is the instrumentation call compiled into error-capable sites: when
// the site's plan fires it sleeps (KindDelay), panics (KindPanic), or
// returns the injected error (KindError). Void sites call it too and
// discard the result (their constants document that KindError cannot
// propagate there). Idle cost is one atomic load.
func Hit(name string) error { return HitCtx(context.Background(), name) }

// HitCtx is Hit for ctx-bearing sites: a firing injection additionally
// stamps the context's current span with the site name and kind, so a
// retained trace shows exactly which fault shaped it. Panic-kind stamps on
// spans that unwind before End are lost by design — the serving layer's
// root span records the incident instead.
func HitCtx(ctx context.Context, name string) error {
	if armed.Load() == 0 {
		return nil
	}
	inj, ok := fire(name)
	if !ok {
		return nil
	}
	injectedTotal.Inc()
	if sp := obs.FromContext(ctx); sp != nil {
		sp.SetAttr("fault", name)
		sp.SetAttr("faultKind", kindName(inj.Kind))
	}
	switch inj.Kind {
	case KindDelay:
		time.Sleep(inj.Delay)
	case KindPanic:
		panic("fault: injected panic at " + name + ": " + inj.Panic)
	case KindError:
		return inj.Err
	case KindTorn:
		return ErrTorn
	}
	return nil
}
