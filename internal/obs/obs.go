// Package obs is the zero-dependency observability plane of the analysis
// service: context-propagated spans answering "where did this one request's
// time go?", a lock-cheap metrics registry behind /metricsz, and a
// slow-query profiler that retains the full span tree of outlier requests.
//
// The plane is engineered around one invariant: when tracing is globally
// disabled (the default), every instrumentation call in the hot layers
// costs a single atomic load and a branch — no context lookup, no
// allocation, no time read. A bench smoke in this package pins that path
// under 5 ns/op. Metrics counters are always on (they absorb counters the
// layers already paid atomics for) and are striped across cache lines so
// concurrent writers do not serialize.
//
// # Span model
//
// A trace is one request's tree of spans. The serving layer (or a CLI
// command) starts the root span with Tracer.StartTrace, which applies
// head-based sampling — the keep/drop decision is made once, up front, so
// an unsampled request pays nothing downstream — and installs the root in
// the context. Every instrumented layer below calls StartSpan(ctx, name),
// which is nil-safe at every step: no tracing, no sampled trace, or no
// parent span all yield a nil *Span whose methods no-op.
//
// Spans carry typed attributes (rows in/out, memo hit/miss, wait time,
// fault sites) and record themselves into the trace's bounded buffer when
// End is called; overflow increments a drop counter instead of growing.
// Ending the root span finalizes the trace and offers it to the tracer's
// Profiler, which retains the span tree when the request exceeded the slow
// threshold or when the trace was force-retained (Span.Retain — the panic
// path does this so incidents always keep their evidence).
//
// Concurrency: a span is owned by the goroutine that started it until End.
// A request's spans all start and end on the request goroutine, but the
// per-trace buffer is mutex-guarded, so a span may End from any goroutine.
// The registry, profiler, and tracer are all safe for concurrent use.
package obs

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Context aliases context.Context so the span signatures below read short;
// the package otherwise depends only on the standard library.
type Context = context.Context

// withSpan installs sp as the context's current span.
func withSpan(ctx Context, sp *Span) Context {
	return context.WithValue(ctx, ctxKey{}, sp)
}

// enabled is the global tracing switch: the disabled fast path of every
// span call is this one atomic load.
var enabled atomic.Bool

// Enable turns span collection on process-wide. Metrics are unaffected
// (always on).
func Enable() { enabled.Store(true) }

// Disable restores the near-free idle state: every StartTrace/StartSpan
// call returns a nil span after one atomic load.
func Disable() { enabled.Store(false) }

// Enabled reports whether span collection is on.
func Enabled() bool { return enabled.Load() }

// traceIDs mints process-unique trace ids.
var traceIDs atomic.Uint64

// Attr is one typed span attribute: a string or an int64, tagged. The
// fixed shape avoids interface boxing on the record path.
type Attr struct {
	Key   string
	Str   string
	Int   int64
	IsStr bool
}

// Value returns the attribute's value boxed for JSON rendering.
func (a Attr) Value() any {
	if a.IsStr {
		return a.Str
	}
	return a.Int
}

// SpanRecord is the immutable record of one completed span, as stored in
// the trace buffer.
type SpanRecord struct {
	ID     uint64
	Parent uint64 // 0 for the root
	Name   string
	Start  time.Time
	Dur    time.Duration
	Attrs  []Attr
}

// Trace is one request's bounded span collection. Constructed by
// Tracer.StartTrace; spans append themselves on End under the mutex.
type Trace struct {
	ID       uint64
	start    time.Time
	maxSpans int
	tracer   *Tracer
	nextID   atomic.Uint64
	forced   atomic.Bool // retain regardless of the slow threshold

	mu      sync.Mutex
	spans   []SpanRecord
	dropped int
}

// Span is one in-flight timed operation. A nil *Span is valid everywhere:
// every method no-ops, so instrumented code never branches on "is tracing
// on". Attributes must be set by the owning goroutine before End.
type Span struct {
	tr  *Trace
	rec SpanRecord
}

// ctxKey carries the current *Span through a context.
type ctxKey struct{}

// Tracer owns the sampling decision and the retention policy for one
// serving surface. A nil *Tracer is valid and never records.
type Tracer struct {
	sampleN  uint64 // head sampling: record 1 trace in sampleN (0/1: all)
	maxSpans int    // per-trace span buffer bound
	prof     *Profiler
	started  atomic.Uint64 // traces offered (sampling counter)
	sampled  atomic.Uint64 // traces actually recorded
}

// defaultMaxSpans bounds a trace's buffer when the tracer is built with
// maxSpans <= 0: large enough for a deep eval program, small enough that a
// pathological request cannot grow memory.
const defaultMaxSpans = 512

// NewTracer builds a tracer recording 1 trace in sampleN (values <= 1 mean
// every trace), bounding each trace at maxSpans spans (values <= 0 mean
// defaultMaxSpans), and offering finalized traces to prof (nil: traces are
// timed but never retained).
func NewTracer(sampleN int, maxSpans int, prof *Profiler) *Tracer {
	t := &Tracer{maxSpans: maxSpans, prof: prof}
	if sampleN > 1 {
		t.sampleN = uint64(sampleN)
	}
	if maxSpans <= 0 {
		t.maxSpans = defaultMaxSpans
	}
	return t
}

// Sampled reports how many traces this tracer has recorded (post-sampling).
func (t *Tracer) Sampled() uint64 {
	if t == nil {
		return 0
	}
	return t.sampled.Load()
}

// StartTrace begins a new trace with its root span and installs the root
// in the returned context, applying head-based sampling: an unsampled (or
// disabled, or nil-tracer) request returns the context unchanged and a nil
// span, so nothing downstream records. End the root span to finalize the
// trace and offer it to the profiler.
func (t *Tracer) StartTrace(ctx Context, name string) (Context, *Span) {
	if !enabled.Load() || t == nil {
		return ctx, nil
	}
	if t.sampleN > 1 && t.started.Add(1)%t.sampleN != 0 {
		return ctx, nil
	}
	t.sampled.Add(1)
	tr := &Trace{
		ID:       traceIDs.Add(1),
		start:    time.Now(),
		maxSpans: t.maxSpans,
		tracer:   t,
	}
	sp := &Span{tr: tr, rec: SpanRecord{ID: tr.nextID.Add(1), Name: name, Start: tr.start}}
	return withSpan(ctx, sp), sp
}

// StartSpan begins a child of the context's current span and installs it
// in the returned context. The disabled path is one atomic load; a context
// without a sampled trace returns (ctx, nil).
//
// The body is shaped to stay within the compiler's inlining budget, so the
// disabled check costs no call at the call site.
func StartSpan(ctx Context, name string) (out Context, sp *Span) {
	out = ctx
	if enabled.Load() {
		out, sp = startSpan(ctx, name)
	}
	return
}

// startSpan is StartSpan's enabled path, kept out of line so the disabled
// check inlines at every call site.
func startSpan(ctx Context, name string) (Context, *Span) {
	parent, _ := ctx.Value(ctxKey{}).(*Span)
	if parent == nil {
		return ctx, nil
	}
	tr := parent.tr
	sp := &Span{tr: tr, rec: SpanRecord{
		ID:     tr.nextID.Add(1),
		Parent: parent.rec.ID,
		Name:   name,
		Start:  time.Now(),
	}}
	return withSpan(ctx, sp), sp
}

// FromContext returns the context's current span (nil when tracing is off
// or the request was not sampled). The disabled path is one atomic load.
func FromContext(ctx Context) *Span {
	if !enabled.Load() {
		return nil
	}
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}

// SetAttr attaches a string attribute. Nil-safe.
func (s *Span) SetAttr(key, val string) {
	if s == nil {
		return
	}
	s.rec.Attrs = append(s.rec.Attrs, Attr{Key: key, Str: val, IsStr: true})
}

// SetInt attaches an integer attribute. Nil-safe.
func (s *Span) SetInt(key string, val int64) {
	if s == nil {
		return
	}
	s.rec.Attrs = append(s.rec.Attrs, Attr{Key: key, Int: val})
}

// SetBool attaches a boolean attribute (rendered as 0/1). Nil-safe.
func (s *Span) SetBool(key string, val bool) {
	var v int64
	if val {
		v = 1
	}
	s.SetInt(key, v)
}

// Retain marks the span's whole trace for retention regardless of the slow
// threshold — the incident path calls this so a panicking request's trace
// is always retrievable. Nil-safe.
func (s *Span) Retain() {
	if s == nil {
		return
	}
	s.tr.forced.Store(true)
}

// TraceID returns the span's trace id (0 for a nil span).
func (s *Span) TraceID() uint64 {
	if s == nil {
		return 0
	}
	return s.tr.ID
}

// End records the span into its trace's bounded buffer. Ending the root
// span additionally finalizes the trace and offers it to the tracer's
// profiler. Nil-safe; a second End double-records and must not happen (the
// single-owner convention makes that a code bug, not a runtime state).
func (s *Span) End() {
	if s == nil {
		return
	}
	s.end()
}

// end is End's record path, kept out of line so the nil check inlines at
// every call site.
func (s *Span) end() {
	s.rec.Dur = time.Since(s.rec.Start)
	tr := s.tr
	tr.mu.Lock()
	if len(tr.spans) < tr.maxSpans {
		tr.spans = append(tr.spans, s.rec)
	} else {
		tr.dropped++
	}
	tr.mu.Unlock()
	if s.rec.Parent == 0 {
		if p := tr.tracer.prof; p != nil {
			p.consider(tr, s.rec.Dur)
		}
	}
}

// SpanJSON is one node of an exported span tree (the /tracez schema).
type SpanJSON struct {
	ID            uint64         `json:"id"`
	Parent        uint64         `json:"parent,omitempty"`
	Name          string         `json:"name"`
	StartUnixNano int64          `json:"startUnixNano"`
	DurationNs    int64          `json:"durationNs"`
	Attrs         map[string]any `json:"attrs,omitempty"`
	Children      []*SpanJSON    `json:"children,omitempty"`
}

// TraceJSON is one exported trace: the span tree plus bookkeeping.
type TraceJSON struct {
	TraceID    uint64    `json:"traceId"`
	Root       *SpanJSON `json:"root"`
	Spans      int       `json:"spans"`
	Dropped    int       `json:"dropped,omitempty"`
	DurationNs int64     `json:"durationNs"`
}

// snapshotJSON assembles the trace's recorded spans into a tree. Spans
// whose parent was dropped (buffer overflow) or never ended attach to the
// root, so evidence is kept even when attribution is partial.
func (tr *Trace) snapshotJSON(rootDur time.Duration) *TraceJSON {
	tr.mu.Lock()
	recs := make([]SpanRecord, len(tr.spans))
	copy(recs, tr.spans)
	dropped := tr.dropped
	tr.mu.Unlock()

	nodes := make(map[uint64]*SpanJSON, len(recs))
	for _, r := range recs {
		n := &SpanJSON{
			ID:            r.ID,
			Parent:        r.Parent,
			Name:          r.Name,
			StartUnixNano: r.Start.UnixNano(),
			DurationNs:    r.Dur.Nanoseconds(),
		}
		if len(r.Attrs) > 0 {
			n.Attrs = make(map[string]any, len(r.Attrs))
			for _, a := range r.Attrs {
				n.Attrs[a.Key] = a.Value()
			}
		}
		nodes[r.ID] = n
	}
	var root *SpanJSON
	for _, n := range nodes {
		if n.Parent == 0 {
			root = n
		}
	}
	if root == nil {
		// The root record was dropped (overflow) — synthesize one so the
		// tree stays navigable.
		root = &SpanJSON{Name: "(root dropped)", StartUnixNano: tr.start.UnixNano(), DurationNs: rootDur.Nanoseconds()}
	}
	var orphans []*SpanJSON
	for _, n := range nodes {
		if n == root {
			continue
		}
		if p, ok := nodes[n.Parent]; ok && p != n {
			p.Children = append(p.Children, n)
		} else {
			orphans = append(orphans, n)
		}
	}
	root.Children = append(root.Children, orphans...)
	var sortChildren func(n *SpanJSON)
	sortChildren = func(n *SpanJSON) {
		sort.Slice(n.Children, func(i, j int) bool { return n.Children[i].ID < n.Children[j].ID })
		for _, c := range n.Children {
			sortChildren(c)
		}
	}
	sortChildren(root)
	return &TraceJSON{
		TraceID:    tr.ID,
		Root:       root,
		Spans:      len(recs),
		Dropped:    dropped,
		DurationNs: rootDur.Nanoseconds(),
	}
}
