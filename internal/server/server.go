// Package server is the robustness layer of the analysis service: an
// HTTP/JSON surface over the library's session API (analyze, join trees,
// classification, reduction, Yannakakis evaluation, mutable workspace
// sessions) engineered so that overload, bad input, deadlines, and even
// panics degrade into documented, typed responses instead of crashes or
// hangs.
//
// The layering, outermost first, for every request:
//
//  1. Drain gate — a draining server answers 503 "draining" immediately and
//     in-flight work is counted, so Drain can hand the process a clean
//     shutdown point.
//  2. Panic isolation — a recover() wraps the whole request; a panic
//     anywhere below (handler, engine, executor, workspace settle — all run
//     on the request's goroutine) becomes a 500 with a fresh incident id
//     and the process survives.
//  3. Per-tenant quota — a token bucket per X-Tenant header (429
//     "tenant_quota" + Retry-After when empty), so one tenant's burst
//     cannot starve the others.
//  4. Global admission — a bounded in-flight count (429 "overloaded" +
//     Retry-After when full), so concurrency is capped before any work
//     starts.
//  5. Deadline — every request runs under a context deadline (default
//     DefaultTimeout, overridable per request via X-Deadline-Ms, clamped to
//     MaxTimeout) that rides the library's ctx plumbing: MCS and Graham
//     reductions poll it every ~4096 work units, the exec kernels every
//     ~4096 rows, so a deadline stops real work mid-flight (408
//     "deadline").
//  6. Body cap — request bodies over MaxBodyBytes report 413.
//  7. Request scratch — every admitted request takes a body buffer and a
//     value Dict from one free list (scratchPool, at most MaxInFlight) and
//     returns them, the Dict reset, once its reply is written; a buffer
//     past 1 MiB, or a request that panicked, is dropped instead.
//
// Failures map to the one JSON error envelope (see ErrorBody); the status
// and code for every library error is pinned by the error-fidelity tests.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dynamic"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/store"
)

// Serving metrics: the always-on /metricsz view of request traffic. The
// full outcome breakdown lives in Stats (served by /statsz); these cover
// the rates and latency shape operators alert on.
var (
	srvRequests  = obs.C("server_requests_total")
	srvIncidents = obs.C("server_incidents_total")
	srvLatency   = obs.H("server_request_seconds")
)

// Config sizes the robustness envelope. The zero value is usable: every
// field falls back to the documented default.
type Config struct {
	// MaxInFlight bounds globally concurrent requests (default 64).
	MaxInFlight int
	// TenantRate is each tenant's sustained admission rate in requests per
	// second (default 50).
	TenantRate float64
	// TenantBurst is each tenant's bucket capacity (default 25).
	TenantBurst int
	// DefaultTimeout is the per-request deadline when the client sends no
	// X-Deadline-Ms (default 2s).
	DefaultTimeout time.Duration
	// MaxTimeout clamps client-requested deadlines (default 10s).
	MaxTimeout time.Duration
	// MaxBodyBytes caps request bodies (default 1 MiB).
	MaxBodyBytes int64
	// DigestSeed, when nonzero, keys the engine's memo digests (SipHash)
	// so untrusted tenants cannot craft fingerprint collisions.
	DigestSeed uint64
	// Logger receives panic incidents and lifecycle lines; nil discards.
	Logger *log.Logger

	// DataDir, when set, makes workspace sessions durable: each session
	// gets a snapshot + WAL directory under it (internal/store), sessions
	// found there are recovered on boot, and Drain flushes a final snapshot
	// per dirty session. Empty: sessions are memory-only (the pre-durable
	// behavior).
	DataDir string
	// SnapshotEvery is the per-session WAL record count that triggers a
	// background compaction (default 4096; negative disables automatic
	// compaction — Drain still cuts the final snapshot).
	SnapshotEvery int
	// SyncAppends fsyncs the session WAL on every edit. Off, an
	// acknowledged edit survives a process crash but not necessarily a
	// whole-machine power failure.
	SyncAppends bool

	// Trace turns span collection on for this process (obs.Enable). Off by
	// default: the disabled instrumentation path costs one atomic load per
	// call site. Metrics (/metricsz) are always on regardless.
	Trace bool
	// TraceSampleN head-samples 1 request in N when tracing (default 1 =
	// every request). The decision is made at the root, so unsampled
	// requests pay nothing downstream.
	TraceSampleN int
	// SlowTraceThreshold is the root duration at which the profiler retains
	// a trace's full span tree for /tracez (default 250ms; <0 retains every
	// sampled trace — useful in tests and CLI runs).
	SlowTraceThreshold time.Duration
	// TraceRingCap bounds how many slow traces /tracez retains (default 64).
	TraceRingCap int
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 64
	}
	if c.TenantRate <= 0 {
		c.TenantRate = 50
	}
	if c.TenantBurst <= 0 {
		c.TenantBurst = 25
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 2 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 10 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.TraceSampleN <= 0 {
		c.TraceSampleN = 1
	}
	if c.SlowTraceThreshold == 0 {
		c.SlowTraceThreshold = 250 * time.Millisecond
	}
	if c.TraceRingCap <= 0 {
		c.TraceRingCap = 64
	}
	return c
}

// Stats is a snapshot of the server's counters (see Server.Stats).
type Stats struct {
	Total       uint64 `json:"total"`       // requests admitted past the drain gate
	OK          uint64 `json:"ok"`          // 2xx responses
	ClientErr   uint64 `json:"clientErr"`   // 4xx responses (excluding sheds)
	Shed        uint64 `json:"shed"`        // 429 "overloaded"
	QuotaDenied uint64 `json:"quotaDenied"` // 429 "tenant_quota"
	Deadlines   uint64 `json:"deadlines"`   // 408 "deadline"
	Panics      uint64 `json:"panics"`      // recovered panics (500 + incident)
	Internal    uint64 `json:"internal"`    // 500s total (panics plus unclassified errors)
	InFlight    int    `json:"inFlight"`    // currently admitted requests
}

// Server is one service instance: a memoizing engine shared by all tenants,
// a registry of workspace sessions, and the admission machinery.
// Construct with New; all methods are safe for concurrent use.
type Server struct {
	cfg    Config
	eng    *engine.Engine
	quota  *quotas
	sem    chan struct{} // global in-flight tokens
	logger *log.Logger

	gate gate // drain gate: counts in-flight, refuses when draining

	scratch scratchPool // request scratch: body buffers and eval Dicts

	tracer *obs.Tracer   // per-request root spans (nil-safe when tracing is off)
	prof   *obs.Profiler // slow-trace retention behind /tracez

	mu     sync.Mutex
	nextWS int
	spaces map[string]*session // workspace sessions by id

	incidents atomic.Uint64
	ring      incidentRing

	// statsMu guards the counter fields of stats as one unit, so a /statsz
	// snapshot is internally consistent: the outcome counters never sum past
	// Total, no matter how the reader interleaves with in-flight requests.
	// (The previous scheme — one atomic per counter — let a reader observe a
	// request's outcome without its admission.)
	statsMu sync.Mutex
	stats   Stats
}

// bump updates the counter block under its lock.
func (s *Server) bump(f func(*Stats)) {
	s.statsMu.Lock()
	f(&s.stats)
	s.statsMu.Unlock()
}

// memoEntries bounds each plane of the server's engine memo (schema
// sessions, and component records of the workspaces). Without a bound every
// distinct schema a long-running server was ever sent stays resident with
// its text, hypergraph and facets; with it each shard evicts its
// least-recently-touched entry, and a repeated schema touches its entry on
// every hit, so a hot set far below the bound stays resident.
const memoEntries = 1024

// New builds a Server from cfg (zero value: all defaults). now is the quota
// clock; pass nil for time.Now (tests inject a fake).
func New(cfg Config, now func() time.Time) *Server {
	cfg = cfg.withDefaults()
	if now == nil {
		now = time.Now
	}
	opts := []engine.Option{engine.WithMaxEntries(memoEntries)}
	if cfg.DigestSeed != 0 {
		opts = append(opts, engine.WithKeyedDigest(cfg.DigestSeed))
	}
	threshold := cfg.SlowTraceThreshold
	if threshold < 0 {
		threshold = 0 // profiler convention: <= 0 retains every sampled trace
	}
	prof := obs.NewProfiler(threshold, cfg.TraceRingCap)
	if cfg.Trace {
		obs.Enable()
	}
	s := &Server{
		cfg:    cfg,
		eng:    engine.New(opts...),
		quota:  newQuotas(cfg.TenantRate, cfg.TenantBurst, now),
		sem:    make(chan struct{}, cfg.MaxInFlight),
		logger: cfg.Logger,
		tracer: obs.NewTracer(cfg.TraceSampleN, 0, prof),
		prof:   prof,
		spaces: make(map[string]*session),
	}
	s.scratch.free = make([]*scratch, 0, cfg.MaxInFlight)
	if cfg.DataDir != "" {
		s.recoverSessions()
	}
	return s
}

// storeOptions maps the config onto the per-session durability knobs.
func (s *Server) storeOptions() store.Options {
	return store.Options{SyncAppends: s.cfg.SyncAppends, SnapshotEvery: s.cfg.SnapshotEvery}
}

// wsOptions are the workspace options every session — created or recovered
// — is built with: the shared engine memo.
func (s *Server) wsOptions() []dynamic.Option {
	return []dynamic.Option{dynamic.WithEngine(s.eng)}
}

// recoverSessions reopens every session directory under DataDir on boot. A
// session that fails recovery is logged and skipped — its directory stays
// on disk for `hgtool ws` inspection — and never blocks the others. ws-N
// creation resumes past the highest listed id, recovered or not, so a fresh
// session never lands on a directory that is already there.
func (s *Server) recoverSessions() {
	if err := os.MkdirAll(s.cfg.DataDir, 0o755); err != nil {
		if s.logger != nil {
			s.logger.Printf("data dir %s: %v (sessions will fail to persist)", s.cfg.DataDir, err)
		}
		return
	}
	names, err := store.ListSessions(s.cfg.DataDir)
	if err != nil {
		if s.logger != nil {
			s.logger.Printf("data dir %s: list sessions: %v", s.cfg.DataDir, err)
		}
		return
	}
	for _, id := range names {
		var n int
		if _, err := fmt.Sscanf(id, "ws-%d", &n); err == nil && n > s.nextWS {
			s.nextWS = n
		}
		st, ws, err := store.Open(filepath.Join(s.cfg.DataDir, id), s.storeOptions(), s.wsOptions()...)
		if err != nil {
			if s.logger != nil {
				s.logger.Printf("session %s: recovery failed, left on disk: %v", id, err)
			}
			continue
		}
		s.spaces[id] = &session{ws: ws, store: st}
		if s.logger != nil {
			s.logger.Printf("session %s: recovered at epoch %d (%d edges)", id, ws.Epoch(), ws.NumEdges())
		}
	}
}

// Stats returns a snapshot of the counters /statsz serves. The counter
// block is copied under one lock, so the snapshot is consistent: OK +
// ClientErr + Shed + QuotaDenied + Deadlines + Internal never exceeds
// Total. InFlight is read separately (it is instantaneous, not a counter).
func (s *Server) Stats() Stats {
	s.statsMu.Lock()
	st := s.stats
	s.statsMu.Unlock()
	st.InFlight = len(s.sem)
	return st
}

// Handler returns the full route table. Method and path dispatch use the
// standard mux; everything under /v1/ runs inside the robustness envelope.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyze", s.guard(s.handleAnalyze))
	mux.HandleFunc("POST /v1/jointree", s.guard(s.handleJoinTree))
	mux.HandleFunc("POST /v1/classify", s.guard(s.handleClassify))
	mux.HandleFunc("POST /v1/reduce", s.guard(s.handleReduce))
	mux.HandleFunc("POST /v1/eval", s.guard(s.handleEval))
	mux.HandleFunc("POST /v1/workspaces", s.guard(s.handleWorkspaceCreate))
	mux.HandleFunc("GET /v1/workspaces/{id}", s.guard(s.handleWorkspaceGet))
	mux.HandleFunc("POST /v1/workspaces/{id}/edges", s.guard(s.handleAddEdge))
	mux.HandleFunc("DELETE /v1/workspaces/{id}/edges/{edge}", s.guard(s.handleRemoveEdge))
	mux.HandleFunc("POST /v1/workspaces/{id}/rename", s.guard(s.handleRename))
	mux.HandleFunc("POST /v1/workspaces/{id}/query", s.guard(s.handleQuery))
	mux.HandleFunc("GET /v1/workspaces/{id}/watch", s.guard(s.handleWatch))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /statsz", s.handleStatsz)
	mux.HandleFunc("GET /metricsz", s.handleMetricsz)
	mux.HandleFunc("GET /tracez", s.handleTracez)
	return mux
}

// handlerFunc is the shape of every endpoint: take a request (its context
// carries the deadline), return a JSON-encodable result or an error the
// taxonomy maps. Handlers never write to the ResponseWriter themselves, so
// the panic recovery above them can always still produce a response.
type handlerFunc func(r *http.Request) (any, error)

// statusWriter records the first status code written so the root span can
// carry the response status without handlers threading it around.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.code == 0 {
		sw.code = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) status() int {
	if sw.code == 0 {
		return http.StatusOK
	}
	return sw.code
}

// guard wraps a handler in the admission/deadline/recovery envelope
// documented on the package.
func (s *Server) guard(h handlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !s.gate.enter() {
			s.writeError(w, http.StatusServiceUnavailable,
				ErrorBody{Code: CodeDraining, Message: "server: shutting down"})
			return
		}
		defer s.gate.leave()
		s.bump(func(st *Stats) { st.Total++ })
		srvRequests.Inc()

		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		w = sw

		tenant := r.Header.Get("X-Tenant")
		if tenant == "" {
			tenant = "anon"
		}

		ctx, root := s.tracer.StartTrace(r.Context(), "server.request")
		root.SetAttr("method", r.Method)
		root.SetAttr("path", r.URL.Path)
		root.SetAttr("tenant", tenant)
		r = r.WithContext(ctx)

		// Root finalization must run after the recover below (defers are
		// LIFO), so a panic can stamp its incident id and force retention
		// before the trace is handed to the profiler.
		defer func() {
			srvLatency.Observe(time.Since(start))
			root.SetInt("status", int64(sw.status()))
			if dl, ok := r.Context().Deadline(); ok {
				root.SetInt("deadlineRemainingNs", int64(time.Until(dl)))
			}
			root.End()
		}()

		// Panic isolation: anything below — handler code, engine facets,
		// executor kernels, workspace settles, all on this goroutine — lands
		// in this recover, mints an incident id, and answers 500. The process
		// survives; the incident id correlates the response with the log,
		// and is stamped on the (force-retained) trace for /tracez.
		defer func() {
			if v := recover(); v != nil {
				stack := debug.Stack()
				id := s.mintIncident(r, fmt.Sprint(v), string(stack))
				s.bump(func(st *Stats) { st.Panics++; st.Internal++ })
				root.SetAttr("incident", id)
				root.Retain()
				if s.logger != nil {
					s.logger.Printf("panic %s: %v\n%s", id, v, stack)
				}
				s.writeError(w, http.StatusInternalServerError,
					ErrorBody{Code: CodeInternal, Message: "internal error", Incident: id})
			}
		}()

		if retry, ok := s.quota.allow(tenant); !ok {
			s.bump(func(st *Stats) { st.QuotaDenied++ })
			w.Header().Set("Retry-After", strconv.Itoa(retry))
			s.writeError(w, http.StatusTooManyRequests,
				ErrorBody{Code: CodeTenantQuota, Message: "tenant " + tenant + " over quota"})
			return
		}

		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
		default:
			s.bump(func(st *Stats) { st.Shed++ })
			w.Header().Set("Retry-After", "1")
			s.writeError(w, http.StatusTooManyRequests,
				ErrorBody{Code: CodeOverloaded, Message: "server at capacity"})
			return
		}

		d := s.cfg.DefaultTimeout
		if ms := r.Header.Get("X-Deadline-Ms"); ms != "" {
			if n, err := strconv.Atoi(ms); err == nil && n > 0 {
				d = time.Duration(n) * time.Millisecond
				if d > s.cfg.MaxTimeout {
					d = s.cfg.MaxTimeout
				}
			}
		}
		root.SetInt("deadlineMs", d.Milliseconds())
		sc := s.scratch.get()
		ctx, cancel := context.WithTimeout(context.WithValue(r.Context(), scratchKey{}, sc), d)
		defer cancel()
		r = r.WithContext(ctx)
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)

		// Chaos site: after admission and deadline setup, before the
		// endpoint — where the fault suite injects delays, errors, and
		// panics that must surface through this envelope.
		var res any
		err := fault.HitCtx(r.Context(), fault.ServerHandle)
		if err == nil {
			res, err = h(r)
		}
		if err != nil {
			s.fail(w, r, err)
		} else {
			s.bump(func(st *Stats) { st.OK++ })
			s.writeJSON(w, http.StatusOK, res)
		}
		// The reply is written, so nothing reads the scratch any more. Not
		// deferred: a panic drops the scratch, whatever state it was in.
		s.scratch.put(sc)
	}
}

// mintIncident allocates the next incident id and records the failure —
// with its request summary and optional stack — in the bounded ring /statsz
// serves.
func (s *Server) mintIncident(r *http.Request, summary, stack string) string {
	srvIncidents.Inc()
	id := fmt.Sprintf("inc-%06d", s.incidents.Add(1))
	s.ring.record(Incident{
		ID:      id,
		Time:    time.Now(),
		Method:  r.Method,
		Path:    r.URL.Path,
		Tenant:  r.Header.Get("X-Tenant"),
		Summary: summary,
		Stack:   stack,
	})
	return id
}

// fail maps err through the taxonomy and writes the typed body; errors the
// taxonomy does not recognize become 500s with incident ids, so nothing
// reaches the wire untyped.
func (s *Server) fail(w http.ResponseWriter, r *http.Request, err error) {
	status, body, ok := classify(err)
	if !ok {
		id := s.mintIncident(r, err.Error(), "")
		if s.logger != nil {
			s.logger.Printf("unclassified error %s: %v", id, err)
		}
		s.bump(func(st *Stats) { st.Internal++ })
		obs.FromContext(r.Context()).SetAttr("incident", id)
		s.writeError(w, http.StatusInternalServerError,
			ErrorBody{Code: CodeInternal, Message: "internal error", Incident: id})
		return
	}
	switch {
	case status == http.StatusRequestTimeout:
		s.bump(func(st *Stats) { st.Deadlines++ })
	case status >= 400 && status < 500:
		s.bump(func(st *Stats) { st.ClientErr++ })
	}
	obs.FromContext(r.Context()).SetAttr("errCode", body.Code)
	s.writeError(w, status, body)
}

func (s *Server) writeError(w http.ResponseWriter, status int, body ErrorBody) {
	s.writeJSON(w, status, errorResponse{Error: body})
}

// newline ends every reply body, as json.Encoder.Encode ends a value.
var newline = []byte{'\n'}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	var err error
	if raw, ok := v.(json.RawMessage); ok {
		// A memoized query body was marshalled once, already compact and
		// escaped as Encode would leave it: it goes out as it is, with the
		// newline Encode ends a value with, written apart so the session's
		// shared slice is never appended to.
		if _, err = w.Write(raw); err == nil {
			_, err = w.Write(newline)
		}
	} else {
		err = json.NewEncoder(w).Encode(v)
	}
	if err != nil && s.logger != nil {
		s.logger.Printf("encode response: %v", err)
	}
}

// handleHealthz bypasses admission (health checks must not consume quota):
// 200 while serving, 503 once draining.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.gate.isDraining() {
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]bool{"ok": false, "draining": true})
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// handleStatsz serves the counters plus the incident ring: the id from any
// 500 body can be looked up here while the ring retains it.
func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, struct {
		Stats
		Incidents []Incident `json:"incidents"`
	}{s.Stats(), s.ring.snapshot()})
}

// handleMetricsz serves the process-wide metrics registry in Prometheus
// text exposition format. Bypasses admission like /healthz: scrapes must
// not consume quota or be shed under load.
func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = obs.Default.WritePrometheus(w)
}

// handleTracez serves the slow-trace ring: full span trees of retained
// traces, newest first, plus the profiler's seen/retained counters.
// Bypasses admission.
func (s *Server) handleTracez(w http.ResponseWriter, r *http.Request) {
	seen, retained := s.prof.Stats()
	s.writeJSON(w, http.StatusOK, struct {
		Enabled   bool             `json:"enabled"`
		Seen      uint64           `json:"seen"`
		Retained  uint64           `json:"retained"`
		Threshold string           `json:"threshold"`
		Traces    []*obs.TraceJSON `json:"traces"`
	}{obs.Enabled(), seen, retained, s.prof.Threshold().String(), s.prof.Snapshot()})
}

// FlushOutcome reports one session's final flush during Drain: the epoch
// made durable, and the error if the flush failed (empty on success).
type FlushOutcome struct {
	ID    string `json:"id"`
	Epoch uint64 `json:"epoch"`
	Error string `json:"error,omitempty"`
}

// Drain flips the server into draining mode — new requests answer 503, the
// health check fails — and blocks until in-flight requests finish or ctx
// expires (reporting ctx.Err() with work still in flight). With a DataDir,
// every dirty session is then flushed to a final snapshot and closed; the
// per-session outcomes are logged, and the first flush failure is returned
// when the gate itself drained cleanly. Idempotent: a second Drain finds
// every session already clean.
func (s *Server) Drain(ctx context.Context) error {
	gateErr := s.gate.drain(ctx)
	var flushErr error
	for _, o := range s.FlushSessions() {
		if s.logger != nil {
			if o.Error != "" {
				s.logger.Printf("session %s: flush failed at epoch %d: %s", o.ID, o.Epoch, o.Error)
			} else {
				s.logger.Printf("session %s: flushed at epoch %d", o.ID, o.Epoch)
			}
		}
		if o.Error != "" && flushErr == nil {
			flushErr = fmt.Errorf("session %s: %s", o.ID, o.Error)
		}
	}
	if gateErr != nil {
		return gateErr
	}
	return flushErr
}

// FlushSessions compacts every dirty durable session to a final snapshot
// and closes it, reporting one outcome per session (sorted by id). A flush
// racing an in-flight background compaction serializes behind it — the
// store's compaction lock guarantees no acknowledged edit is lost between
// the two. Safe to call repeatedly; sessions already clean just close.
func (s *Server) FlushSessions() []FlushOutcome {
	s.mu.Lock()
	ids := make([]string, 0, len(s.spaces))
	for id, rec := range s.spaces {
		if rec.store != nil {
			ids = append(ids, id)
		}
	}
	s.mu.Unlock()
	sort.Strings(ids)
	out := make([]FlushOutcome, 0, len(ids))
	for _, id := range ids {
		s.mu.Lock()
		sess := s.spaces[id].store
		s.mu.Unlock()
		o := FlushOutcome{ID: id, Epoch: sess.Epoch()}
		func() {
			// An injected panic at store.snapshot runs outside the request
			// envelope here; contain it to this session's outcome.
			defer func() {
				if v := recover(); v != nil {
					o.Error = fmt.Sprint(v)
				}
			}()
			if sess.Dirty() {
				if err := sess.Compact(); err != nil {
					o.Error = err.Error()
				}
			}
			if err := sess.Close(); err != nil && o.Error == "" {
				o.Error = err.Error()
			}
		}()
		out = append(out, o)
	}
	return out
}

// gate counts in-flight requests and refuses new ones while draining. It is
// a mutex-guarded counter instead of a WaitGroup because enter() must
// atomically check "draining?" and increment — WaitGroup.Add racing
// WaitGroup.Wait is a misuse.
type gate struct {
	mu       sync.Mutex
	draining bool
	n        int
	idle     chan struct{} // closed when draining and n hits 0
}

func (g *gate) enter() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.draining {
		return false
	}
	g.n++
	return true
}

func (g *gate) leave() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.n--
	if g.draining && g.n == 0 && g.idle != nil {
		close(g.idle)
		g.idle = nil
	}
}

func (g *gate) isDraining() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.draining
}

func (g *gate) drain(ctx context.Context) error {
	g.mu.Lock()
	g.draining = true
	if g.n == 0 {
		g.mu.Unlock()
		return nil
	}
	if g.idle == nil {
		g.idle = make(chan struct{})
	}
	idle := g.idle
	g.mu.Unlock()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
