package main

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/obs"
)

// inputs holds the generated inputs of the selected workload.
type inputs struct {
	mix *schemaMix
	ej  *evalJoin
	ws  *workspaceEdit
}

func genInputs(cfg config) (*inputs, error) {
	in := &inputs{}
	var err error
	switch cfg.workload {
	case "schema-mix":
		in.mix, err = newSchemaMix(cfg.seed, cfg.sz)
	case "eval-join":
		in.ej, err = newEvalJoin(cfg.seed, cfg.sz)
	default:
		in.ws = newWorkspaceEdit(cfg.seed, cfg.sz, numClients)
	}
	if err == nil && cfg.plant != nil {
		cfg.plant(in)
	}
	return in, err
}

// serverFlags are hgserved's flags for the workload: defaults, except a
// tenant quota high enough never to shed (this benchmark measures service,
// not quota policy) and, on workspace-edit, durable sessions.
func serverFlags(cfg config, dataDir string) []string {
	f := []string{"-rate", "1000000000", "-burst", "1000000000"}
	if cfg.workload == "workspace-edit" {
		f = append(f, "-data", dataDir, "-snap-every", fmt.Sprint(cfg.sz.snapEvery))
	}
	return f
}

// setup boots hgserved and brings the workload to its measured state: the
// memo warm with every hot schema (schema-mix) or the eval schema
// (eval-join), or one seeded, settled session per client
// (workspace-edit). Warm-up replies are checked like measured ones.
func setup(cfg config, in *inputs, flags []string, res *result) (*serverProc, []client, []*wsClient, error) {
	srv, err := startServer(cfg.serverBin, flags)
	if err != nil {
		return nil, nil, nil, err
	}
	var clients []client
	var wsc []*wsClient
	warm := func(reqs []request, check func(request, int, []byte) error) error {
		for _, req := range reqs {
			st, body, err := srv.do(context.Background(), req.method, req.path, req.body)
			if err != nil {
				return err
			}
			res.attempted++
			if err := check(req, st, body); err != nil {
				res.failed++
				fmt.Fprintf(cfg.log, "wrong answer during warm-up: %v\n", err)
			}
		}
		return nil
	}
	switch {
	case in.mix != nil:
		err = warm(in.mix.warmRequests(), checkSchema)
		for c := 0; c < numClients; c++ {
			clients = append(clients, in.mix.newClient(c))
		}
	case in.ej != nil:
		err = warm(in.ej.warmRequests(), (&evalClient{}).check)
		for c := 0; c < numClients; c++ {
			clients = append(clients, in.ej.newClient(c))
		}
	default:
		for c := 0; c < numClients && err == nil; c++ {
			var cl *wsClient
			cl, err = createSession(srv, in.ws, c)
			if err == nil {
				res.attempted++
				wsc = append(wsc, cl)
				clients = append(clients, cl)
			}
		}
	}
	if err != nil {
		srv.kill()
		return nil, nil, nil, err
	}
	return srv, clients, wsc, nil
}

// createSession seeds one durable session and settles it with a verdict
// read, which must report the seeded epoch and an acyclic schema.
func createSession(srv *serverProc, w *workspaceEdit, c int) (*wsClient, error) {
	st, body, err := srv.do(context.Background(), "POST", "/v1/workspaces", w.createBody(c))
	if err != nil {
		return nil, err
	}
	var created struct {
		ID    string
		Epoch uint64
	}
	if err := decodeOK(st, body, &created); err != nil {
		return nil, fmt.Errorf("create session: %w", err)
	}
	if created.Epoch != uint64(w.seeds[c].edges) {
		return nil, fmt.Errorf("create session: epoch %d after %d seed edges", created.Epoch, w.seeds[c].edges)
	}
	cl := w.newClient(c, created.ID, created.Epoch)
	st, body, err = srv.do(context.Background(), "POST", "/v1/workspaces/"+created.ID+"/query", []byte(`{"op":"verdict"}`))
	if err != nil {
		return nil, err
	}
	var v struct {
		Epoch   uint64
		Acyclic bool
	}
	if err := decodeOK(st, body, &v); err != nil || v.Epoch != created.Epoch || !v.Acyclic {
		return nil, fmt.Errorf("settle session %s: %v %+v", created.ID, err, v)
	}
	return cl, nil
}

// warmRequests is how many checked but untimed requests each client sends
// before a pass is timed: whole six-request blocks on schema-mix, whole
// five-request edit cycles on workspace-edit.
var warmRequests = map[string]int{"schema-mix": 120, "eval-join": 16, "workspace-edit": 100}

// runUntraced measures the end-to-end metrics over setupReps independent
// servers. The inputs and their expected answers are generated once, before
// any server starts, and are not timed. Each server is set up (timed: boot,
// then memo warm-up or session seeding), sent the warm-up prefix (after
// which its peak RSS is read), measured for an equal share of the run, and
// stopped. Throughput, p50 latency, set-up time and RSS are medians over
// the servers, so one process that runs slow or fast as a whole moves none
// of them. The tail is an info line here: it moves with CPU steal from
// other guests far more than the median does. The last workspace-edit
// server also gets the crash-durability check.
func runUntraced(cfg config, res *result) error {
	var setups, rss, rps, p50s []float64
	var reads, edits []time.Duration
	var recovery time.Duration
	t0 := time.Now()
	in, err := genInputs(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.log, "info input_gen_s %g s n=1\n", time.Since(t0).Seconds())
	for rep := 0; rep < cfg.setupReps; rep++ {
		t0 := time.Now()
		flags := serverFlags(cfg, filepath.Join(cfg.workDir, fmt.Sprintf("data-%d", rep)))
		srv, clients, wsc, err := setup(cfg, in, flags, res)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		gen := newLoadGen(srv, clients)
		gen.warm(warmRequests[cfg.workload])
		rss = append(rss, srv.peakRSSMB())
		lr := gen.measure(cfg.dur / time.Duration(cfg.setupReps))
		gen.close()
		res.count(lr)
		logErrors(cfg, lr)
		r := lr.latencies(false)
		rps = append(rps, ratio(float64(len(lr.samples)), lr.elapsed.Seconds()))
		p50s = append(p50s, percentile(r, 0.5))
		reads = append(reads, r...)
		edits = append(edits, lr.latencies(true)...)
		if rep == 0 {
			logServer(cfg, srv)
		}
		fmt.Fprintf(cfg.log, "info server_end_peak_rss_mb %g MB\n", srv.peakRSSMB())
		if wsc != nil && rep == cfg.setupReps-1 {
			if recovery, err = crashCheck(cfg, srv, flags, wsc); err != nil {
				res.failed++
				fmt.Fprintf(cfg.log, "crash-durability check failed: %v\n", err)
			}
			res.attempted++
		} else if err := srv.stop(); err != nil {
			return err
		}
	}
	res.add("throughput_rps", median(rps), "1/s", len(rps))
	res.add("latency_p50_ms", median(p50s), "ms", len(reads))
	res.add("setup_s", median(setups), "s", len(setups))
	res.add("server_peak_rss_mb", median(rss), "MB", len(rss))
	fmt.Fprintf(cfg.log, "info latency_p95_ms %g ms n=%d\n", percentile(reads, 0.95), len(reads))
	if cfg.workload == "workspace-edit" {
		fmt.Fprintf(cfg.log, "info edit_latency_p50_ms %g ms n=%d\n", percentile(edits, 0.50), len(edits))
		fmt.Fprintf(cfg.log, "info edit_latency_p99_ms %g ms n=%d\n", percentile(edits, 0.99), len(edits))
		fmt.Fprintf(cfg.log, "info recovery_s %g s n=1\n", recovery.Seconds())
	}
	return nil
}

func logErrors(cfg config, lr loadResult) {
	for _, e := range lr.errs {
		fmt.Fprintf(cfg.log, "wrong answer: %s\n", e)
	}
}

// crashCheck SIGKILLs hgserved, restarts it on the same data directory,
// times how long until every session answers, and checks that each
// session's epoch, edge count and verdict are the last acknowledged ones.
func crashCheck(cfg config, srv *serverProc, flags []string, wsc []*wsClient) (time.Duration, error) {
	srv.kill()
	if cfg.plantCrash != nil {
		cfg.plantCrash(wsc)
	}
	t0 := time.Now()
	srv2, err := startServer(cfg.serverBin, flags)
	if err != nil {
		return 0, fmt.Errorf("restart: %w", err)
	}
	var failure error
	for _, cl := range wsc {
		st, body, err := srv2.do(context.Background(), "GET", "/v1/workspaces/"+cl.id, nil)
		if err == nil {
			var got struct {
				Epoch   uint64
				Edges   int
				Acyclic bool
			}
			err = decodeOK(st, body, &got)
			if err == nil && (got.Epoch != cl.epoch || got.Edges != cl.edges || !got.Acyclic) {
				err = fmt.Errorf("session %s recovered at epoch %d with %d edges (acyclic=%v), last acknowledged epoch %d with %d edges",
					cl.id, got.Epoch, got.Edges, got.Acyclic, cl.epoch, cl.edges)
			}
		}
		if err != nil && failure == nil {
			failure = err
		}
	}
	recovery := time.Since(t0)
	if err := srv2.stop(); err != nil && failure == nil {
		failure = err
	}
	return recovery, failure
}

// logServer records what the provenance line cannot know in advance: the
// server's exact flags and its GOMAXPROCS.
func logServer(cfg config, srv *serverProc) {
	fmt.Fprintf(cfg.log, "server flags %q gomaxprocs %d\n", srv.flags, srv.gomaxprocs())
}

// provenance identifies the host, toolchain and source a result came from.
func provenance(cfg config, root string) map[string]any {
	commit := "none (not a git checkout)"
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.dur.Seconds(), "trace": cfg.trace,
		"clients": numClients, "nproc": runtime.NumCPU(), "loadgen_gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "cpu": cpuModel(), "git_commit": commit,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// --------------------------------------------------------------- traced run

// runTraced measures the per-layer metrics: an untraced load pass (the
// baseline for server.unattributed_ms, plus the server-side counters), the
// in-process replay of the same sequences, and on schema-mix the tracing
// overhead passes.
func runTraced(cfg config, res *result) error {
	half := cfg.dur / 2
	in, err := genInputs(cfg)
	if err != nil {
		return err
	}
	flags := serverFlags(cfg, filepath.Join(cfg.workDir, "data"))
	srv, clients, wsc, err := setup(cfg, in, flags, res)
	if err != nil {
		return err
	}
	m0, err := srv.metricsz()
	if err != nil {
		srv.kill()
		return err
	}
	lr := runLoad(srv, clients, warmRequests[cfg.workload], half)
	res.count(lr)
	logErrors(cfg, lr)
	m1, err := srv.metricsz()
	if err != nil {
		srv.kill()
		return err
	}
	logServer(cfg, srv)
	var recovery time.Duration
	if wsc != nil {
		if recovery, err = crashCheck(cfg, srv, flags, wsc); err != nil {
			res.failed++
			fmt.Fprintf(cfg.log, "crash-durability check failed: %v\n", err)
		}
		res.attempted++
	} else if err := srv.stop(); err != nil {
		return err
	}
	delta := func(k string) float64 { return m1[k] - m0[k] }

	lay, err := runReplay(cfg, in, res, half)
	if err != nil {
		return err
	}

	overhead := 0.0
	if in.mix != nil {
		if overhead, err = traceOverhead(cfg, in, flags, res); err != nil {
			return err
		}
	}

	reads, edits := lr.latencies(false), lr.latencies(true)
	lay.report(cfg, res, mean(reads), len(reads))
	res.add("pool.refused_ratio", ratio(delta("pool_acquire_refused_total"),
		delta("pool_acquire_refused_total")+delta("pool_acquire_granted_total")), "ratio", 0)
	res.add("server.respcache_hit_ratio", ratio(delta("server_respcache_hits_total"),
		delta("server_respcache_hits_total")+delta("server_respcache_misses_total")), "ratio", 0)
	res.add("obs.trace_overhead_pct", overhead, "%", len(reads))
	res.add("latency_p95_ms", percentile(reads, 0.95), "ms", len(reads))
	res.add("latency_p99_ms", percentile(reads, 0.99), "ms", len(reads))
	res.add("edit_latency_p50_ms", percentile(edits, 0.50), "ms", len(edits))
	res.add("edit_latency_p99_ms", percentile(edits, 0.99), "ms", len(edits))
	res.add("recovery_s", recovery.Seconds(), "s", min(1, len(wsc)))
	return nil
}

// traceOverhead compares the mean read latency of hgserved with and
// without -trace -trace-sample 1 over four fresh servers of a quarter of
// the run each, in the order untraced, traced, traced, untraced, so a
// drift in host speed during the passes cancels out.
func traceOverhead(cfg config, in *inputs, flags []string, res *result) (float64, error) {
	var sums [2]float64
	for _, traced := range []bool{false, true, true, false} {
		f := append([]string(nil), flags...)
		if traced {
			f = append(f, "-trace", "-trace-sample", "1")
		}
		srv, clients, _, err := setup(cfg, in, f, res)
		if err != nil {
			return 0, err
		}
		lr := runLoad(srv, clients, warmRequests[cfg.workload], cfg.dur/4)
		res.count(lr)
		logErrors(cfg, lr)
		if err := srv.stop(); err != nil {
			return 0, err
		}
		if traced {
			sums[1] += mean(lr.latencies(false))
		} else {
			sums[0] += mean(lr.latencies(false))
		}
	}
	return ratio(sums[1]-sums[0], sums[0]) * 100, nil
}

// layers is what the replay measured.
type layers struct {
	rp        *replayer
	walBytes  float64 // WAL bytes per journaled record
	recover   time.Duration
	recAlloc  uint64
	recovers  int
	internHit float64
}

// runReplay replays the workload's client sequences in-process, round-robin
// over clients on this one goroutine, for dur, after the same warm-up the
// server got. Every reply goes through the workload's oracle.
func runReplay(cfg config, in *inputs, res *result, dur time.Duration) (*layers, error) {
	rp := newReplayer()
	lay := &layers{rp: rp}
	var clients []client
	var serveErr error
	check := func(cl client, req request, class int) {
		st, body, err := rp.serve(req, class)
		if err != nil && serveErr == nil {
			serveErr = err
		}
		res.attempted++
		if err := cl.check(req, st, body); err != nil {
			res.failed++
			fmt.Fprintf(cfg.log, "wrong answer in replay: %v\n", err)
		}
	}
	dataDir := filepath.Join(cfg.workDir, "replay")
	switch {
	case in.mix != nil:
		for _, req := range in.mix.warmRequests() {
			check(&schemaClient{}, req, clsRead)
		}
		for c := 0; c < numClients; c++ {
			clients = append(clients, in.mix.newClient(c))
		}
	case in.ej != nil:
		for _, req := range in.ej.warmRequests() {
			check(&evalClient{}, req, clsRead)
		}
		for c := 0; c < numClients; c++ {
			clients = append(clients, in.ej.newClient(c))
		}
	default:
		ids, err := rp.openSessions(in.ws, dataDir, cfg.sz.snapEvery)
		if err != nil {
			rp.closeSessions()
			return nil, err
		}
		for c, id := range ids {
			clients = append(clients, in.ws.newClient(c, id, uint64(in.ws.seeds[c].edges)))
		}
	}
	// The same untimed warm-up prefix the server passes send.
	for _, cl := range clients {
		for k := 0; k < warmRequests[cfg.workload]; k++ {
			req := cl.next()
			check(cl, req, requestClass(req))
		}
	}
	rp.resetAcc()
	ih, im := obs.C("engine_intern_hits_total"), obs.C("engine_intern_misses_total")
	ih0, im0 := ih.Value(), im.Value()
	// Rounds of six requests per client keep schema-mix's blocks whole, so
	// the memo hit ratio is exactly the generated repeat share.
	for deadline := time.Now().Add(dur); time.Now().Before(deadline); {
		for _, cl := range clients {
			for k := 0; k < 6; k++ {
				req := cl.next()
				check(cl, req, requestClass(req))
			}
		}
	}
	err := serveErr
	if in.ws != nil {
		lay.internHit = ratio(float64(ih.Value()-ih0), float64(ih.Value()-ih0+im.Value()-im0))
		if err == nil {
			lay.walBytes, err = walBytesPerRecord(dataDir)
		}
		if err == nil {
			lay.recover, lay.recAlloc, lay.recovers, err = rp.timeRecover(dataDir, filepath.Join(cfg.workDir, "recover"))
		}
		rp.closeSessions()
	}
	if err != nil {
		return nil, err
	}
	res.lastTree = rp.lastTree
	return lay, nil
}

func requestClass(req request) int {
	switch {
	case req.edit:
		return clsEdit
	case req.sc != nil && !req.hot:
		return clsMiss
	}
	return clsRead
}

// readLayers are the spans a read request passes through, in path order;
// their self times plus server.unattributed_ms make up the mean read
// latency.
var readLayers = []string{
	"server.decode", "hypergraph.parse", "relation.load", "exec.load", "engine.analyze",
	"mcs.verdict", "jointree.build", "spectrum.classify", "exec.eval",
	"dynamic.settle", "dynamic.query", "server.encode",
}

// predicted is the layer each workload was designed to make dominant: on
// schema-mix among memo-hit reads, elsewhere among all reads.
var predicted = map[string]string{
	"schema-mix":     "hypergraph.parse",
	"eval-join":      "exec.eval",
	"workspace-edit": "dynamic.settle",
}

func (l *layers) report(cfg config, res *result, untracedMean float64, nUntraced int) {
	rp := l.rp
	nReads := rp.reqs[clsRead] + rp.reqs[clsMiss]
	nEdits := rp.reqs[clsEdit]
	sum := func(name string, classes ...int) (self time.Duration, alloc uint64, calls int) {
		for _, c := range classes {
			if a := rp.acc[c][name]; a != nil {
				self += a.self
				alloc += a.alloc
				calls += a.calls
			}
		}
		return
	}
	// layer reports a layer's self time as a mean per request of the
	// population it serves, and its allocation per call.
	layer := func(name string, per int, classes ...int) {
		self, alloc, calls := sum(name, classes...)
		res.add(name+"_ms", ratio(ms(self), float64(per)), "ms", calls)
		res.add(name+"_alloc_kb", ratio(float64(alloc)/1024, float64(calls)), "KiB", calls)
	}
	misses := func(k reqKind) int { return rp.kind[kindClass{k, clsMiss}] }
	nMiss := rp.reqs[clsMiss]

	layer("server.decode", nReads, clsRead, clsMiss)
	layer("hypergraph.parse", nReads, clsRead, clsMiss)
	layer("engine.analyze", nReads, clsRead, clsMiss)
	layer("mcs.verdict", nMiss, clsMiss)
	layer("jointree.build", misses(kJoinTree), clsMiss)
	layer("spectrum.classify", misses(kClassify), clsMiss)
	layer("relation.load", nReads, clsRead)
	layer("exec.load", nReads, clsRead)
	layer("exec.eval", nReads, clsRead)
	layer("dynamic.settle", nReads, clsRead)
	layer("dynamic.query", nReads, clsRead)
	layer("server.encode", nReads, clsRead, clsMiss)
	layer("dynamic.edit", nEdits, clsEdit)
	appendSelf, _, appends := sum("store.append", clsEdit)
	res.add("store.append_ms", ratio(ms(appendSelf), float64(nEdits)), "ms", appends)

	hits, total := rp.memoTotals()
	res.add("engine.memo_hit_ratio", ratio(hits, total), "ratio", int(total))
	res.add("engine.intern_hit_ratio", l.internHit, "ratio", 0)
	e := rp.exec
	per := float64(rp.reqs[clsRead])
	res.add("exec.semijoin_ms", ratio(ms(e.semijoin), per), "ms", int(per))
	res.add("exec.join_ms", ratio(ms(e.join), per), "ms", int(per))
	res.add("exec.step_wait_ms", ratio(ms(e.wait), per), "ms", int(per))
	res.add("exec.rows_in", ratio(float64(e.rowsIn), per), "count", int(per))
	res.add("exec.rows_out", ratio(float64(e.rowsOut), per), "count", int(per))
	res.add("exec.join_rows", ratio(float64(e.joinRows), per), "count", int(per))
	res.add("exec.out_rows", ratio(float64(e.outRows), per), "count", int(per))
	res.add("store.compactions", float64(rp.compacts), "count", 0)
	res.add("store.compact_ms", ratio(ms(rp.compactTime), float64(rp.compacts)), "ms", rp.compacts)
	res.add("store.disk_bytes_per_edit", l.walBytes, "bytes", 0)
	res.add("store.recover_ms", ratio(ms(l.recover), float64(l.recovers)), "ms", l.recovers)
	res.add("store.recover_alloc_kb", ratio(float64(l.recAlloc)/1024, float64(l.recovers)), "KiB", l.recovers)

	// Accounting: the read layers' self times per read request, and what
	// the untraced mean read latency leaves unexplained.
	var attributed float64
	fmt.Fprintf(cfg.log, "accounting %s: untraced mean read latency %.4f ms over %d reads; replay %d reads\n",
		cfg.workload, untracedMean, nUntraced, nReads)
	best, bestV := "", -1.0
	for _, name := range readLayers {
		self, _, _ := sum(name, clsRead, clsMiss)
		v := ratio(ms(self), float64(nReads))
		attributed += v
		if v > 0 {
			fmt.Fprintf(cfg.log, "accounting   %-20s %9.4f ms\n", name, v)
		}
		if v > bestV {
			best, bestV = name, v
		}
	}
	unattributed := untracedMean - attributed
	fmt.Fprintf(cfg.log, "accounting   %-20s %9.4f ms\n", "server.unattributed", unattributed)
	res.add("server.unattributed_ms", unattributed, "ms", nUntraced)

	want := predicted[cfg.workload]
	top, topV := best, bestV
	scope := "reads"
	if cfg.workload == "schema-mix" {
		scope = "memo-hit reads"
		top, topV = "", -1
		for _, name := range readLayers {
			self, _, _ := sum(name, clsRead)
			if v := ms(self); v > topV {
				top, topV = name, v
			}
		}
		topV = ratio(topV, float64(rp.reqs[clsRead]))
	}
	verdict := "holds"
	if top != want {
		verdict = fmt.Sprintf("does not hold: %s dominates", top)
	}
	fmt.Fprintf(cfg.log, "prediction %s: %s dominates %s -> %s (%.4f ms per request)\n",
		cfg.workload, want, scope, verdict, topV)
}

// memoTotals returns the engine memo's hits and lookups during the timed
// replay.
func (r *replayer) memoTotals() (float64, float64) {
	st := r.eng.Stats()
	hits, total := float64(st.Hits-r.memo0.Hits), float64(st.Hits-r.memo0.Hits+st.Misses-r.memo0.Misses)
	return hits, total
}
