package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/dynamic"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/hypergraph"
	"repro/internal/jointree"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/spectrum"
	"repro/internal/store"
)

// Request classes the replay accounts separately: reads that hit the memo
// (or have no memo to miss), schema-mix reads that miss it, and workspace
// edits.
const (
	clsRead = iota
	clsMiss
	clsEdit
	numClasses
)

type kindClass struct {
	kind  reqKind
	class int
}

type layerAcc struct {
	self  time.Duration
	alloc uint64
	calls int
}

// replayer re-runs a workload's request sequences in-process, on one
// goroutine, through the same public layer functions hgserved calls, with
// a benchmark-owned span around each call.
type replayer struct {
	ctx  context.Context
	rec  *recorder
	eng  *engine.Engine
	acc  [numClasses]map[string]*layerAcc
	reqs [numClasses]int
	kind map[kindClass]int // requests per kind and class

	exec  execTotals
	memo0 engine.Stats // memo counters when the timed replay began

	// workspace-edit state: sessions by id, and per session the latest
	// entry of the epoch-keyed reply cache hgserved keeps for jointree
	// queries (epochs only move forward, so older entries never hit again).
	spaces map[string]*dynamic.Workspace
	stores map[string]*store.Session
	cache  map[string]cachedReply

	// Compaction: hgserved compacts a session in the background once
	// snapEvery records follow its last snapshot. The replay compacts
	// synchronously between requests instead, so no background work runs
	// while a request's spans are open.
	snapEvery   int
	walRecords  map[string]int // records since each session's last compaction
	compacts    int            // compactions since resetAcc
	compactTime time.Duration

	lastTree []spanRec // the most recent request's span tree, for the self-test
}

type cachedReply struct {
	key  string
	body []byte
}

type execTotals struct {
	semijoin, wait, join               time.Duration
	rowsIn, rowsOut, joinRows, outRows int
}

func newReplayer() *replayer {
	r := &replayer{
		ctx:        context.Background(),
		rec:        newRecorder(),
		eng:        engine.New(), // the server's defaults: GOMAXPROCS workers, unkeyed memo
		kind:       map[kindClass]int{},
		spaces:     map[string]*dynamic.Workspace{},
		stores:     map[string]*store.Session{},
		cache:      map[string]cachedReply{},
		walRecords: map[string]int{},
	}
	r.resetAcc()
	return r
}

func (r *replayer) resetAcc() {
	for c := range r.acc {
		r.acc[c] = map[string]*layerAcc{}
		r.reqs[c] = 0
	}
	clear(r.kind)
	r.exec = execTotals{}
	r.memo0 = r.eng.Stats()
	r.compacts, r.compactTime = 0, 0
}

// call runs f inside a span named name under parent.
func (r *replayer) call(name string, parent int, f func() error) error {
	id := r.rec.begin(name, parent)
	err := f()
	r.rec.end(id)
	return err
}

// serve runs one request through the layers and returns the status and
// body hgserved would have sent, so the workload's own oracle can check it.
// A compaction the request makes due runs after its span tree is closed.
func (r *replayer) serve(req request, class int) (int, []byte, error) {
	r.rec.reset()
	root := r.rec.begin("request", -1)
	var status int
	var body bytes.Buffer
	var resp any
	err := r.dispatch(req, root, &resp)
	if err != nil {
		status, resp = errorReply(err)
	} else {
		status = 200
	}
	_ = r.call("server.encode", root, func() error {
		if build, ok := resp.(func() any); ok {
			resp = build()
		}
		return json.NewEncoder(&body).Encode(resp)
	})
	r.rec.end(root)
	r.account(req, class)
	return status, body.Bytes(), r.compactDue()
}

// compactDue compacts every session that has reached snapEvery records
// since its last compaction, each in a store.compact span tree of its own.
func (r *replayer) compactDue() error {
	for id, n := range r.walRecords {
		if n < r.snapEvery {
			continue
		}
		r.rec.reset()
		sp := r.rec.begin("store.compact", -1)
		err := r.stores[id].Compact()
		r.rec.end(sp)
		if err != nil {
			return err
		}
		r.walRecords[id] = 0
		r.compacts++
		r.compactTime += r.rec.spans[sp].end.Sub(r.rec.spans[sp].start)
	}
	return nil
}

// account folds the request's span tree into the per-layer totals.
func (r *replayer) account(req request, class int) {
	selfs := selfTimes(r.rec.spans)
	for i, s := range r.rec.spans {
		if s.parent < 0 {
			continue // the root's self time is replay glue, not a layer
		}
		a := r.acc[class][s.name]
		if a == nil {
			a = &layerAcc{}
			r.acc[class][s.name] = a
		}
		a.self += selfs[i]
		a.alloc += s.allocBytes
		a.calls++
	}
	r.reqs[class]++
	r.kind[kindClass{req.kind, class}]++
	r.lastTree = append(r.lastTree[:0], r.rec.spans...)
}

// errorReply renders the error envelope for the failures the workloads
// expect (a cyclic schema on /v1/jointree); anything else is a 500.
func errorReply(err error) (int, any) {
	type body struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	}
	if errors.Is(err, hypergraph.ErrCyclic) {
		return 422, map[string]any{"error": body{"cyclic", err.Error()}}
	}
	return 500, map[string]any{"error": body{"internal", err.Error()}}
}

func decodeBody(b []byte, v any) error { return json.NewDecoder(bytes.NewReader(b)).Decode(v) }

func (r *replayer) dispatch(req request, root int, resp *any) error {
	switch req.kind {
	case kAnalyze, kJoinTree, kClassify:
		return r.schemaRequest(req, root, resp)
	case kEval:
		return r.evalRequest(req, root, resp)
	default:
		return r.workspaceRequest(req, root, resp)
	}
}

func (r *replayer) parse(text string, root int) (*hypergraph.Hypergraph, error) {
	var h *hypergraph.Hypergraph
	err := r.call("hypergraph.parse", root, func() (err error) {
		h, _, err = hypergraph.Parse(text)
		return err
	})
	return h, err
}

func (r *replayer) analyze(h *hypergraph.Hypergraph, root int) *analysis.Analysis {
	var a *analysis.Analysis
	_ = r.call("engine.analyze", root, func() error { a = r.eng.AnalyzeCtx(r.ctx, h); return nil })
	return a
}

func (r *replayer) schemaRequest(req request, root int, resp *any) error {
	var in struct {
		Schema string `json:"schema"`
	}
	if err := r.call("server.decode", root, func() error { return decodeBody(req.body, &in) }); err != nil {
		return err
	}
	h, err := r.parse(in.Schema, root)
	if err != nil {
		return err
	}
	a := r.analyze(h, root)
	// The α verdict is its own facet; every endpoint needs it first, so
	// timing it apart splits MCS from the facet built on top of it.
	var acyclic bool
	if err := r.call("mcs.verdict", root, func() (err error) { acyclic, err = a.VerdictCtx(r.ctx); return err }); err != nil {
		return err
	}
	switch req.kind {
	case kAnalyze:
		*resp = map[string]any{"acyclic": acyclic, "nodes": h.NumNodes(), "edges": h.NumEdges()}
	case kJoinTree:
		var jt *jointree.JoinTree
		var prog []jointree.SemijoinStep
		err := r.call("jointree.build", root, func() (err error) {
			if jt, err = a.JoinTreeCtx(r.ctx); err != nil {
				return err
			}
			prog, err = a.FullReducerCtx(r.ctx)
			return err
		})
		if err != nil {
			return err
		}
		*resp = map[string]any{"parent": jt.Parent, "roots": jt.Roots(), "program": stepsJSON(prog)}
	case kClassify:
		var res *spectrum.Result
		if err := r.call("spectrum.classify", root, func() (err error) { res, err = a.SpectrumCtx(r.ctx); return err }); err != nil {
			return err
		}
		*resp = spectrumReply(res)
	}
	return nil
}

type stepJSON struct {
	Target int `json:"target"`
	Source int `json:"source"`
}

func stepsJSON(prog []jointree.SemijoinStep) []stepJSON {
	out := make([]stepJSON, len(prog))
	for i, s := range prog {
		out[i] = stepJSON{Target: s.Target, Source: s.Source}
	}
	return out
}

// spectrumReply is the /v1/classify body: verdicts, degree and a summary of
// each certificate.
func spectrumReply(res *spectrum.Result) map[string]any {
	certs := map[string]any{}
	if res.Beta.Acyclic {
		certs["beta"] = map[string]any{"kind": "elimination-order", "nodes": len(res.Beta.Order)}
	} else {
		certs["beta"] = map[string]any{"kind": "nest-free-core", "nodes": len(res.Beta.Core)}
	}
	if res.Gamma.Acyclic {
		certs["gamma"] = map[string]any{"kind": "reduction-steps", "steps": len(res.Gamma.Steps)}
	} else {
		certs["gamma"] = map[string]any{"kind": "irreducible-core", "nodes": len(res.Gamma.CoreNodes), "edges": len(res.Gamma.CoreEdges)}
	}
	return map[string]any{
		"alpha": res.Alpha, "beta": res.Beta.Acyclic, "gamma": res.Gamma.Acyclic, "berge": res.Berge,
		"degree": res.Degree.String(), "certificates": certs,
	}
}

func (r *replayer) evalRequest(req request, root int, resp *any) error {
	var in evalBody
	if err := r.call("server.decode", root, func() error { return decodeBody(req.body, &in) }); err != nil {
		return err
	}
	h, err := r.parse(in.Schema, root)
	if err != nil {
		return err
	}
	rels := make([]*relation.Relation, len(in.Tables))
	err = r.call("relation.load", root, func() (err error) {
		for i, t := range in.Tables {
			if rels[i], err = relation.New(t.Attrs, t.Rows...); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	var d *exec.Database
	if err := r.call("exec.load", root, func() (err error) { d, err = exec.FromRelations(h, rels); return err }); err != nil {
		return err
	}
	a := r.analyze(h, root)
	var res *exec.EvalResult
	if err := r.call("exec.eval", root, func() (err error) { res, err = a.Eval(r.ctx, d, in.Attrs); return err }); err != nil {
		return err
	}
	t := &r.exec
	for _, s := range res.Reduce.Steps {
		t.semijoin += s.Elapsed
		t.wait += s.Wait
	}
	t.join += res.Elapsed - res.Reduce.Elapsed
	t.rowsIn += res.Reduce.RowsIn
	t.rowsOut += res.Reduce.RowsOut
	t.joinRows += res.JoinRows
	t.outRows += res.Out.NumRows()
	// Rendering the reply (table back to rows) is charged to encode: serve
	// calls this inside the encode span.
	*resp = func() any {
		return map[string]any{
			"attrs": res.Out.Attrs(), "rows": res.Out.ToRelation().Rows(),
			"joinRows": res.JoinRows, "rowsIn": res.Reduce.RowsIn, "rowsOut": res.Reduce.RowsOut,
		}
	}
	return nil
}

// ---------------------------------------------------------------- workspaces

var appendHist = obs.H("store_append_seconds")

// openSessions creates one durable session per seed under dir and seeds it
// edge by edge, the way hgserved seeds POST /v1/workspaces, then compacts
// and settles it. Automatic compaction is off: compactDue compacts every
// snapEvery records.
func (r *replayer) openSessions(w *workspaceEdit, dir string, snapEvery int) ([]string, error) {
	r.snapEvery = snapEvery
	var ids []string
	for c, s := range w.seeds {
		id := fmt.Sprintf("ws-%d", c+1)
		sess, ws, err := store.Create(filepath.Join(dir, id), store.Options{SnapshotEvery: -1},
			dynamic.WithEngine(r.eng), dynamic.WithParallelism(0))
		if err != nil {
			return nil, err
		}
		r.stores[id] = sess
		h, _, err := hypergraph.Parse(s.text)
		if err != nil {
			return nil, err
		}
		for i := 0; i < h.NumEdges(); i++ {
			if _, err := ws.AddEdge(h.EdgeNodes(i)...); err != nil {
				return nil, err
			}
		}
		if err := sess.Compact(); err != nil {
			return nil, err
		}
		if _, err := ws.AnalysisCtx(r.ctx); err != nil {
			return nil, err
		}
		r.spaces[id] = ws
		ids = append(ids, id)
	}
	return ids, nil
}

func (r *replayer) closeSessions() {
	for _, s := range r.stores {
		_ = s.Close() // the replay's data directory is deleted next
	}
	clear(r.stores)
}

func (r *replayer) workspaceRequest(req request, root int, resp *any) error {
	rest := strings.TrimPrefix(req.path, "/v1/workspaces/")
	id, tail, _ := strings.Cut(rest, "/")
	ws := r.spaces[id]
	if ws == nil {
		return fmt.Errorf("unknown workspace %q", id)
	}
	switch req.kind {
	case kWSAdd:
		var in struct {
			Nodes []string `json:"nodes"`
		}
		if err := r.call("server.decode", root, func() error { return decodeBody(req.body, &in) }); err != nil {
			return err
		}
		var eid int
		if err := r.edit(root, func() (err error) { eid, err = ws.AddEdge(in.Nodes...); return err }); err != nil {
			return err
		}
		r.walRecords[id]++
		*resp = map[string]any{"edge": eid, "epoch": ws.Epoch()}
		return nil
	case kWSRemove:
		eid, err := strconv.Atoi(strings.TrimPrefix(tail, "edges/"))
		if err != nil {
			return err
		}
		if err := r.edit(root, func() error { return ws.RemoveEdge(eid) }); err != nil {
			return err
		}
		r.walRecords[id]++
		*resp = map[string]any{"epoch": ws.Epoch()}
		return nil
	}
	var in struct {
		Op    string  `json:"op"`
		Epoch *uint64 `json:"epoch"`
	}
	if err := r.call("server.decode", root, func() error { return decodeBody(req.body, &in) }); err != nil {
		return err
	}
	var a *dynamic.Analysis
	if err := r.call("dynamic.settle", root, func() (err error) { a, err = ws.AnalysisCtx(r.ctx); return err }); err != nil {
		return err
	}
	if in.Epoch != nil && *in.Epoch != a.Epoch() {
		return &dynamic.ErrStaleEpoch{Handle: *in.Epoch, Current: a.Epoch()}
	}
	switch in.Op {
	case "verdict":
		*resp = map[string]any{"epoch": a.Epoch(), "acyclic": a.Verdict()}
		return nil
	case "jointree":
	default:
		return fmt.Errorf("replay: query op %q is not in any workload", in.Op)
	}
	key := fmt.Sprintf("%s@%d:%s", id, a.Epoch(), in.Op)
	if c := r.cache[id]; c.key == key {
		*resp = json.RawMessage(c.body)
		return nil
	}
	var jt *jointree.JoinTree
	if err := r.call("dynamic.query", root, func() (err error) { jt, err = a.JoinTree(); return err }); err != nil {
		return err
	}
	// hgserved marshals a cacheable body once, stores it, and encodes the
	// stored bytes; the first marshal is part of encoding.
	var body []byte
	err := r.call("server.encode", root, func() (err error) {
		body, err = json.Marshal(map[string]any{"epoch": a.Epoch(), "parent": jt.Parent, "roots": jt.Roots()})
		return err
	})
	if err != nil {
		return err
	}
	r.cache[id] = cachedReply{key, body}
	*resp = json.RawMessage(body)
	return nil
}

// edit runs a workspace edit in a dynamic.edit span, with the WAL append
// inside it (read from the store's own latency histogram) as a child span
// closing the edit.
func (r *replayer) edit(root int, f func() error) error {
	before := appendHist.SumNs()
	id := r.rec.begin("dynamic.edit", root)
	err := f()
	r.rec.end(id)
	if d := time.Duration(appendHist.SumNs() - before); d > 0 {
		s := r.rec.spans[id]
		r.rec.spans = append(r.rec.spans, spanRec{name: "store.append", parent: id, start: s.end.Add(-d), end: s.end})
	}
	return err
}

// walBytesPerRecord is the WAL's size over the records it holds, across
// the replay's sessions.
func walBytesPerRecord(dir string) (float64, error) {
	var size int64
	var records int
	paths, _ := filepath.Glob(filepath.Join(dir, "*", store.WALFile)) // the pattern is well-formed
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			return 0, err
		}
		size += fi.Size()
		if _, err := store.ScanWAL(p, func(dynamic.JournalRecord) error { records++; return nil }); err != nil {
			return 0, err
		}
	}
	return ratio(float64(size), float64(records)), nil
}

// timeRecover copies each session directory and times store.Open on the
// copy, with its allocation.
func (r *replayer) timeRecover(dataDir, scratch string) (time.Duration, uint64, int, error) {
	dirs, _ := filepath.Glob(filepath.Join(dataDir, "ws-*")) // the pattern is well-formed
	var total time.Duration
	var alloc uint64
	for i, d := range dirs {
		cp := filepath.Join(scratch, fmt.Sprintf("copy-%d", i))
		if err := copyDir(d, cp); err != nil {
			return 0, 0, 0, err
		}
		a0 := r.rec.heapAllocs()
		t0 := time.Now()
		sess, _, err := store.Open(cp, store.Options{SnapshotEvery: -1}, dynamic.WithEngine(engine.New()))
		total += time.Since(t0)
		alloc += r.rec.heapAllocs() - a0
		if err != nil {
			return 0, 0, 0, err
		}
		_ = sess.Close() // a throwaway copy
	}
	return total, alloc, len(dirs), nil
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		in, err := os.Open(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		out, err := os.Create(filepath.Join(dst, e.Name()))
		if err != nil {
			in.Close()
			return err
		}
		_, err = io.Copy(out, in)
		in.Close()
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}
