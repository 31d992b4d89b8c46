package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"

	"repro/internal/dynamic"
	"repro/internal/exec"
	"repro/internal/hypergraph"
	"repro/internal/jointree"
	"repro/internal/obs"
	"repro/internal/spectrum"
	"repro/internal/store"
)

// Request and response shapes. Schemas travel as the library's text format
// (one edge per line; see hypergraph.Parse), data as per-object attribute
// lists plus string rows. Every body that carries a schema is read once
// into one buffer and scanned once by hand: a {"schema": ...} body by
// decodeSchema, an eval or reduce body by decodeEval, whose rows go into
// exec columns where they sit (see evalbody.go). A body of another shape
// is decoded into these structs by encoding/json over the same bytes, as
// are the workspace edit and query bodies. The schema endpoints (analyze,
// jointree, classify) hand the schema text to Engine.AnalyzeText, so a
// byte-for-byte repeat of a resident schema is answered from the memo
// without a parse; eval, reduce and workspace create parse theirs with
// parseSchema.

type schemaRequest struct {
	Schema string `json:"schema"`
}

type tableJSON struct {
	Attrs []string   `json:"attrs"`
	Rows  [][]string `json:"rows"`
}

type evalRequest struct {
	Schema string      `json:"schema"`
	Tables []tableJSON `json:"tables"`
	Attrs  []string    `json:"attrs"`
}

type stepJSON struct {
	Target int `json:"target"`
	Source int `json:"source"`
}

// decode reads the JSON request body into v. Decoding failures map to 400
// "bad_json" — except a body-cap hit, which classify turns into 413.
func decode(r *http.Request, v any) error { return decodeFrom(r.Body, v) }

// decodeFrom is decode over any reader of the body.
func decodeFrom(body io.Reader, v any) error {
	if err := json.NewDecoder(body).Decode(v); err != nil {
		var maxBytes *http.MaxBytesError
		if errors.As(err, &maxBytes) {
			return maxBytes
		}
		return &errBadJSON{err: err}
	}
	return nil
}

// decodeSchema reads a {"schema": ...} body, whose cap is limit, inside a
// server.decode span: the body is read once (readBody) and scanned once
// (scanSchema); any other shape is decoded by encoding/json over the same
// bytes. Errors are decode's.
func decodeSchema(r *http.Request, limit int64) (string, error) {
	_, sp := obs.StartSpan(r.Context(), "server.decode")
	defer sp.End()
	body, readErr := requestScratch(r).readBody(r, limit)
	sp.SetInt("bytes", int64(len(body)))
	if schema, ok := scanSchema(body); ok {
		return schema, nil
	}
	var req schemaRequest
	err := decodeFrom(&replay{b: body, err: readErr}, &req)
	return req.Schema, err
}

// parseSchema turns request text into a hypergraph inside a
// hypergraph.parse span; *hypergraph.ErrParse surfaces as 400 "parse" with
// line and column.
func parseSchema(ctx context.Context, text string) (*hypergraph.Hypergraph, error) {
	_, sp := obs.StartSpan(ctx, "hypergraph.parse")
	defer sp.End()
	sp.SetInt("bytes", int64(len(text)))
	h, _, err := hypergraph.Parse(text)
	if err == nil {
		sp.SetInt("edges", int64(h.NumEdges()))
		sp.SetInt("nodes", int64(h.NumNodes()))
	}
	return h, err
}

func (s *Server) handleAnalyze(r *http.Request) (any, error) {
	schema, err := decodeSchema(r, s.cfg.MaxBodyBytes)
	if err != nil {
		return nil, err
	}
	a, err := s.eng.AnalyzeText(r.Context(), schema)
	if err != nil {
		return nil, err
	}
	acyclic, err := a.VerdictCtx(r.Context())
	if err != nil {
		return nil, err
	}
	h := a.Hypergraph()
	return map[string]any{
		"acyclic": acyclic,
		"nodes":   h.NumNodes(),
		"edges":   h.NumEdges(),
	}, nil
}

func (s *Server) handleJoinTree(r *http.Request) (any, error) {
	schema, err := decodeSchema(r, s.cfg.MaxBodyBytes)
	if err != nil {
		return nil, err
	}
	a, err := s.eng.AnalyzeText(r.Context(), schema)
	if err != nil {
		return nil, err
	}
	jt, err := a.JoinTreeCtx(r.Context())
	if err != nil {
		return nil, err
	}
	prog, err := a.FullReducerCtx(r.Context())
	if err != nil {
		return nil, err
	}
	return map[string]any{
		"parent":  jt.Parent,
		"roots":   jt.Roots(),
		"program": stepsJSON(prog),
	}, nil
}

func (s *Server) handleClassify(r *http.Request) (any, error) {
	schema, err := decodeSchema(r, s.cfg.MaxBodyBytes)
	if err != nil {
		return nil, err
	}
	a, err := s.eng.AnalyzeText(r.Context(), schema)
	if err != nil {
		return nil, err
	}
	// The polynomial spectrum testers poll ctx in-traversal, so the request
	// deadline is the admission control — no size cap needed.
	res, err := a.SpectrumCtx(r.Context())
	if err != nil {
		return nil, err
	}
	return spectrumJSON(res), nil
}

// spectrumJSON renders a spectrum result for the wire: the four verdicts,
// the overall degree, and a summary of each certificate (the full
// elimination orders and step sequences stay server-side; counts are enough
// to tell which certificate backs a verdict).
func spectrumJSON(res *spectrum.Result) map[string]any {
	certs := map[string]any{}
	if res.Beta.Acyclic {
		certs["beta"] = map[string]any{"kind": "elimination-order", "nodes": len(res.Beta.Order)}
	} else {
		certs["beta"] = map[string]any{"kind": "nest-free-core", "nodes": len(res.Beta.Core)}
	}
	if res.Gamma.Acyclic {
		certs["gamma"] = map[string]any{"kind": "reduction-steps", "steps": len(res.Gamma.Steps)}
	} else {
		certs["gamma"] = map[string]any{
			"kind": "irreducible-core", "nodes": len(res.Gamma.CoreNodes), "edges": len(res.Gamma.CoreEdges),
		}
	}
	return map[string]any{
		"alpha": res.Alpha, "beta": res.Beta.Acyclic, "gamma": res.Gamma.Acyclic, "berge": res.Berge,
		"degree":       res.Degree.String(),
		"certificates": certs,
	}
}

// decodeEval reads a /v1/eval or /v1/reduce body, whose cap is limit: the
// envelope, the schema, and the tables, whose rows go straight from the
// request bytes into exec columns over one shared Dict. The body is read
// once (server.decode) and scanned once (exec.load, see loadEval). It
// returns the projection attributes and the database, and reports the
// first failure in this order: JSON errors (bad_json, rows that are not
// strings included, or 413 when the envelope does not end inside the
// cap), the schema (parse), the projection attributes when withAttrs is
// set (unknown_node), then the tables' own shape and their match with the
// schema (bad_request).
func decodeEval(r *http.Request, limit int64, withAttrs bool) ([]string, *exec.Database, error) {
	_, dsp := obs.StartSpan(r.Context(), "server.decode")
	sc := requestScratch(r)
	body, readErr := sc.readBody(r, limit)
	dsp.End()
	_, lsp := obs.StartSpan(r.Context(), "exec.load")
	req, tables, rejected, err := loadEval(body, readErr, sc.dict, lsp)
	lsp.End()
	if err != nil {
		return nil, nil, err
	}
	h, err := parseSchema(r.Context(), req.Schema)
	if err != nil {
		return nil, nil, err
	}
	// The executor reports unknown attributes with plain errors, but the
	// server contract is a typed 400 "unknown_node" carrying the name.
	if withAttrs {
		if _, err := h.Set(req.Attrs...); err != nil {
			return nil, nil, err
		}
	}
	if rejected != nil {
		return nil, nil, rejected
	}
	d, err := exec.NewDatabase(h, tables)
	if err != nil {
		return nil, nil, &errBadRequest{err: err}
	}
	return req.Attrs, d, nil
}

func (s *Server) handleReduce(r *http.Request) (any, error) {
	_, d, err := decodeEval(r, s.cfg.MaxBodyBytes, false)
	if err != nil {
		return nil, err
	}
	res, err := s.eng.AnalyzeCtx(r.Context(), d.Schema).Reduce(r.Context(), d)
	if err != nil {
		return nil, err
	}
	return map[string]any{
		"rowsIn":  res.RowsIn,
		"rowsOut": res.RowsOut,
		"steps":   len(res.Steps),
	}, nil
}

func (s *Server) handleEval(r *http.Request) (any, error) {
	attrs, d, err := decodeEval(r, s.cfg.MaxBodyBytes, true)
	if err != nil {
		return nil, err
	}
	res, err := s.eng.AnalyzeCtx(r.Context(), d.Schema).Eval(r.Context(), d, attrs)
	if err != nil {
		return nil, err
	}
	return evalReply{
		Attrs:    res.Out.Attrs(),
		JoinRows: res.JoinRows,
		Rows:     replyRows(res.Out),
		RowsIn:   res.Reduce.RowsIn,
		RowsOut:  res.Reduce.RowsOut,
	}, nil
}

// evalReply is /v1/eval's reply. Its fields are in the order encoding/json
// writes the keys of a map, so its bytes are those of the map[string]any
// the other replies are, without the map or the boxed values.
type evalReply struct {
	Attrs    []string   `json:"attrs"`
	JoinRows int        `json:"joinRows"`
	Rows     [][]string `json:"rows"`
	RowsIn   int        `json:"rowsIn"`
	RowsOut  int        `json:"rowsOut"`
}

// replyRows renders a result table's rows for the wire, sorted
// lexicographically over the sorted attributes. Every row is cut from one
// backing slice of cells.
func replyRows(t *exec.Table) [][]string {
	w := t.NumAttrs()
	rows, cells := make([][]string, t.NumRows()), make([]string, t.NumRows()*w)
	for r := range rows {
		row := cells[r*w : (r+1)*w : (r+1)*w]
		for c := range row {
			row[c] = t.Value(r, c)
		}
		rows[r] = row
	}
	slices.SortFunc(rows, slices.Compare)
	return rows
}

// Workspace sessions. POST /v1/workspaces creates one (optionally seeded
// with a schema); the id routes edits and epoch-pinned queries to it. The
// registry holds one session record per id and is never pruned — sessions
// live until the process exits, which matches the tool's
// interactive-session lifetime; a delete path or an idle TTL would drop the
// record, and with it the workspace, its durable backing and its memo.

// Query-memo metrics, visible on /metricsz: one hit or one miss per query
// of a memoized op.
var (
	respCacheHits   = obs.C("server_respcache_hits_total")
	respCacheMisses = obs.C("server_respcache_misses_total")
)

// memoOps are the query ops whose reply a session memoizes: bodies that are
// a pure function of the workspace at one epoch and cost real work to
// build. "verdict" is a two-field body, cheaper to build than to look up;
// "snapshot" bodies can be arbitrarily large relative to their reuse.
var memoOps = [...]string{"jointree", "fullreducer", "classification"}

// session is one workspace session: the workspace, its durable backing (nil
// when memory-only) and the memoized reply bytes of the newest epoch it
// answered, one slot per memoOps entry. A query answers only the current
// epoch, so bodies of an older one are never read again: a newer epoch's
// first body clears them, and an older handle's body never replaces a
// newer epoch's. Bodies are written to the wire verbatim — the jointree
// body as jointreeJSON appended it, the others as json.Marshal made them.
type session struct {
	ws    *dynamic.Workspace
	store *store.Session

	mu     sync.Mutex // guards epoch and bodies
	epoch  uint64
	bodies [len(memoOps)]json.RawMessage
}

// memo returns the body memoized for slot at epoch, or nil.
func (sn *session) memo(epoch uint64, slot int) json.RawMessage {
	if slot < 0 {
		return nil
	}
	sn.mu.Lock()
	defer sn.mu.Unlock()
	if epoch != sn.epoch {
		return nil
	}
	return sn.bodies[slot]
}

// remember memoizes body for slot at epoch, unless the session already
// holds a newer epoch's bodies.
func (sn *session) remember(epoch uint64, slot int, body json.RawMessage) {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	switch {
	case epoch < sn.epoch:
		return
	case epoch > sn.epoch:
		sn.epoch, sn.bodies = epoch, [len(memoOps)]json.RawMessage{}
	}
	sn.bodies[slot] = body
}

func (s *Server) handleWorkspaceCreate(r *http.Request) (any, error) {
	// An empty body is a valid "empty workspace" request; anything else
	// malformed is still a 400.
	schema, err := decodeSchema(r, s.cfg.MaxBodyBytes)
	if err != nil && !errors.Is(err, io.EOF) {
		return nil, err
	}
	var seed *hypergraph.Hypergraph
	if schema != "" {
		h, err := parseSchema(r.Context(), schema)
		if err != nil {
			return nil, err
		}
		seed = h
	}

	// Reserve the id first: durable sessions need it for their directory.
	s.mu.Lock()
	s.nextWS++
	id := fmt.Sprintf("ws-%d", s.nextWS)
	s.mu.Unlock()

	rec := &session{}
	if s.cfg.DataDir != "" {
		rec.store, rec.ws, err = store.Create(filepath.Join(s.cfg.DataDir, id), s.storeOptions(), s.wsOptions()...)
		if err != nil {
			return nil, fmt.Errorf("create session %s: %w", id, err)
		}
	} else {
		rec.ws = dynamic.New(s.wsOptions()...)
	}
	if seed != nil {
		// Seed edges ride the normal edit path so durable sessions journal
		// them; an in-memory NewFrom would bypass the WAL.
		if err := seedWorkspace(rec.ws, seed); err != nil {
			if rec.store != nil {
				rec.store.Close()
				os.RemoveAll(rec.store.Dir())
			}
			return nil, &errBadRequest{err: err}
		}
	}

	s.mu.Lock()
	s.spaces[id] = rec
	s.mu.Unlock()
	return map[string]any{"id": id, "epoch": rec.ws.Epoch()}, nil
}

// seedWorkspace replays a parsed schema into a fresh workspace edge by edge.
func seedWorkspace(ws *dynamic.Workspace, h *hypergraph.Hypergraph) error {
	for i := 0; i < h.NumEdges(); i++ {
		if _, err := ws.AddEdge(h.EdgeNodes(i)...); err != nil {
			return fmt.Errorf("seed edge %d: %w", i, err)
		}
	}
	return nil
}

// workspace returns the session the request's {id} names.
func (s *Server) workspace(r *http.Request) (*session, error) {
	id := r.PathValue("id")
	s.mu.Lock()
	rec := s.spaces[id]
	s.mu.Unlock()
	if rec == nil {
		return nil, fmt.Errorf("%w: %q", errUnknownWorkspace, id)
	}
	return rec, nil
}

func (s *Server) handleWorkspaceGet(r *http.Request) (any, error) {
	rec, err := s.workspace(r)
	if err != nil {
		return nil, err
	}
	a, err := rec.ws.AnalysisCtx(r.Context())
	if err != nil {
		return nil, err
	}
	return map[string]any{
		"epoch":      a.Epoch(),
		"edges":      a.NumEdges(),
		"nodes":      a.NumNodes(),
		"components": a.NumComponents(),
		"acyclic":    a.Verdict(),
	}, nil
}

type addEdgeRequest struct {
	Nodes []string `json:"nodes"`
}

func (s *Server) handleAddEdge(r *http.Request) (any, error) {
	rec, err := s.workspace(r)
	if err != nil {
		return nil, err
	}
	var req addEdgeRequest
	if err := decode(r, &req); err != nil {
		return nil, err
	}
	id, err := rec.ws.AddEdge(req.Nodes...)
	if err != nil {
		// AddEdge only fails validation (no nodes, empty names): client error.
		return nil, &errBadRequest{err: err}
	}
	return map[string]any{"edge": id, "epoch": rec.ws.Epoch()}, nil
}

func (s *Server) handleRemoveEdge(r *http.Request) (any, error) {
	rec, err := s.workspace(r)
	if err != nil {
		return nil, err
	}
	eid, err := strconv.Atoi(r.PathValue("edge"))
	if err != nil {
		return nil, &errBadRequest{err: fmt.Errorf("edge id %q is not a number", r.PathValue("edge"))}
	}
	if err := rec.ws.RemoveEdge(eid); err != nil {
		return nil, err // *ErrUnknownEdge -> 404
	}
	return map[string]any{"epoch": rec.ws.Epoch()}, nil
}

type renameRequest struct {
	Old string `json:"old"`
	New string `json:"new"`
}

func (s *Server) handleRename(r *http.Request) (any, error) {
	rec, err := s.workspace(r)
	if err != nil {
		return nil, err
	}
	var req renameRequest
	if err := decode(r, &req); err != nil {
		return nil, err
	}
	if req.New == "" {
		return nil, &errBadRequest{err: errors.New("rename target must be non-empty")}
	}
	if err := rec.ws.RenameNode(req.Old, req.New); err != nil {
		return nil, err // *ErrUnknownNode -> 400, *ErrNodeExists -> 409
	}
	return map[string]any{"epoch": rec.ws.Epoch()}, nil
}

type queryRequest struct {
	Op string `json:"op"`
	// Epoch, when set, pins the query to that workspace epoch: a workspace
	// that has been edited past it answers 409 "stale_epoch" with both
	// epochs instead of silently serving newer state.
	Epoch *uint64 `json:"epoch,omitempty"`
}

// handleQuery answers a query at the workspace's current epoch. An edit
// that lands while the reply is built makes the handle stale: a pinned
// query answers 409 "stale_epoch", an unpinned one is answered again on a
// fresh handle until its deadline. A memoized op's body is built outside
// the session's lock and memoized under the epoch it was built at, so a
// hit can never serve stale state.
func (s *Server) handleQuery(r *http.Request) (any, error) {
	rec, err := s.workspace(r)
	if err != nil {
		return nil, err
	}
	var req queryRequest
	if err := decode(r, &req); err != nil {
		return nil, err
	}
	slot := slices.Index(memoOps[:], req.Op)
	for {
		a, err := rec.ws.AnalysisCtx(r.Context())
		if err != nil {
			return nil, err
		}
		if req.Epoch != nil && *req.Epoch != a.Epoch() {
			return nil, &dynamic.ErrStaleEpoch{Handle: *req.Epoch, Current: a.Epoch()}
		}
		if body := rec.memo(a.Epoch(), slot); body != nil {
			respCacheHits.Inc()
			return body, nil
		}
		res, err := s.queryBody(r, a, req.Op)
		var stale *dynamic.ErrStaleEpoch
		if req.Epoch == nil && errors.As(err, &stale) {
			if err := r.Context().Err(); err != nil {
				return nil, err
			}
			continue
		}
		if slot < 0 {
			return res, err
		}
		respCacheMisses.Inc()
		if err != nil {
			return nil, err
		}
		body, ok := res.(json.RawMessage) // already wire bytes: memoized as they are
		if !ok {
			if body, err = json.Marshal(res); err != nil {
				return res, nil // unmarshallable body; serve it anyway
			}
		}
		rec.remember(a.Epoch(), slot, body)
		return body, nil
	}
}

// queryBody builds the response body for one query op against a settled
// analysis handle. The jointree body is appended by hand (jointreeJSON)
// from the handle's parent links, so the read builds no hypergraph.
func (s *Server) queryBody(r *http.Request, a *dynamic.Analysis, op string) (any, error) {
	switch op {
	case "verdict":
		return map[string]any{"epoch": a.Epoch(), "acyclic": a.Verdict()}, nil
	case "jointree":
		parent, err := a.Parent()
		if err != nil {
			return nil, err
		}
		return jointreeJSON(a.Epoch(), parent), nil
	case "fullreducer":
		prog, err := a.FullReducer()
		if err != nil {
			return nil, err
		}
		return map[string]any{"epoch": a.Epoch(), "program": stepsJSON(prog)}, nil
	case "classification":
		res, err := a.Spectrum(r.Context())
		if err != nil {
			return nil, err
		}
		return map[string]any{
			"epoch": a.Epoch(),
			"alpha": res.Alpha, "beta": res.Beta.Acyclic, "gamma": res.Gamma.Acyclic, "berge": res.Berge,
			"degree": res.Degree.String(),
		}, nil
	case "snapshot":
		h, err := a.Snapshot()
		if err != nil {
			return nil, err
		}
		return map[string]any{"epoch": a.Epoch(), "edges": h.EdgeLists()}, nil
	}
	return nil, &errBadRequest{err: fmt.Errorf("unknown op %q", op)}
}

// handleWatch is the epoch long-poll: GET /v1/workspaces/{id}/watch?after=N
// parks until the workspace's epoch exceeds N (default: its epoch at
// arrival) or the request deadline expires. Both outcomes are 200s — a
// timeout answers {"changed": false} so pollers distinguish "nothing
// happened" from errors and immediately re-arm with the same cursor.
func (s *Server) handleWatch(r *http.Request) (any, error) {
	rec, err := s.workspace(r)
	if err != nil {
		return nil, err
	}
	ws := rec.ws
	after := ws.Epoch()
	if q := r.URL.Query().Get("after"); q != "" {
		n, err := strconv.ParseUint(q, 10, 64)
		if err != nil {
			return nil, &errBadRequest{err: fmt.Errorf("after=%q is not an epoch", q)}
		}
		after = n
	}
	select {
	case <-ws.EpochChanged(after):
		return map[string]any{"changed": true, "epoch": ws.Epoch()}, nil
	case <-r.Context().Done():
		// Deadline expiry is the long-poll's normal idle outcome, not a 408.
		return map[string]any{"changed": false, "epoch": ws.Epoch()}, nil
	}
}

// jointreeJSON appends the jointree query body — the bytes json.Marshal
// writes for map{"epoch": epoch, "parent": parent, "roots": the root
// positions}: keys in sorted order, "parent" a (possibly empty) array, and
// "roots" null when no edge is a root, as Marshal writes a nil slice.
func jointreeJSON(epoch uint64, parent []int) json.RawMessage {
	b := make([]byte, 0, 48+6*len(parent))
	b = append(b, `{"epoch":`...)
	b = strconv.AppendUint(b, epoch, 10)
	b = append(b, `,"parent":[`...)
	for i, p := range parent {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(p), 10)
	}
	b = append(b, `],"roots":`...)
	sep := byte('[')
	for i, p := range parent {
		if p == -1 {
			b = append(b, sep)
			b = strconv.AppendInt(b, int64(i), 10)
			sep = ','
		}
	}
	if sep == '[' {
		b = append(b, "null"...)
	} else {
		b = append(b, ']')
	}
	return append(b, '}')
}

func stepsJSON(prog []jointree.SemijoinStep) []stepJSON {
	out := make([]stepJSON, len(prog))
	for i, s := range prog {
		out[i] = stepJSON{Target: s.Target, Source: s.Source}
	}
	return out
}
