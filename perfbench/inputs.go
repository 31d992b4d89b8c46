package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"repro/internal/gen"
	"repro/internal/gyo"
	"repro/internal/hypergraph"
	"repro/internal/relation"
)

// sizes fixes the input sizes of every workload. The benchmark runs
// fullSizes; the self-tests run a tiny copy through the same code.
type sizes struct {
	schemaEdges  int // edges per schema-mix schema
	hotSchemas   int // the hot set half of schema-mix requests repeat
	evalDatasets int // seeded eval-join datasets
	evalRowsMin  int // rows per eval-join object, inclusive range
	evalRowsMax  int
	evalDomain   int // distinct values per eval-join join attribute
	evalLeafDom  int // distinct values per eval-join leaf attribute (G, H, I, J)
	chainComps   int // small chain components per workspace session
	chainEdges   int // edges per chain component
	bigEdges     int // edges of the one large workspace component
	snapEvery    int // hgserved -snap-every on workspace-edit
}

var fullSizes = sizes{
	schemaEdges: 500, hotSchemas: 64,
	evalDatasets: 16, evalRowsMin: 2000, evalRowsMax: 3000, evalDomain: 400, evalLeafDom: 12,
	chainComps: 31, chainEdges: 6, bigEdges: 3000, snapEvery: 256,
}

// reqKind names what a request asks, so the replay can run the same call
// path in-process and the oracle knows what to expect.
type reqKind int

const (
	kAnalyze reqKind = iota
	kJoinTree
	kClassify
	kEval
	kWSAdd
	kWSRemove
	kWSVerdict
	kWSJoinTree
	kWSJoinTreePinned
)

var schemaPaths = [...]string{kAnalyze: "/v1/analyze", kJoinTree: "/v1/jointree", kClassify: "/v1/classify"}

// request is one generated HTTP request plus what the oracle needs to judge
// its reply. hgserved sees only method, path and body.
type request struct {
	kind   reqKind
	method string
	path   string
	body   []byte
	edit   bool        // a workspace edit: timed as edit latency, not read latency
	hot    bool        // schema-mix: repeats a hot schema, so the memo hits
	sc     *schemaCase // schema-mix: the schema's known answers
	ec     *evalCase   // eval-join: the dataset's known answers
}

// client is one closed-loop caller: a fixed, seeded request sequence and
// the oracle that checks each reply. check may advance state that the next
// request depends on (workspace edge ids and epochs).
type client interface {
	next() request
	check(req request, status int, body []byte) error
}

func newRand(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream))
}

// ---------------------------------------------------------------- schema-mix

// schemaCase is one hot schema with the answers its generator family fixes.
type schemaCase struct {
	family                    string // alpha, gamma or cyclic
	edges                     [][]string
	nodes                     int
	alpha, beta, gamma, berge bool
	degree                    string // expected /v1/classify degree
	hotBody                   []byte
}

// body renders {"schema": ...} with every node name prefixed; an empty
// prefix gives the hot schema itself, a fresh prefix a relabeling with the
// same shape that the memo has never seen.
func (s *schemaCase) body(prefix string) []byte {
	var b bytes.Buffer
	b.WriteString(`{"schema":"`)
	for i, e := range s.edges {
		if i > 0 {
			b.WriteString(`\n`)
		}
		for j, n := range e {
			if j > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(prefix)
			b.WriteString(n)
		}
	}
	b.WriteString(`"}`)
	return b.Bytes()
}

type schemaMix struct {
	seed int64
	hot  []*schemaCase
}

// newSchemaMix draws the hot set from three generator families whose
// answers are known by construction:
//   - alpha: gen.RandomAcyclic plus a planted triangle inside one edge —
//     still α-acyclic (the triangle's edges are contained in that edge) but
//     β-cyclic (the triangle alone is a cycle), so the degree is exactly α;
//   - gamma: gen.GammaAcyclic, γ-acyclic by construction; whether it is
//     also Berge-acyclic is decided by an incidence-graph forest check here;
//   - cyclic: gen.Random, redrawn until GYO reports it cyclic.
func newSchemaMix(seed int64, sz sizes) (*schemaMix, error) {
	m := &schemaMix{seed: seed}
	for j := 0; j < sz.hotSchemas; j++ {
		rng := newRand(seed, int64(j))
		sc := &schemaCase{}
		switch j % 3 {
		case 0:
			h := gen.RandomAcyclic(rng, gen.RandomSpec{Edges: sz.schemaEdges - 3, MinArity: 3, MaxArity: 5})
			edges := h.EdgeLists()
			x, y, z := edges[0][0], edges[0][1], edges[0][2]
			edges = append(edges, []string{x, y}, []string{y, z}, []string{x, z})
			*sc = schemaCase{family: "alpha", edges: edges, alpha: true, degree: "alpha-acyclic"}
		case 1:
			h := gen.GammaAcyclic(rng, sz.schemaEdges, sz.schemaEdges*4/5)
			edges := h.EdgeLists()
			for _, e := range edges {
				for k := range e {
					e[k] = "g" + e[k]
				}
			}
			berge := bergeAcyclic(edges)
			deg := "gamma-acyclic"
			if berge {
				deg = "berge-acyclic"
			}
			*sc = schemaCase{family: "gamma", edges: edges, alpha: true, beta: true, gamma: true, berge: berge, degree: deg}
		default:
			var h *hypergraph.Hypergraph
			for h == nil || gyo.IsAcyclic(h) {
				h = gen.Random(rng, gen.RandomSpec{Nodes: sz.schemaEdges * 7 / 10, Edges: sz.schemaEdges, MinArity: 2, MaxArity: 4})
			}
			*sc = schemaCase{family: "cyclic", edges: h.EdgeLists(), degree: "cyclic"}
		}
		sc.nodes = countNodes(sc.edges)
		// The α verdict of every family is re-derived with GYO, an
		// algorithm independent of the MCS engine the server runs.
		if got := gyo.IsAcyclic(hypergraph.New(sc.edges)); got != sc.alpha {
			return nil, fmt.Errorf("schema-mix: %s schema %d: GYO says acyclic=%v", sc.family, j, got)
		}
		sc.hotBody = sc.body("")
		m.hot = append(m.hot, sc)
	}
	return m, nil
}

func countNodes(edges [][]string) int {
	seen := map[string]bool{}
	for _, e := range edges {
		for _, n := range e {
			seen[n] = true
		}
	}
	return len(seen)
}

// bergeAcyclic reports whether the incidence graph (nodes and edges as
// vertices, membership as links) is a forest.
func bergeAcyclic(edges [][]string) bool {
	parent := map[string]string{}
	var find func(x string) string
	find = func(x string) string {
		p, ok := parent[x]
		if !ok || p == x {
			parent[x] = x
			return x
		}
		r := find(p)
		parent[x] = r
		return r
	}
	for i, e := range edges {
		ev := fmt.Sprintf("\x00e%d", i)
		for _, n := range e {
			a, b := find(ev), find(n)
			if a == b {
				return false
			}
			parent[a] = b
		}
	}
	return true
}

// warmRequests asks every endpoint once about every hot schema, so the
// measured hot requests are memo hits with their facet already computed.
func (m *schemaMix) warmRequests() []request {
	var out []request
	for _, sc := range m.hot {
		for k := kAnalyze; k <= kClassify; k++ {
			out = append(out, request{kind: k, method: "POST", path: schemaPaths[k], body: sc.hotBody, hot: true, sc: sc})
		}
	}
	return out
}

type schemaClient struct {
	m     *schemaMix
	c     int
	rng   *rand.Rand
	i     int
	block []int // remaining slots of the current block of six
}

func (m *schemaMix) newClient(c int) client {
	return &schemaClient{m: m, c: c, rng: newRand(m.seed, 1000+int64(c))}
}

// next draws requests in blocks of six holding each endpoint once hot and
// once fresh, so the 1:1:1 endpoint mix and the 50% repeat share are exact
// over every block.
func (s *schemaClient) next() request {
	if len(s.block) == 0 {
		s.block = s.rng.Perm(6)
	}
	slot := s.block[0]
	s.block = s.block[1:]
	k, hot := reqKind(slot%3), slot < 3
	sc := s.m.hot[s.rng.Intn(len(s.m.hot))]
	s.i++
	body := sc.hotBody
	if !hot {
		body = sc.body(fmt.Sprintf("f%d_%d_", s.c, s.i))
	}
	return request{kind: k, method: "POST", path: schemaPaths[k], body: body, hot: hot, sc: sc}
}

func (s *schemaClient) check(req request, status int, body []byte) error {
	return checkSchema(req, status, body)
}

func checkSchema(req request, status int, body []byte) error {
	sc := req.sc
	switch req.kind {
	case kAnalyze:
		var got struct {
			Acyclic      bool
			Nodes, Edges int
		}
		if err := decodeOK(status, body, &got); err != nil {
			return err
		}
		if got.Acyclic != sc.alpha || got.Nodes != sc.nodes || got.Edges != len(sc.edges) {
			return fmt.Errorf("analyze %s: got acyclic=%v nodes=%d edges=%d, want %v %d %d",
				sc.family, got.Acyclic, got.Nodes, got.Edges, sc.alpha, sc.nodes, len(sc.edges))
		}
	case kJoinTree:
		if !sc.alpha {
			return expectError(status, body, 422, "cyclic")
		}
		var got struct {
			Parent  []int
			Roots   []int
			Program []json.RawMessage
		}
		if err := decodeOK(status, body, &got); err != nil {
			return err
		}
		if len(got.Parent) != len(sc.edges) || len(got.Program) != 2*(len(sc.edges)-len(got.Roots)) {
			return fmt.Errorf("jointree %s: %d parents, %d roots, %d steps for %d edges",
				sc.family, len(got.Parent), len(got.Roots), len(got.Program), len(sc.edges))
		}
	case kClassify:
		var got struct {
			Alpha, Beta, Gamma, Berge bool
			Degree                    string
		}
		if err := decodeOK(status, body, &got); err != nil {
			return err
		}
		if got.Alpha != sc.alpha || got.Beta != sc.beta || got.Gamma != sc.gamma || got.Berge != sc.berge || got.Degree != sc.degree {
			return fmt.Errorf("classify %s: got %+v, want degree %s", sc.family, got, sc.degree)
		}
	}
	return nil
}

func decodeOK(status int, body []byte, v any) error {
	if status != 200 {
		return fmt.Errorf("status %d: %.200s", status, body)
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("decode reply: %v", err)
	}
	return nil
}

func expectError(status int, body []byte, wantStatus int, wantCode string) error {
	var got struct{ Error struct{ Code string } }
	_ = json.Unmarshal(body, &got) // a malformed body fails the code comparison below
	if status != wantStatus || got.Error.Code != wantCode {
		return fmt.Errorf("got status %d code %q, want %d %q", status, got.Error.Code, wantStatus, wantCode)
	}
	return nil
}

// ----------------------------------------------------------------- eval-join

// The eval-join schema: a bushy join tree of eight objects rooted at R0,
// with four independent subtrees the pool can schedule side by side.
var (
	evalEdges  = [][]string{{"A", "B", "C"}, {"A", "D"}, {"B", "E"}, {"C", "F"}, {"D", "G"}, {"E", "H"}, {"F", "I"}, {"A", "J"}}
	evalParent = []int{-1, 0, 0, 0, 1, 2, 3, 0}
	evalOut    = []string{"G", "J"}
)

type evalCase struct {
	body    []byte
	rowsIn  int
	rowsOut int
	outRows int
	digest  [32]byte
}

type evalJoin struct {
	seed   int64
	schema string
	cases  []*evalCase
}

func newEvalJoin(seed int64, sz sizes) (*evalJoin, error) {
	var lines []string
	for i, e := range evalEdges {
		lines = append(lines, fmt.Sprintf("R%d: %s", i, strings.Join(e, " ")))
	}
	ej := &evalJoin{seed: seed, schema: strings.Join(lines, "\n")}
	// Every dataset holds the same row counts, stepping evenly through
	// [evalRowsMin, evalRowsMax], rotated across its objects: the datasets
	// differ in shape but not in size, and the seed changes only values.
	n := len(evalEdges)
	for d := 0; d < sz.evalDatasets; d++ {
		rows := make([]int, n)
		for i := range rows {
			rows[i] = sz.evalRowsMin + (i+3*d)%n*(sz.evalRowsMax-sz.evalRowsMin)/(n-1)
		}
		ec, err := newEvalCase(ej.schema, newRand(seed, 2000+int64(d)), rows, sz)
		if err != nil {
			return nil, err
		}
		ej.cases = append(ej.cases, ec)
	}
	return ej, nil
}

type tableJSON struct {
	Attrs []string   `json:"attrs"`
	Rows  [][]string `json:"rows"`
}

type evalBody struct {
	Schema string      `json:"schema"`
	Tables []tableJSON `json:"tables"`
	Attrs  []string    `json:"attrs"`
}

// newEvalCase draws one dataset: per object, distinct rows. A join
// attribute takes values from a seeded window of three quarters of its
// domain, so the semijoins remove the rows that fall outside their
// neighbours' windows; the leaf attributes, which only the leaf objects
// hold, come from a small domain, so the two-attribute output stays small
// while the bottom-up joins multiply rows. The known answer comes from the
// relation layer.
func newEvalCase(schema string, rng *rand.Rand, rows []int, sz sizes) (*evalCase, error) {
	req := evalBody{Schema: schema, Attrs: evalOut}
	rels := make([]*relation.Relation, len(evalEdges))
	width := sz.evalDomain * 3 / 4
	for i, attrs := range evalEdges {
		offs := make([]int, len(attrs))
		spans := make([]int, len(attrs))
		space := 1
		for k, a := range attrs {
			spans[k] = width
			if strings.Contains("GHIJ", a) {
				spans[k] = sz.evalLeafDom
			} else {
				// Fixed offsets: the seed varies values, not how much the
				// windows overlap, so every seed prunes about as much.
				offs[k] = (i*31 + k*17) % (sz.evalDomain - width + 1)
			}
			space *= spans[k]
		}
		n := min(rows[i], space*9/10)
		seen := map[string]bool{}
		var tuples [][]string
		for len(tuples) < n {
			row := make([]string, len(attrs))
			for k := range row {
				row[k] = "v" + strconv.Itoa(offs[k]+rng.Intn(spans[k]))
			}
			key := strings.Join(row, "\x00")
			if !seen[key] {
				seen[key] = true
				tuples = append(tuples, row)
			}
		}
		req.Tables = append(req.Tables, tableJSON{Attrs: attrs, Rows: tuples})
		r, err := relation.New(attrs, tuples...)
		if err != nil {
			return nil, err
		}
		rels[i] = r
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	ec := &evalCase{body: body}
	out, err := oracleEval(rels, ec)
	if err != nil {
		return nil, err
	}
	ec.outRows = out.Card()
	ec.digest = digestRows(out.Attrs(), out.Rows(), evalOut)
	return ec, nil
}

// oracleEval answers the eval-join query with the string-keyed relation
// layer along the known join tree: a bottom-up and a top-down semijoin pass,
// then a bottom-up join that, after each child, keeps only the output
// attributes and those the parent or a later child still joins on. It
// never touches the exec path.
func oracleEval(rels []*relation.Relation, ec *evalCase) (*relation.Relation, error) {
	n := len(rels)
	rels = append([]*relation.Relation(nil), rels...)
	children := make([][]int, n)
	for v := 1; v < n; v++ {
		children[evalParent[v]] = append(children[evalParent[v]], v)
	}
	for _, r := range rels {
		ec.rowsIn += r.Card()
	}
	// evalParent lists every parent before its children, so the reverse
	// index order is a bottom-up order.
	for v := n - 1; v > 0; v-- {
		rels[evalParent[v]] = rels[evalParent[v]].Semijoin(rels[v])
	}
	for v := 1; v < n; v++ {
		rels[v] = rels[v].Semijoin(rels[evalParent[v]])
	}
	for _, r := range rels {
		ec.rowsOut += r.Card()
	}
	var solve func(v int) (*relation.Relation, error)
	solve = func(v int) (*relation.Relation, error) {
		acc := rels[v]
		kids := children[v]
		for i := 0; i <= len(kids); i++ {
			if i > 0 {
				sub, err := solve(kids[i-1])
				if err != nil {
					return nil, err
				}
				acc = acc.Join(sub)
			}
			need := map[string]bool{}
			for _, a := range evalOut {
				need[a] = true
			}
			if v > 0 {
				for _, a := range shared(evalEdges[v], evalEdges[evalParent[v]]) {
					need[a] = true
				}
			}
			for _, c := range kids[i:] {
				for _, a := range shared(evalEdges[v], evalEdges[c]) {
					need[a] = true
				}
			}
			var attrs []string
			for _, a := range acc.Attrs() {
				if need[a] {
					attrs = append(attrs, a)
				}
			}
			var err error
			if acc, err = acc.Project(attrs); err != nil {
				return nil, err
			}
		}
		return acc, nil
	}
	return solve(0)
}

func shared(a, b []string) []string {
	var out []string
	for _, x := range a {
		for _, y := range b {
			if x == y {
				out = append(out, x)
			}
		}
	}
	return out
}

// digestRows hashes rows as a set, with columns reordered to want.
func digestRows(attrs []string, rows [][]string, want []string) [32]byte {
	pos := make([]int, len(want))
	for i, w := range want {
		pos[i] = -1
		for j, a := range attrs {
			if a == w {
				pos[i] = j
			}
		}
	}
	lines := make([]string, len(rows))
	for r, row := range rows {
		parts := make([]string, len(want))
		for i, p := range pos {
			if p >= 0 && p < len(row) {
				parts[i] = row[p]
			}
		}
		lines[r] = strings.Join(parts, "\x00")
	}
	sort.Strings(lines)
	return sha256.Sum256([]byte(strings.Join(lines, "\n")))
}

func (ej *evalJoin) warmRequests() []request {
	return []request{ej.request(ej.cases[0])}
}

func (ej *evalJoin) request(ec *evalCase) request {
	return request{kind: kEval, method: "POST", path: "/v1/eval", body: ec.body, ec: ec}
}

type evalClient struct {
	ej    *evalJoin
	rng   *rand.Rand
	block []int // datasets left in the current block
}

func (ej *evalJoin) newClient(c int) client {
	return &evalClient{ej: ej, rng: newRand(ej.seed, 3000+int64(c))}
}

// next sends every dataset once per block, in a seeded order, so every
// run does the same mix of work.
func (e *evalClient) next() request {
	if len(e.block) == 0 {
		e.block = e.rng.Perm(len(e.ej.cases))
	}
	d := e.block[0]
	e.block = e.block[1:]
	return e.ej.request(e.ej.cases[d])
}

func (e *evalClient) check(req request, status int, body []byte) error {
	var got struct {
		Attrs   []string
		Rows    [][]string
		RowsIn  int
		RowsOut int
	}
	if err := decodeOK(status, body, &got); err != nil {
		return err
	}
	ec := req.ec
	digestOK := digestRows(got.Attrs, got.Rows, evalOut) == ec.digest
	if got.RowsIn != ec.rowsIn || got.RowsOut != ec.rowsOut || len(got.Rows) != ec.outRows || !digestOK {
		return fmt.Errorf("eval: rowsIn %d rowsOut %d out %d (digest match %v), want %d %d %d",
			got.RowsIn, got.RowsOut, len(got.Rows), digestOK, ec.rowsIn, ec.rowsOut, ec.outRows)
	}
	return nil
}

// ------------------------------------------------------------ workspace-edit

// wsSeed is one session's seed schema: small chain components plus one
// large random acyclic component, with node names unique per component.
type wsSeed struct {
	comps [][][]string // component -> its edges
	edges int
	text  string
}

type workspaceEdit struct {
	seed      int64
	seeds     []*wsSeed // one per client
	epochStep uint64    // how far an acknowledged edit moves the epoch: 1
}

func newWorkspaceEdit(seed int64, sz sizes, clients int) *workspaceEdit {
	w := &workspaceEdit{seed: seed, epochStep: 1}
	for c := 0; c < clients; c++ {
		rng := newRand(seed, 4000+int64(c))
		s := &wsSeed{}
		for k := 0; k < sz.chainComps; k++ {
			var comp [][]string
			for j := 0; j < sz.chainEdges; j++ {
				comp = append(comp, []string{
					fmt.Sprintf("c%d_%d", k, 2*j), fmt.Sprintf("c%d_%d", k, 2*j+1), fmt.Sprintf("c%d_%d", k, 2*j+2)})
			}
			s.comps = append(s.comps, comp)
		}
		big := gen.RandomAcyclic(rng, gen.RandomSpec{Edges: sz.bigEdges, MinArity: 2, MaxArity: 4}).EdgeLists()
		for _, e := range big {
			for i := range e {
				e[i] = "b" + e[i]
			}
		}
		s.comps = append(s.comps, big)
		var lines []string
		for _, comp := range s.comps {
			for _, e := range comp {
				lines = append(lines, strings.Join(e, " "))
			}
			s.edges += len(comp)
		}
		s.text = strings.Join(lines, "\n")
		w.seeds = append(w.seeds, s)
	}
	return w
}

func (w *workspaceEdit) createBody(c int) []byte {
	b, _ := json.Marshal(map[string]string{"schema": w.seeds[c].text}) // strings always marshal
	return b
}

// wsClient runs the per-client edit loop against its own session: add an
// edge inside a seeded-random component, read the verdict, read the join
// tree, read it again pinned to the same epoch (a second viewer), remove
// the edge. The added edge takes two nodes of one existing edge plus a
// fresh node, so every epoch stays acyclic.
type wsClient struct {
	w     *workspaceEdit
	seed  *wsSeed
	rng   *rand.Rand
	c     int
	id    string // session id
	epoch uint64 // last acknowledged epoch
	edges int    // live edges at that epoch
	step  int
	i     int
	added int    // id of the edge the current cycle added
	tree  []byte // the jointree reply at the current epoch
}

func (w *workspaceEdit) newClient(c int, id string, epoch uint64) *wsClient {
	return &wsClient{w: w, seed: w.seeds[c], rng: newRand(w.seed, 5000+int64(c)), c: c, id: id, epoch: epoch, edges: w.seeds[c].edges}
}

func (s *wsClient) next() request {
	base := "/v1/workspaces/" + s.id
	query := func(k reqKind, body string) request {
		return request{kind: k, method: "POST", path: base + "/query", body: []byte(body)}
	}
	switch s.step {
	case 0:
		comp := s.seed.comps[s.rng.Intn(len(s.seed.comps))]
		e := comp[s.rng.Intn(len(comp))]
		p := s.rng.Perm(len(e))
		s.i++
		nodes := []string{e[p[0]], e[p[1]], fmt.Sprintf("x%d_%d", s.c, s.i)}
		b, _ := json.Marshal(map[string][]string{"nodes": nodes}) // strings always marshal
		return request{kind: kWSAdd, method: "POST", path: base + "/edges", body: b, edit: true}
	case 1:
		return query(kWSVerdict, `{"op":"verdict"}`)
	case 2:
		return query(kWSJoinTree, `{"op":"jointree"}`)
	case 3:
		return query(kWSJoinTreePinned, fmt.Sprintf(`{"op":"jointree","epoch":%d}`, s.epoch))
	default:
		return request{kind: kWSRemove, method: "DELETE", path: fmt.Sprintf("%s/edges/%d", base, s.added), edit: true}
	}
}

func (s *wsClient) check(req request, status int, body []byte) error {
	var got struct {
		Edge    int
		Epoch   uint64
		Acyclic bool
		Parent  []int
	}
	if err := decodeOK(status, body, &got); err != nil {
		return err
	}
	want := s.epoch
	switch req.kind {
	case kWSAdd, kWSRemove:
		want += s.w.epochStep
	}
	if got.Epoch != want {
		return fmt.Errorf("workspace %s step %d: epoch %d, want %d", s.id, s.step, got.Epoch, want)
	}
	switch req.kind {
	case kWSAdd:
		s.added, s.edges = got.Edge, s.edges+1
	case kWSRemove:
		s.edges--
	case kWSVerdict:
		if !got.Acyclic {
			return fmt.Errorf("workspace %s: verdict cyclic at epoch %d", s.id, got.Epoch)
		}
	case kWSJoinTree:
		if len(got.Parent) != s.edges {
			return fmt.Errorf("workspace %s: join tree over %d edges, want %d", s.id, len(got.Parent), s.edges)
		}
		s.tree = append(s.tree[:0], body...)
	case kWSJoinTreePinned:
		if !bytes.Equal(body, s.tree) {
			return fmt.Errorf("workspace %s: pinned join tree differs from the first read at epoch %d", s.id, got.Epoch)
		}
	}
	s.epoch = want
	s.step = (s.step + 1) % 5
	return nil
}
