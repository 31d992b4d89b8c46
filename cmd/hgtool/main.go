// Command hgtool analyzes hypergraphs given in the text format of
// repro.ParseHypergraph (one edge per line, '#' comments, optional
// "name:" prefixes). It exposes the library's analyses on the command line
// through the session-oriented API: each invocation opens one
// repro.Analysis over the input, so commands that need several derived
// artifacts (verdict, classification, join tree, full reducer, witness)
// share a single traversal instead of recomputing per artifact.
//
// Usage:
//
//	hgtool analyze  [-f file]             acyclicity, classification, articulation sets, blocks
//	hgtool classify [-f file]             full acyclicity spectrum with certificate summaries
//	hgtool reduce   [-f file] [-x A,B]    Graham reduction GR(H, X) with trace
//	hgtool tableau  [-f file] [-x A,B]    print the tableau and its minimization
//	hgtool cc       [-f file] -x A,B      canonical connection CC(X)
//	hgtool jointree [-f file]             join tree and semijoin full reducer
//	hgtool witness  [-f file]             independent-path witness for cyclic inputs
//	hgtool dot      [-f file]             Graphviz rendering of the incidence graph
//	hgtool eval     [-f file] -d dir -x A,B [-trace]   Yannakakis evaluation over CSV data
//	hgtool edit     [-f file] [-s script] mutable-workspace session applying an edit script
//	hgtool serve    [-addr host:port] ...  the hgserved HTTP/JSON analysis server
//	hgtool ws       [-json] [-log] dir...  inspect durable session directories offline
//
// Without -f, the hypergraph is read from standard input (except for edit,
// where -f optionally seeds the workspace and the script comes from -s or
// standard input).
//
// edit drives the mutable repro.Workspace: the optional -f schema seeds it,
// then the script (one command per line, '#' comments) is applied with the
// incremental verdict printed after every mutation:
//
//	add A B C        # add an edge; prints its stable id
//	remove 2         # remove edge id 2
//	rename A X       # rename node A to X
//	analyze          # verdict, components, classification of the epoch
//	jointree         # the epoch's join forest and full reducer
//	snapshot         # the epoch's hypergraph in text form
//
// eval runs the full columnar pipeline: it loads one CSV table per edge
// from -d (named "<edge name>.csv" when the schema names the edge, else
// "R<i>.csv"), applies the schema's two-pass semijoin full reducer with
// per-step statistics, joins bottom-up along the join tree, and prints
// π_x(⋈ all objects) for the -x attribute list. -trace appends the
// evaluation's span tree — the same attribution the server's /tracez
// serves: every layer's duration plus per-step rows in/out.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/dynamic"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/server"
	"repro/internal/store"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	if cmd == "serve" {
		// serve is the hgserved HTTP server under the multi-tool entry
		// point; it owns its flags and runs until SIGINT/SIGTERM.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		if err := server.RunCLI(ctx, os.Args[2:], os.Stdout, os.Stderr); err != nil {
			fatal(err)
		}
		return
	}
	if cmd == "ws" {
		// ws inspects durable session directories offline; it owns its flags
		// because it takes directories, not hypergraph input.
		if err := wsCmd(os.Stdout, os.Args[2:]); err != nil {
			fatal(err)
		}
		return
	}
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	file := fs.String("f", "", "input file (default: stdin)")
	sacred := fs.String("x", "", "comma-separated sacred nodes (eval: output attributes)")
	dataDir := fs.String("d", "", "directory of per-object CSV files (eval)")
	script := fs.String("s", "", "edit script file (edit; default: stdin)")
	trace := fs.Bool("trace", false, "collect and print the evaluation's span tree (eval)")
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}
	if cmd == "edit" {
		// edit reads its schema only from -f (stdin carries the script),
		// so it bypasses the generic stdin load below.
		if err := editCmd(os.Stdout, *file, *script); err != nil {
			fatal(err)
		}
		return
	}
	h, names, err := load(*file)
	if err != nil {
		fatal(err)
	}
	x, err := parseSacred(h, *sacred)
	if err != nil {
		fatal(err)
	}
	switch cmd {
	case "analyze":
		err = analyze(os.Stdout, h)
	case "classify":
		err = classifyCmd(os.Stdout, h)
	case "reduce":
		err = reduce(os.Stdout, h, x)
	case "tableau":
		err = showTableau(os.Stdout, h, x)
	case "cc":
		if *sacred == "" {
			err = fmt.Errorf("cc requires -x")
		} else {
			err = ccCmd(os.Stdout, h, x)
		}
	case "jointree":
		err = jointreeCmd(os.Stdout, h, names)
	case "witness":
		err = witnessCmd(os.Stdout, h)
	case "dot":
		fmt.Print(h.DOT("H"))
	case "eval":
		switch {
		case *sacred == "":
			err = fmt.Errorf("eval requires -x (output attributes)")
		case *dataDir == "":
			err = fmt.Errorf("eval requires -d (CSV data directory)")
		default:
			err = evalCmd(os.Stdout, h, names, *dataDir, x, *trace)
		}
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fatal(err)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: hgtool {analyze|classify|reduce|tableau|cc|jointree|witness|dot|eval|edit|serve|ws} [-f file] [-x A,B] [-d dir] [-s script]")
}

func fatal(err error) {
	// The structured taxonomy makes user errors distinguishable from bugs.
	var unknown *repro.ErrUnknownNode
	var parseErr *repro.ErrParse
	switch {
	case errors.As(err, &unknown):
		fmt.Fprintf(os.Stderr, "hgtool: node %q does not occur in the hypergraph\n", unknown.Name)
	case errors.As(err, &parseErr):
		fmt.Fprintf(os.Stderr, "hgtool: input:%d:%d: %s\n", parseErr.Line, parseErr.Col, parseErr.Msg)
	default:
		fmt.Fprintln(os.Stderr, "hgtool:", err)
	}
	os.Exit(1)
}

func load(path string) (*repro.Hypergraph, []string, error) {
	var data []byte
	var err error
	if path == "" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return nil, nil, err
	}
	return repro.ParseHypergraph(string(data))
}

// parseSacred splits the -x list and validates every name against h.
func parseSacred(h *repro.Hypergraph, s string) ([]string, error) {
	if s == "" {
		return nil, nil
	}
	var names []string
	for _, n := range strings.Split(s, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	if _, err := h.Set(names...); err != nil {
		return nil, err
	}
	return names, nil
}

func analyze(w io.Writer, h *repro.Hypergraph) error {
	a := repro.Analyze(h)
	fmt.Fprintf(w, "hypergraph: %v\n", h)
	fmt.Fprintf(w, "nodes: %d, edges: %d, connected: %v, reduced: %v\n",
		h.NumNodes(), h.NumEdges(), h.IsConnected(), h.IsReduced())
	fmt.Fprintf(w, "acyclicity: %v\n", a.Spectrum())
	arts := h.ArticulationSets()
	if len(arts) == 0 {
		fmt.Fprintln(w, "articulation sets: none")
	} else {
		fmt.Fprint(w, "articulation sets:")
		for _, art := range arts {
			fmt.Fprintf(w, " {%s}", strings.Join(h.NodeNames(art), " "))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "blocks:")
	for _, b := range repro.Blocks(h) {
		fmt.Fprintf(w, "  %v\n", b)
	}
	return nil
}

// classifyCmd prints the full acyclicity spectrum — the polynomial testers'
// verdicts for every class plus the overall degree — with a summary of the
// certificate backing each verdict.
func classifyCmd(w io.Writer, h *repro.Hypergraph) error {
	a := repro.Analyze(h)
	r := a.Spectrum()
	fmt.Fprintf(w, "hypergraph: %v\n", h)
	fmt.Fprintf(w, "nodes: %d, edges: %d\n", h.NumNodes(), h.NumEdges())
	fmt.Fprintf(w, "degree: %s\n\n", r.Degree)
	mark := func(b bool) string {
		if b {
			return "yes"
		}
		return "no"
	}
	tab := report.NewTable("class", "acyclic", "certificate")
	tab.Add("alpha (paper)", mark(r.Alpha), "MCS run (join tree on accept, witness on reject)")
	if r.Beta.Acyclic {
		tab.Add("beta", "yes", fmt.Sprintf("nest-point elimination order, %d nodes", len(r.Beta.Order)))
	} else {
		tab.Add("beta", "no", fmt.Sprintf("nest-free core, %d nodes", len(r.Beta.Core)))
	}
	if r.Gamma.Acyclic {
		tab.Add("gamma", "yes", fmt.Sprintf("leaf/twin reduction sequence, %d steps", len(r.Gamma.Steps)))
	} else {
		tab.Add("gamma", "no", fmt.Sprintf("irreducible core, %d nodes / %d edges", len(r.Gamma.CoreNodes), len(r.Gamma.CoreEdges)))
	}
	tab.Add("Berge", mark(r.Berge), "incidence-graph union-find")
	tab.Render(w)
	return nil
}

func reduce(w io.Writer, h *repro.Hypergraph, sacred []string) error {
	r, err := repro.GrahamReductionTrace(h, sacred...)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "GR(H, {%s}):\n", strings.Join(sacred, " "))
	fmt.Fprint(w, r.Trace())
	fmt.Fprintf(w, "result: %v\n", r.Hypergraph)
	if r.Vanished() {
		fmt.Fprintln(w, "the hypergraph reduces to nothing: it is acyclic")
	}
	return nil
}

func showTableau(w io.Writer, h *repro.Hypergraph, sacred []string) error {
	tab, err := repro.NewTableau(h, sacred...)
	if err != nil {
		return err
	}
	fmt.Fprint(w, tab.String())
	mn := tab.Minimize()
	fmt.Fprintf(w, "minimal rows: %v\n", mn.Rows)
	fmt.Fprintf(w, "row mapping:  %v\n", mn.Mapping)
	fmt.Fprintf(w, "TR(H, X) = %v\n", mn.Hypergraph())
	return nil
}

func ccCmd(w io.Writer, h *repro.Hypergraph, names []string) error {
	cc, err := repro.CanonicalConnection(h, names...)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "CC({%s}) = %v\n", strings.Join(names, " "), cc)
	return nil
}

func jointreeCmd(w io.Writer, h *repro.Hypergraph, names []string) error {
	a := repro.Analyze(h)
	t, err := a.JoinTree()
	if errors.Is(err, repro.ErrCyclic) {
		return fmt.Errorf("the hypergraph is cyclic: no join tree exists")
	}
	if err != nil {
		return err
	}
	label := func(i int) string { return objectLabel(names, i) }
	tab := report.NewTable("edge", "object", "parent")
	for i, p := range t.Parent {
		parent := "(root)"
		if p >= 0 {
			parent = label(p)
		}
		tab.Add(label(i), "{"+strings.Join(h.EdgeNodes(i), " ")+"}", parent)
	}
	tab.Render(w)
	prog, err := a.FullReducer() // reuses the join tree the table just printed
	if err != nil {
		return err
	}
	fmt.Fprint(w, "full reducer:")
	for _, s := range prog {
		fmt.Fprintf(w, " %s ⋉= %s;", label(s.Target), label(s.Source))
	}
	fmt.Fprintln(w)
	return nil
}

// objectLabel names object i for display and CSV lookup: the schema file's
// edge name when present, else "R<i>".
func objectLabel(names []string, i int) string {
	if i < len(names) && names[i] != "" {
		return names[i]
	}
	return fmt.Sprintf("R%d", i)
}

func evalCmd(w io.Writer, h *repro.Hypergraph, names []string, dir string, attrs []string, trace bool) error {
	dict := repro.NewDict()
	tables := make([]*repro.ExecTable, h.NumEdges())
	for i := range tables {
		path := filepath.Join(dir, objectLabel(names, i)+".csv")
		f, err := os.Open(path)
		if err != nil {
			return fmt.Errorf("object %s: %w", objectLabel(names, i), err)
		}
		t, err := repro.LoadTableCSV(dict, f)
		f.Close()
		if err != nil {
			return fmt.Errorf("object %s: %w", objectLabel(names, i), err)
		}
		tables[i] = t
	}
	db, err := repro.NewExecDatabase(h, tables)
	if err != nil {
		return err
	}
	a := repro.Analyze(h)
	// -trace: collect the same span tree the server's /tracez serves, with
	// a threshold-0 profiler so this one evaluation is always retained.
	ctx := context.Background()
	var root *obs.Span
	var prof *obs.Profiler
	if trace {
		obs.Enable()
		defer obs.Disable()
		prof = obs.NewProfiler(0, 1)
		ctx, root = obs.NewTracer(1, 0, prof).StartTrace(ctx, "hgtool.eval")
	}
	res, err := a.Eval(ctx, db, attrs)
	root.End()
	if err != nil {
		if errors.Is(err, repro.ErrCyclic) {
			return fmt.Errorf("the schema is cyclic: Yannakakis evaluation needs an acyclic schema")
		}
		return err
	}
	fmt.Fprintf(w, "loaded %d objects, %d rows total\n\n", len(tables), db.NumRows())
	tab := report.NewTable("step", "rows in", "rows out", "time")
	for _, s := range res.Reduce.Steps {
		tab.Add(fmt.Sprintf("%s ⋉= %s", objectLabel(names, s.Step.Target), objectLabel(names, s.Step.Source)),
			s.RowsIn, s.RowsOut, s.Elapsed)
	}
	tab.Render(w)
	fmt.Fprintf(w, "full reduction: %d -> %d rows in %v\n", res.Reduce.RowsIn, res.Reduce.RowsOut, res.Reduce.Elapsed)
	fmt.Fprintf(w, "join phase:     %d row pairs matched joining the canonical connection\n\n", res.JoinRows)
	fmt.Fprintf(w, "π{%s}(⋈ all objects): %d rows\n", strings.Join(attrs, " "), res.Out.NumRows())
	// Print straight off the columnar table: the result can be large, and
	// only a bounded prefix is shown — no reason to decode every row.
	const maxShow = 20
	out := res.Out
	if out.NumRows() > maxShow {
		fmt.Fprintf(w, "(first %d)\n", maxShow)
	}
	header := make([]string, out.NumAttrs())
	for c := range header {
		header[c] = out.Attr(c)
	}
	fmt.Fprintln(w, strings.Join(header, " | "))
	row := make([]string, out.NumAttrs())
	for r := 0; r < out.NumRows() && r < maxShow; r++ {
		for c := range row {
			row[c] = out.Value(r, c)
		}
		fmt.Fprintln(w, strings.Join(row, " | "))
	}
	if trace {
		for _, tj := range prof.Snapshot() {
			printSpanTree(w, tj)
		}
	}
	return nil
}

// printSpanTree renders one retained trace as an indented tree: name,
// duration, and attributes per span.
func printSpanTree(w io.Writer, tj *obs.TraceJSON) {
	fmt.Fprintf(w, "\ntrace %d: %d spans in %v\n", tj.TraceID, tj.Spans, time.Duration(tj.DurationNs))
	if tj.Dropped > 0 {
		fmt.Fprintf(w, "(%d spans dropped: buffer full)\n", tj.Dropped)
	}
	var rec func(sp *obs.SpanJSON, depth int)
	rec = func(sp *obs.SpanJSON, depth int) {
		if sp == nil {
			return
		}
		keys := make([]string, 0, len(sp.Attrs))
		for k := range sp.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var attrs strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&attrs, " %s=%v", k, sp.Attrs[k])
		}
		fmt.Fprintf(w, "%s%s %v%s\n", strings.Repeat("  ", depth), sp.Name,
			time.Duration(sp.DurationNs), attrs.String())
		for _, c := range sp.Children {
			rec(c, depth+1)
		}
	}
	rec(tj.Root, 0)
}

// editCmd runs a mutable-workspace session: the optional schema file seeds
// the workspace, then the script (one command per line) is applied, with
// the incrementally maintained verdict echoed after every mutation.
func editCmd(w io.Writer, schemaPath, scriptPath string) error {
	ws := repro.NewWorkspace()
	if schemaPath != "" {
		data, err := os.ReadFile(schemaPath)
		if err != nil {
			return err
		}
		h, _, err := repro.ParseHypergraph(string(data))
		if err != nil {
			return err
		}
		ws, err = repro.NewWorkspaceFrom(h)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "seeded %d edges over %d nodes\n", ws.NumEdges(), ws.NumNodes())
	}
	var src io.Reader = os.Stdin
	if scriptPath != "" {
		f, err := os.Open(scriptPath)
		if err != nil {
			return err
		}
		defer f.Close()
		src = f
	}
	sc := bufio.NewScanner(src)
	// Generated scripts can carry very wide add commands; the default
	// 64 KB token cap would abort the session mid-script.
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		if err := editLine(w, ws, sc.Text()); err != nil {
			return fmt.Errorf("script line %d: %w", line, err)
		}
	}
	return sc.Err()
}

// editLine applies one script command to the workspace.
func editLine(w io.Writer, ws *repro.Workspace, raw string) error {
	fields := strings.Fields(strings.TrimSpace(raw))
	if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
		return nil
	}
	cmd, args := fields[0], fields[1:]
	status := func() string {
		a := ws.Analysis()
		return fmt.Sprintf("epoch %d: %d edges, %d components, acyclic=%v",
			ws.Epoch(), ws.NumEdges(), ws.NumComponents(), a.Verdict())
	}
	switch cmd {
	case "add":
		if len(args) == 0 {
			return fmt.Errorf("add requires node names")
		}
		id, err := ws.AddEdge(args...)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "added edge %d — %s\n", id, status())
	case "remove":
		if len(args) != 1 {
			return fmt.Errorf("remove requires one edge id")
		}
		id, err := strconv.Atoi(args[0])
		if err != nil {
			return fmt.Errorf("remove: bad edge id %q", args[0])
		}
		if err := ws.RemoveEdge(id); err != nil {
			return err
		}
		fmt.Fprintf(w, "removed edge %d — %s\n", id, status())
	case "rename":
		if len(args) != 2 {
			return fmt.Errorf("rename requires old and new name")
		}
		if err := ws.RenameNode(args[0], args[1]); err != nil {
			return err
		}
		fmt.Fprintf(w, "renamed %s -> %s — %s\n", args[0], args[1], status())
	case "analyze":
		a := ws.Analysis()
		res, err := a.Spectrum(context.Background())
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\nclassification: %v\n", status(), res)
	case "jointree":
		a := ws.Analysis()
		jt, err := a.JoinTree()
		if errors.Is(err, repro.ErrCyclic) {
			fmt.Fprintln(w, "the epoch is cyclic: no join forest exists")
			return nil
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "join forest: %v\n", jt)
		prog, err := a.FullReducer()
		if err != nil {
			return err
		}
		fmt.Fprint(w, "full reducer:")
		for _, s := range prog {
			fmt.Fprintf(w, " %s;", s)
		}
		fmt.Fprintln(w)
	case "snapshot":
		snap := ws.Snapshot()
		for _, e := range snap.EdgeLists() {
			fmt.Fprintln(w, strings.Join(e, " "))
		}
	default:
		return fmt.Errorf("unknown command %q (add|remove|rename|analyze|jointree|snapshot)", cmd)
	}
	return nil
}

// wsCmd is the offline inspector for durable workspace sessions (the
// directories a `-data` server writes): recover each given session directory
// read-only — snapshot restore with digest cross-check, WAL tail replay —
// and report what a booting server would see. A directory holding a data
// root (session subdirectories) is expanded. -log additionally dumps the
// WAL records; -json emits machine-readable reports. A torn tail is
// reported, never repaired: inspection must not mutate evidence. A damaged
// frame with frames after it fails the session with the store's
// corruption error, as Open would.
func wsCmd(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("ws", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit one JSON report per session")
	showLog := fs.Bool("log", false, "dump the WAL records after the summary")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("ws requires session or data directories (hgtool ws [-json] [-log] dir...)")
	}
	var dirs []string
	for _, arg := range fs.Args() {
		// A data root expands to its session subdirectories; a session
		// directory (holding a WAL or snapshot itself) is taken as-is.
		if ids, err := store.ListSessions(arg); err == nil && len(ids) > 0 {
			for _, id := range ids {
				dirs = append(dirs, filepath.Join(arg, id))
			}
			continue
		}
		dirs = append(dirs, arg)
	}
	var firstErr error
	for _, dir := range dirs {
		info, err := store.Verify(dir)
		if err == nil && info.SnapshotEpoch == 0 && info.TailRecords == 0 && !info.TornTail {
			// Verify recovers "no files" as an empty session; for an
			// inspector, a directory with no session is an error.
			if _, serr := os.Stat(filepath.Join(dir, store.WALFile)); serr != nil {
				if _, serr = os.Stat(filepath.Join(dir, store.SnapshotFile)); serr != nil {
					err = fmt.Errorf("%s holds no session (no %s or %s)", dir, store.WALFile, store.SnapshotFile)
				}
			}
		}
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			fmt.Fprintf(os.Stderr, "hgtool ws: %s: %v\n", dir, err)
			continue
		}
		if *asJSON {
			b, _ := json.MarshalIndent(info, "", "  ")
			fmt.Fprintln(w, string(b))
		} else {
			fmt.Fprintf(w, "%s:\n", info.Dir)
			fmt.Fprintf(w, "  epoch %d (snapshot %d + %d WAL records)\n", info.Epoch, info.SnapshotEpoch, info.TailRecords)
			fmt.Fprintf(w, "  %d edges, %d nodes, %d components, acyclic=%v\n", info.Edges, info.Nodes, info.Components, info.Acyclic)
			fmt.Fprintf(w, "  digest %s\n", info.Digest)
			if info.TornTail {
				fmt.Fprintln(w, "  torn tail: the WAL's last frame is cut short or damaged (a crashed write); the next Open truncates it")
			}
		}
		if *showLog {
			torn, err := store.ScanWAL(filepath.Join(dir, store.WALFile), func(rec dynamic.JournalRecord) error {
				switch rec.Op {
				case dynamic.JournalAddEdge:
					fmt.Fprintf(w, "  %6d  add edge %d {%s}\n", rec.Epoch, rec.Edge, strings.Join(rec.Nodes, " "))
				case dynamic.JournalRemoveEdge:
					fmt.Fprintf(w, "  %6d  remove edge %d\n", rec.Epoch, rec.Edge)
				case dynamic.JournalRenameNode:
					fmt.Fprintf(w, "  %6d  rename %s -> %s\n", rec.Epoch, rec.Old, rec.New)
				}
				return nil
			})
			if err != nil && !errors.Is(err, os.ErrNotExist) {
				if firstErr == nil {
					firstErr = err
				}
				fmt.Fprintf(os.Stderr, "hgtool ws: %s: %v\n", dir, err)
			}
			if torn {
				fmt.Fprintln(w, "  (log ends in a torn frame)")
			}
		}
	}
	return firstErr
}

func witnessCmd(w io.Writer, h *repro.Hypergraph) error {
	p, coreGraph, found, err := repro.IndependentPathWitness(h)
	if err != nil {
		return err
	}
	if !found {
		fmt.Fprintln(w, "the hypergraph is acyclic: by Theorem 6.1 no independent path exists")
		return nil
	}
	fmt.Fprintf(w, "cyclic core: %v\n", coreGraph)
	fmt.Fprintf(w, "independent path: %s\n", p.String(coreGraph))
	n, m := p.Endpoints()
	cc, err := repro.CanonicalConnection(coreGraph, coreGraph.NodeNames(n.Or(m))...)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "canonical connection of its endpoints: %v\n", cc)
	return nil
}
