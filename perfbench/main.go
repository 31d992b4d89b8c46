// Command perfbench is the repository's end-to-end benchmark. It boots the
// real hgserved binary on loopback, drives it in a closed loop with one
// connection per client over a seeded request sequence, checks every reply
// against a known answer, and reports end-to-end metrics. With -trace 1 it
// also replays the same sequences in-process through the layers' public
// functions, inside benchmark-owned spans, and reports per-layer metrics.
// The last line of standard output is the JSON result; the lines before it
// give provenance and every metric by name, with its unit and sample count.
//
//	perfbench -workload schema-mix|eval-join|workspace-edit -seed N -seconds S -trace 0|1 -server path/to/hgserved
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

var workloads = []string{"schema-mix", "eval-join", "workspace-edit"}

// numClients is the number of closed-loop clients, one connection each.
// The generator refuses to run on a host with fewer CPUs.
const numClients = 2

type config struct {
	workload  string
	seed      int64
	dur       time.Duration // measured load window (halved per pass when tracing)
	trace     bool
	serverBin string
	workDir   string // scratch space for data directories; removed by the caller
	sz        sizes
	setupReps int           // set-ups per run; setup_s is their median
	plant     func(*inputs) // self-tests plant a wrong expected answer here
	// plantCrash lets self-tests plant a wrong last-acknowledged state
	// before the crash-durability check compares against it.
	plantCrash func([]*wsClient)
	log        io.Writer // human-readable lines
}

// metric is one reported figure with its sample count (0 when the value is
// not a statistic over samples).
type metric struct {
	name  string
	value float64
	unit  string
	n     int
}

type result struct {
	correct           bool
	attempted, failed int
	metrics           []metric
	lastTree          []spanRec // the replay's last span tree (trace runs)
}

func (r *result) add(name string, value float64, unit string, n int) {
	r.metrics = append(r.metrics, metric{name, value, unit, n})
}

func (r *result) count(lr loadResult) {
	r.attempted += lr.attempted
	r.failed += lr.failed
}

func main() {
	cfg := config{sz: fullSizes, setupReps: 3, log: os.Stdout}
	flag.StringVar(&cfg.workload, "workload", "", "schema-mix, eval-join or workspace-edit")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "seconds of measured load per run")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced run instead of end-to-end metrics")
	flag.StringVar(&cfg.serverBin, "server", "", "path to the hgserved binary")
	root := flag.String("root", ".", "checkout root; scratch data goes under <root>/.bench_build")
	flag.Parse()
	cfg.dur = time.Duration(*seconds) * time.Second
	cfg.trace = *trace == 1
	err := validate(cfg, runtime.NumCPU())
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("-trace must be 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	scratch := filepath.Join(*root, ".bench_build")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	dir, err := os.MkdirTemp(scratch, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg.workDir = dir
	res, err := run(cfg)
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printResult(cfg, res, *root)
	if !res.correct {
		os.Exit(1)
	}
}

// validate checks the flags, and that the host has a CPU for every client.
func validate(cfg config, nproc int) error {
	known := false
	for _, w := range workloads {
		known = known || w == cfg.workload
	}
	if !known {
		return fmt.Errorf("unknown -workload %q (want one of %v)", cfg.workload, workloads)
	}
	if cfg.serverBin == "" {
		return fmt.Errorf("-server is required")
	}
	if cfg.dur <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	if nproc < numClients {
		return fmt.Errorf("%d clients need at least %d CPUs, nproc is %d", numClients, numClients, nproc)
	}
	return nil
}

func printResult(cfg config, res result, root string) {
	w := cfg.log
	prov, _ := json.Marshal(provenance(cfg, root)) // plain strings and numbers always marshal
	fmt.Fprintf(w, "provenance %s\n", prov)
	errRate := ratio(float64(res.failed), float64(res.attempted))
	fmt.Fprintf(w, "metric error_rate %g ratio n=%d\n", errRate, res.attempted)
	out := map[string]any{}
	for _, m := range res.metrics {
		fmt.Fprintf(w, "metric %s %g %s n=%d\n", m.name, m.value, m.unit, m.n)
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	line, _ := json.Marshal(map[string]any{ // finite floats always marshal
		"correct": res.correct, "attempted": res.attempted, "failed": res.failed, "metrics": out,
	})
	fmt.Fprintf(w, "%s\n", line)
}

// run measures one workload: end-to-end metrics, or with trace the
// per-layer metrics.
func run(cfg config) (result, error) {
	var res result
	var err error
	if cfg.trace {
		err = runTraced(cfg, &res)
	} else {
		err = runUntraced(cfg, &res)
	}
	res.correct = err == nil && res.failed == 0
	return res, err
}
