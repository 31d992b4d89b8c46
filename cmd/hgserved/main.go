// Command hgserved serves the library's analyses over HTTP/JSON: analyze,
// join trees, classification, semijoin reduction, Yannakakis evaluation,
// and mutable workspace-edit sessions, behind server-enforced deadlines,
// per-tenant quotas, global admission control, and per-request panic
// isolation. `hgtool serve` is the same server under the multi-tool entry
// point.
//
// Usage:
//
//	hgserved [-addr host:port] [-grace 5s] [-inflight 64]
//	         [-rate 50] [-burst 25] [-timeout 2s] [-max-timeout 10s]
//	         [-digest-seed S]
//	         [-data dir] [-snap-every N] [-data-sync]
//
// With -data, workspace sessions are durable: every acknowledged edit is
// journaled to a per-session WAL under the directory before it takes
// effect, sessions found there are recovered on boot, and shutdown flushes
// a final snapshot per dirty session. -snap-every tunes how many WAL
// records trigger a background compaction, and -data-sync fsyncs the WAL
// on every edit (power-failure durability at a latency cost). Inspect
// session directories offline with `hgtool ws`.
//
// The process exits on SIGINT/SIGTERM after draining in-flight requests
// inside the -grace window. Endpoint and error-body documentation lives on
// repro's package docs ("Serving" and "Durability") and internal/server.
package main

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/server"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := server.RunCLI(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "hgserved:", err)
		os.Exit(1)
	}
}
