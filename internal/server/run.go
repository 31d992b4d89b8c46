package server

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"time"
)

// Run serves s on l until ctx is cancelled, then shuts down gracefully:
// the drain gate flips (new requests answer 503, health checks fail, so a
// load balancer stops routing here), in-flight requests get grace to
// finish, and only then does the listener close. A nil error means every
// in-flight request completed inside the grace window.
func Run(ctx context.Context, l net.Listener, s *Server, grace time.Duration) error {
	srv := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(l) }()
	select {
	case err := <-errc:
		return err // listener failed before shutdown was requested
	case <-ctx.Done():
	}
	graceCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	drainErr := s.Drain(graceCtx)
	// The drain gate already refused new work; Shutdown closes the listener
	// and waits for the connection-level goroutines under the same budget.
	if err := srv.Shutdown(graceCtx); err != nil && drainErr == nil {
		drainErr = err
	}
	<-errc // Serve has returned http.ErrServerClosed by now
	return drainErr
}

// RunCLI is the shared implementation of `hgserved` and `hgtool serve`:
// parse flags, bind the listener, report the bound address on stdout (so
// callers using port 0 learn the real port), and serve until ctx cancels.
func RunCLI(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "localhost:8080", "listen address")
	grace := fs.Duration("grace", 5*time.Second, "graceful-shutdown drain window")
	inflight := fs.Int("inflight", 64, "global concurrent-request limit")
	rate := fs.Float64("rate", 50, "per-tenant sustained requests/second")
	burst := fs.Int("burst", 25, "per-tenant burst capacity")
	timeout := fs.Duration("timeout", 2*time.Second, "default per-request deadline")
	maxTimeout := fs.Duration("max-timeout", 10*time.Second, "upper clamp for client-requested deadlines")
	seed := fs.Uint64("digest-seed", 0, "keyed memo digest seed (0 = unkeyed)")
	trace := fs.Bool("trace", false, "collect request spans (/tracez); metrics are always on")
	traceSample := fs.Int("trace-sample", 1, "head-sample 1 request in N when tracing")
	traceSlow := fs.Duration("trace-slow", 250*time.Millisecond, "retain traces at least this slow (negative: retain all)")
	traceRing := fs.Int("trace-ring", 64, "retained slow-trace ring capacity")
	dataDir := fs.String("data", "", "durable session directory (empty: sessions are memory-only)")
	snapEvery := fs.Int("snap-every", 0, "WAL records between background snapshots (0 = default 4096, negative disables)")
	dataSync := fs.Bool("data-sync", false, "fsync the session WAL on every edit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	s := New(Config{
		MaxInFlight:        *inflight,
		TenantRate:         *rate,
		TenantBurst:        *burst,
		DefaultTimeout:     *timeout,
		MaxTimeout:         *maxTimeout,
		DigestSeed:         *seed,
		Logger:             log.New(stderr, "hgserved: ", log.LstdFlags),
		DataDir:            *dataDir,
		SnapshotEvery:      *snapEvery,
		SyncAppends:        *dataSync,
		Trace:              *trace,
		TraceSampleN:       *traceSample,
		SlowTraceThreshold: *traceSlow,
		TraceRingCap:       *traceRing,
	}, nil)
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "listening on %s\n", l.Addr())
	return Run(ctx, l, s, *grace)
}
