package main

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// loadResult is what one closed-loop pass measured.
type loadResult struct {
	attempted, failed int           // every request sent, warm-up included
	samples           []sample      // successful measured requests
	elapsed           time.Duration // from the window's start to its last reply
	errs              []string      // the failures, for the log
}

// sample is one successful measured request.
type sample struct {
	lat  time.Duration
	edit bool
}

// clientRun is one client's share of a pass.
type clientRun struct {
	attempted, failed int
	samples           []sample
	last              time.Time // when the last measured reply arrived
	err               string
}

func (r *loadResult) latencies(edit bool) []time.Duration {
	var out []time.Duration
	for _, s := range r.samples {
		if s.edit == edit {
			out = append(out, s.lat)
		}
	}
	return out
}

// loadGen drives p with one goroutine and one connection per client in a
// closed loop: each client sends its next request only after the previous
// reply arrived and was checked. A client stops at its first failure,
// since later requests of a stateful sequence would only repeat it.
type loadGen struct {
	p       *serverProc
	clients []client
	conns   []*http.Client
	res     []clientRun
}

func newLoadGen(p *serverProc, clients []client) *loadGen {
	g := &loadGen{p: p, clients: clients, res: make([]clientRun, len(clients))}
	for range clients {
		g.conns = append(g.conns, newHTTPClient())
	}
	return g
}

func (g *loadGen) close() {
	for _, c := range g.conns {
		c.CloseIdleConnections()
	}
}

func (g *loadGen) parallel(f func(i int)) {
	var wg sync.WaitGroup
	for i := range g.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(i)
		}()
	}
	wg.Wait()
}

// warm sends n checked but untimed requests per client. The warm-up is
// counted in requests, not time, so the server state at its end (and the
// peak RSS read there) does not depend on how fast the server is.
func (g *loadGen) warm(n int) {
	g.parallel(func(i int) {
		for k := 0; k < n && g.res[i].err == ""; k++ {
			send(g.conns[i], g.p.base, g.clients[i], &g.res[i], false, i)
		}
	})
}

// measure runs every client for dur, all starting together, and returns
// the pass's totals (warm-up requests included in attempted and failed).
func (g *loadGen) measure(dur time.Duration) loadResult {
	start := time.Now()
	stopAt := start.Add(dur)
	g.parallel(func(i int) {
		for g.res[i].err == "" && time.Now().Before(stopAt) {
			send(g.conns[i], g.p.base, g.clients[i], &g.res[i], true, i)
		}
	})
	var out loadResult
	last := start
	for _, r := range g.res {
		out.attempted += r.attempted
		out.failed += r.failed
		out.samples = append(out.samples, r.samples...)
		if r.last.After(last) {
			last = r.last
		}
		if r.err != "" {
			out.errs = append(out.errs, r.err)
		}
	}
	out.elapsed = last.Sub(start)
	return out
}

// runLoad is one whole pass: warm-up, then the measured window.
func runLoad(p *serverProc, clients []client, warm int, dur time.Duration) loadResult {
	g := newLoadGen(p, clients)
	defer g.close()
	g.warm(warm)
	return g.measure(dur)
}

// send issues the client's next request on conn, checks the reply, and
// records it in r; timed requests also record their latency.
func send(conn *http.Client, base string, cl client, r *clientRun, timed bool, i int) {
	req := cl.next()
	t0 := time.Now()
	st, body, err := doOn(context.Background(), conn, req.method, base+req.path, req.body)
	lat := time.Since(t0)
	if err == nil {
		err = cl.check(req, st, body)
	}
	r.attempted++
	if err != nil {
		r.failed++
		r.err = fmt.Sprintf("client %d %s %s: %v", i, req.method, req.path, err)
		return
	}
	if !timed {
		return
	}
	r.last = t0.Add(lat)
	r.samples = append(r.samples, sample{lat: lat, edit: req.edit})
}
