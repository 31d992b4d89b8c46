package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serverProc is one hgserved child process on loopback.
type serverProc struct {
	cmd   *exec.Cmd
	base  string // http://host:port
	flags []string
	done  chan error // receives cmd.Wait's result once
	http  *http.Client
}

// startServer boots hgserved with flags plus a loopback port of its
// choosing, and returns once /healthz answers.
func startServer(bin string, flags []string) (*serverProc, error) {
	args := append([]string{"-addr", "127.0.0.1:0"}, flags...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = io.Discard
	// The kernel kills the server if this process dies first, so an
	// interrupted benchmark leaves nothing running.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start hgserved: %w", err)
	}
	p := &serverProc{cmd: cmd, flags: args, done: make(chan error, 1), http: newHTTPClient()}
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "listening on "); ok {
				addrc <- a
			}
		}
		close(addrc)
	}()
	go func() { p.done <- cmd.Wait() }()
	select {
	case a, ok := <-addrc:
		if !ok {
			p.kill()
			return nil, fmt.Errorf("hgserved exited before listening")
		}
		p.base = "http://" + a
	case <-time.After(30 * time.Second):
		p.kill()
		return nil, fmt.Errorf("hgserved did not report its address")
	}
	for deadline := time.Now().Add(30 * time.Second); ; {
		if st, _, err := p.do(context.Background(), "GET", "/healthz", nil); err == nil && st == 200 {
			return p, nil
		}
		if time.Now().After(deadline) {
			p.kill()
			return nil, fmt.Errorf("hgserved never became healthy")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// newHTTPClient holds exactly one keep-alive connection: one client of the
// closed loop.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}
}

// do sends one request and reads the whole reply.
func (p *serverProc) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	return doOn(ctx, p.http, method, p.base+path, body)
}

func doOn(ctx context.Context, c *http.Client, method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// stop shuts the server down gracefully (SIGTERM) and waits for it; it
// falls back to SIGKILL if the drain overruns.
func (p *serverProc) stop() error {
	p.http.CloseIdleConnections()
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // an already-exited process reports its status below
	select {
	case err := <-p.done:
		return err
	case <-time.After(20 * time.Second):
		p.kill()
		return fmt.Errorf("hgserved did not drain within 20s")
	}
}

// kill ends the server with SIGKILL, the crash the durability check needs,
// and waits for it.
func (p *serverProc) kill() {
	p.http.CloseIdleConnections()
	_ = p.cmd.Process.Kill() // an already-exited process is fine
	<-p.done
}

// peakRSSMB reads VmHWM, the process's resident-set high-water mark.
func (p *serverProc) peakRSSMB() float64 {
	v := procStatus(p.cmd.Process.Pid, "VmHWM")
	kb, _ := strconv.ParseFloat(strings.TrimSuffix(v, " kB"), 64) // a missing field reads 0
	return kb / 1024
}

// gomaxprocs reports the server's GOMAXPROCS: the GOMAXPROCS variable it
// inherited, else the Go runtime's default, the CPUs its affinity mask
// allows.
func (p *serverProc) gomaxprocs() int {
	if v, err := strconv.Atoi(os.Getenv("GOMAXPROCS")); err == nil && v > 0 {
		return v
	}
	return countCPUList(procStatus(p.cmd.Process.Pid, "Cpus_allowed_list"))
}

// procStatus returns one field of /proc/<pid>/status, trimmed ("" when
// absent).
func procStatus(pid int, key string) string {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, key+":"); ok {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// countCPUList counts the CPUs in a list such as "0-3,6".
func countCPUList(s string) int {
	n := 0
	for _, part := range strings.Split(s, ",") {
		lo, hi, found := strings.Cut(part, "-")
		a, err1 := strconv.Atoi(lo)
		b := a
		var err2 error
		if found {
			b, err2 = strconv.Atoi(hi)
		}
		if err1 == nil && err2 == nil && b >= a {
			n += b - a + 1
		}
	}
	return n
}

// metricsz scrapes /metricsz into name -> value (counters, gauges and the
// _sum/_count of histograms; bucket lines are skipped).
func (p *serverProc) metricsz() (map[string]float64, error) {
	st, body, err := p.do(context.Background(), "GET", "/metricsz", nil)
	if err != nil {
		return nil, err
	}
	if st != 200 {
		return nil, fmt.Errorf("/metricsz: status %d", st)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if f, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = f
		}
	}
	return out, nil
}
