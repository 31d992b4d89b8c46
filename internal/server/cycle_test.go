package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
)

// BenchmarkWorkspaceCycle is perfbench's workspace-edit cycle through
// Handler(), on one durable session (DataDir, SnapshotEvery 256) of its
// seed shape: 31 six-edge chains plus one 3000-edge random acyclic
// component. Each op is five requests: add an edge inside a uniformly
// chosen component (two nodes of one of its edges plus a fresh node — an
// ear, so the epoch stays acyclic), read the verdict, read the join tree,
// read it again pinned to the same epoch, and remove the edge. Run with
// -benchmem: B/op and allocs/op are one cycle's.
func BenchmarkWorkspaceCycle(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var comps [][][]string
	for k := 0; k < 31; k++ {
		var comp [][]string
		for j := 0; j < 6; j++ {
			c := func(i int) string { return "c" + strconv.Itoa(k) + "_" + strconv.Itoa(i) }
			comp = append(comp, []string{c(2 * j), c(2*j + 1), c(2*j + 2)})
		}
		comps = append(comps, comp)
	}
	big := gen.RandomAcyclic(rng, gen.RandomSpec{Edges: 3000, MinArity: 2, MaxArity: 4}).EdgeLists()
	for _, e := range big {
		for i := range e {
			e[i] = "b" + e[i]
		}
	}
	comps = append(comps, big)
	var lines []string
	for _, comp := range comps {
		for _, e := range comp {
			lines = append(lines, strings.Join(e, " "))
		}
	}

	dataDir := b.TempDir()
	s := New(Config{DataDir: dataDir, SnapshotEvery: 256, TenantRate: 1e9, TenantBurst: 1 << 30}, nil)
	b.Cleanup(func() {
		// Background compaction writes under dataDir: drain it before the
		// directory is removed.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			b.Errorf("drain: %v", err)
		}
	})
	h := s.Handler()
	serve := func(method, path string, body []byte) []byte {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("%s %s: %d %s", method, path, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	create, _ := json.Marshal(map[string]string{"schema": strings.Join(lines, "\n")})
	var created struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(serve("POST", "/v1/workspaces", create), &created); err != nil {
		b.Fatal(err)
	}
	base := "/v1/workspaces/" + created.ID

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		comp := comps[rng.Intn(len(comps))]
		e := comp[rng.Intn(len(comp))]
		p := rng.Perm(len(e))
		add, _ := json.Marshal(map[string][]string{"nodes": {e[p[0]], e[p[1]], "x" + strconv.Itoa(i)}})
		var added struct {
			Edge  int    `json:"edge"`
			Epoch uint64 `json:"epoch"`
		}
		if err := json.Unmarshal(serve("POST", base+"/edges", add), &added); err != nil {
			b.Fatal(err)
		}
		serve("POST", base+"/query", []byte(`{"op":"verdict"}`))
		serve("POST", base+"/query", []byte(`{"op":"jointree"}`))
		serve("POST", base+"/query", fmt.Appendf(nil, `{"op":"jointree","epoch":%d}`, added.Epoch))
		serve("DELETE", base+"/edges/"+strconv.Itoa(added.Edge), nil)
	}
}
