package server

// The mixed edit/query multi-tenant load profile: four tenants hammer
// analyze / jointree / eval / workspace-edit traffic against a deliberately
// small in-flight budget, so the run exercises admission control (sheds),
// the memo plane (warm analyze), and the workspace sessions concurrently.
// The test asserts the robustness invariants (only documented statuses,
// coherent counters) and logs the latency and shed-rate numbers.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
)

func TestMixedTenantLoadProfile(t *testing.T) {
	defer fault.Reset()
	fault.Reset()
	s, ts := newTestServer(t, Config{
		MaxInFlight: 8, // small on purpose: the profile must show shedding
		TenantRate:  100000,
		TenantBurst: 100000,
	}, nil)

	const (
		tenants    = 4
		perTenant  = 150
		concurrent = 24
	)

	// Per-tenant workspace sessions for the edit mix.
	wsIDs := make([]string, tenants)
	for i := range wsIDs {
		resp, body := do(t, "POST", ts.URL+"/v1/workspaces", schemaBody(fig1Text), nil)
		if resp.StatusCode != 200 {
			t.Fatalf("workspace create: %d %s", resp.StatusCode, body)
		}
		var c struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(body, &c); err != nil {
			t.Fatal(err)
		}
		wsIDs[i] = c.ID
	}

	type result struct {
		status  int
		latency time.Duration
	}
	results := make([]result, tenants*perTenant)
	jobs := make(chan int, len(results))
	for i := range results {
		jobs <- i
	}
	close(jobs)

	evalReq := evalBody(64)
	var wg sync.WaitGroup
	for w := 0; w < concurrent; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				tenant := i % tenants
				hdr := map[string]string{"X-Tenant": fmt.Sprintf("tenant-%d", tenant)}
				start := time.Now()
				var resp *http.Response
				switch i % 5 {
				case 0, 1: // warm memoized analysis dominates real traffic
					resp, _ = do(t, "POST", ts.URL+"/v1/analyze", schemaBody(fig1Text), hdr)
				case 2:
					resp, _ = do(t, "POST", ts.URL+"/v1/jointree", schemaBody(fig1Text), hdr)
				case 3:
					resp, _ = do(t, "POST", ts.URL+"/v1/eval", evalReq, hdr)
				default: // workspace edit + epoch query
					wsURL := ts.URL + "/v1/workspaces/" + wsIDs[tenant]
					edge := fmt.Sprintf(`{"nodes":["T%dX%d","T%dY%d"]}`, tenant, i, tenant, i)
					r1, _ := do(t, "POST", wsURL+"/edges", edge, hdr)
					if r1.StatusCode == 200 {
						resp, _ = do(t, "POST", wsURL+"/query", `{"op":"verdict"}`, hdr)
					} else {
						resp = r1
					}
				}
				results[i] = result{status: resp.StatusCode, latency: time.Since(start)}
			}
		}()
	}
	wg.Wait()

	var okLat []time.Duration
	shed := 0
	for i, r := range results {
		switch r.status {
		case 200:
			okLat = append(okLat, r.latency)
		case 429:
			shed++
		default:
			t.Errorf("request %d: undocumented status %d under load", i, r.status)
		}
	}
	if len(okLat) == 0 {
		t.Fatal("no requests succeeded")
	}
	sort.Slice(okLat, func(a, b int) bool { return okLat[a] < okLat[b] })
	pct := func(p float64) time.Duration {
		return okLat[int(p*float64(len(okLat)-1))]
	}
	st := s.Stats()
	if st.Panics != 0 || st.Internal != 0 {
		t.Fatalf("5xx under clean load: %+v", st)
	}
	t.Logf("steady phase: %d requests, %d ok, %d shed, p50 %v, p99 %v, max %v",
		len(results), len(okLat), shed, pct(0.50), pct(0.99), okLat[len(okLat)-1])

	// Overload burst: every admitted request now takes 25ms of injected
	// service time, and a 100-wide burst lands on the 8-slot budget — the
	// server must shed the excess with 429s, never queue unboundedly, never
	// fail any other way.
	fault.Activate(fault.ServerHandle, fault.Injection{
		Kind: fault.KindDelay, Delay: 25 * time.Millisecond,
	})
	const burst = 100
	burstCodes := make([]int, burst)
	var bwg sync.WaitGroup
	for i := 0; i < burst; i++ {
		bwg.Add(1)
		go func(i int) {
			defer bwg.Done()
			resp, _ := do(t, "POST", ts.URL+"/v1/analyze", schemaBody(fig1Text),
				map[string]string{"X-Tenant": fmt.Sprintf("tenant-%d", i%tenants)})
			burstCodes[i] = resp.StatusCode
		}(i)
	}
	bwg.Wait()
	fault.Reset()
	burstOK, burstShed := 0, 0
	for i, c := range burstCodes {
		switch c {
		case 200:
			burstOK++
		case 429:
			burstShed++
		default:
			t.Errorf("burst request %d: undocumented status %d", i, c)
		}
	}
	if burstShed == 0 {
		t.Fatal("overload burst shed nothing with 100 requests on 8 slots")
	}
	shedRate := float64(burstShed) / float64(burst)
	t.Logf("overload burst: %d requests, %d ok, %d shed (%.1f%% shed rate)",
		burst, burstOK, burstShed, 100*shedRate)
	st = s.Stats()
	if st.Panics != 0 || st.Internal != 0 {
		t.Fatalf("5xx during burst: %+v", st)
	}
	t.Logf("server stats: %+v", st)
}
