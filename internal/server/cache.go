package server

import (
	"encoding/json"
	"sync"

	"repro/internal/obs"
)

// Response-cache metrics, visible on /metricsz.
var (
	respCacheHits   = obs.C("server_respcache_hits_total")
	respCacheMisses = obs.C("server_respcache_misses_total")
)

// respCache is the epoch-keyed response cache for workspace query bodies:
// the memo plane already answers verdicts and join-tree fragments, but the
// JSON body would be rebuilt on every request. Keys embed the workspace id,
// its epoch, and the op — an edit bumps the epoch, so stale entries are
// unreachable by construction and a FIFO bound recycles them. Values are
// finished bodies (json.RawMessage), written to the wire verbatim: the
// jointree body as jointreeJSON appended it from the handle's parent links,
// the others as json.Marshal made them.
type respCache struct {
	mu      sync.Mutex
	max     int
	entries map[string]json.RawMessage
	order   []string // insertion order; FIFO eviction
}

func newRespCache(max int) *respCache {
	return &respCache{max: max, entries: make(map[string]json.RawMessage, max)}
}

func (c *respCache) get(key string) (json.RawMessage, bool) {
	c.mu.Lock()
	v, ok := c.entries[key]
	c.mu.Unlock()
	if ok {
		respCacheHits.Inc()
	} else {
		respCacheMisses.Inc()
	}
	return v, ok
}

func (c *respCache) put(key string, body json.RawMessage) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		return
	}
	for len(c.entries) >= c.max && len(c.order) > 0 {
		delete(c.entries, c.order[0])
		c.order = c.order[1:]
	}
	c.entries[key] = body
	c.order = append(c.order, key)
}

// Len reports the live entry count (tests pin the bound).
func (c *respCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
