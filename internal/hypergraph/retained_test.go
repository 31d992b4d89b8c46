package hypergraph_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/hypergraph"
)

// retainedPerSchema parses count relabellings of text, keeps every
// hypergraph alive, and returns the live heap the parsed hypergraphs hold,
// per schema, after two collections. The texts are live before and after,
// so the names the hypergraphs share with them are not charged.
func retainedPerSchema(text string, count int) float64 {
	texts := make([]string, count)
	for i := range texts {
		texts[i] = strings.ReplaceAll(text, "r7_", fmt.Sprintf("r%d_", i))
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	hs := make([]*hypergraph.Hypergraph, count)
	for i, t := range texts {
		hs[i] = hypergraph.MustParse(t)
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(hs)
	runtime.KeepAlive(texts)
	return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(count)
}

// TestParsedSchemaRetainedBytes bounds what a parsed schema-mix schema
// keeps alive: its names, name index, node set and the flat member list
// with its offsets, so storage is a sum of slice lengths. A per-edge
// header or a per-edge bitset would put gamma near 79 KiB, cyclic near
// 71 KiB and alpha near 108 KiB.
func TestParsedSchemaRetainedBytes(t *testing.T) {
	texts := schemaMixTexts()
	for _, c := range []struct {
		family string
		bound  float64
	}{
		{"alpha", 87 << 10},
		{"gamma", 40 << 10},
		{"cyclic", 36 << 10},
	} {
		per := retainedPerSchema(texts[c.family], 64)
		t.Logf("%s: %.1f KiB retained per parsed schema (bound %.0f KiB)", c.family, per/1024, c.bound/1024)
		if per > c.bound {
			t.Errorf("%s: a parsed schema retains %.1f KiB, bound %.0f KiB", c.family, per/1024, c.bound/1024)
		}
	}
}
