package main

import (
	"runtime/metrics"
	"sort"
	"time"
)

// spanRec is one benchmark-owned span: a named interval around a call into
// one layer, with the heap bytes allocated while it was open.
type spanRec struct {
	name       string
	parent     int // index into the recorder's spans; -1 for a root
	start, end time.Time
	allocBytes uint64
}

// recorder collects the span trees of the traced replay. It is used from
// one goroutine only, and the replay starts no background work (sessions
// compact synchronously, between requests), so the process-wide
// runtime/metrics allocation counter moves only for the call in the open
// span, counting the worker goroutines that call fans out to.
type recorder struct {
	spans  []spanRec
	sample []metrics.Sample
}

func newRecorder() *recorder {
	return &recorder{sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
}

func (r *recorder) heapAllocs() uint64 {
	metrics.Read(r.sample)
	return r.sample[0].Value.Uint64()
}

// begin opens a span under parent and returns its id. The allocation
// counter is read before the clock, and end reads the clock first, so the
// counter reads fall outside the span's own interval.
func (r *recorder) begin(name string, parent int) int {
	a := r.heapAllocs()
	r.spans = append(r.spans, spanRec{name: name, parent: parent, allocBytes: a, start: time.Now()})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	t := time.Now()
	s := &r.spans[id]
	s.end = t
	s.allocBytes = r.heapAllocs() - s.allocBytes
}

// reset drops recorded spans, keeping the buffer.
func (r *recorder) reset() { r.spans = r.spans[:0] }

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover. Over a tree whose children lie
// inside their parents and whose siblings do not overlap (every replayed
// tree), the self times sum to the root's duration.
func selfTimes(spans []spanRec) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.end.Sub(s.start) - covered(s, spans, children[i])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's interval.
func covered(p spanRec, spans []spanRec, kids []int) time.Duration {
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := spans[k].start, spans[k].end
		if a.Before(p.start) {
			a = p.start
		}
		if b.After(p.end) {
			b = p.end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}
