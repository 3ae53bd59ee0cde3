package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"progmp/internal/mptcp"
	"progmp/internal/runtime"
)

// span is one timed call into a layer, recorded from outside the layer
// at the call boundary.
type span struct {
	name       string
	lane       int   // recorder that took the span (fleet: one per shard)
	parent     int32 // index of the enclosing kept span; -1 at the top or when not kept
	start, end int64 // ns since the run's clock base
}

// openSpan is a span whose call has not returned yet.
type openSpan struct {
	name  string
	kept  int32 // index into recorder.spans, -1 when over the cap
	start int64
	child float64 // parent-interval ns covered by child spans, clock reads included
}

// layerTime accumulates the timed calls of one span name.
type layerTime struct {
	n     int64
	total float64 // ns, the clock-read cost subtracted from every call
	self  float64 // total minus the time covered by child spans
}

// maxKeptSpans bounds the spans a recorder keeps for writing out; the
// per-layer sums cover every span regardless.
const maxKeptSpans = 1 << 17

// recorder keeps spans in memory and sums each layer's time. It is
// single-threaded: concurrent shards each get their own.
type recorder struct {
	base    time.Time
	read    func() int64 // ns since base; a test substitutes a fake clock
	clock   float64      // ns cost of one clock read
	lane    int
	spans   []span
	dropped int64
	stack   []openSpan
	layers  map[string]*layerTime
}

func newRecorder(base time.Time, clock float64, lane int) *recorder {
	return &recorder{base: base, clock: clock, lane: lane, layers: map[string]*layerTime{},
		read: func() int64 { return int64(time.Since(base)) }}
}

// begin opens a span named name, nested in the innermost open span.
func (r *recorder) begin(name string) {
	kept := int32(-1)
	if len(r.spans) < maxKeptSpans {
		parent := int32(-1)
		if k := len(r.stack); k > 0 {
			parent = r.stack[k-1].kept
		}
		kept = int32(len(r.spans))
		r.spans = append(r.spans, span{name: name, lane: r.lane, parent: parent})
	} else {
		r.dropped++
	}
	r.stack = append(r.stack, openSpan{name: name, kept: kept, start: r.read()})
}

// end closes the innermost open span and returns its duration net of
// one clock read.
func (r *recorder) end() float64 {
	t := r.read()
	k := len(r.stack) - 1
	o := r.stack[k]
	r.stack = r.stack[:k]
	measured := float64(t - o.start)
	total, self := selfTime(measured, o.child, r.clock)
	if k > 0 {
		r.stack[k-1].child += measured + r.clock
	}
	if o.kept >= 0 {
		r.spans[o.kept].start, r.spans[o.kept].end = o.start, t
	}
	lt := r.layers[o.name]
	if lt == nil {
		lt = &layerTime{}
		r.layers[o.name] = lt
	}
	lt.n++
	lt.total += total
	lt.self += self
	return total
}

// selfTime splits a span's measured interval into its own duration and
// its self time. One clock read falls inside every measured interval,
// so the span's duration is measured−clock. Each child span covers its
// own measured interval plus one more clock read of the parent's
// interval (the read that falls outside the child), so the parent's
// self time is its duration minus childCovered, the sum over children
// of measured+clock.
func selfTime(measured, childCovered, clock float64) (total, self float64) {
	total = measured - clock
	self = total - childCovered
	return total, self
}

// layer returns the accumulated time of span name (zero value when the
// name never occurred).
func (r *recorder) layer(name string) layerTime {
	if lt := r.layers[name]; lt != nil {
		return *lt
	}
	return layerTime{}
}

// merge folds other's layer sums and kept spans into r (fleet shards).
func (r *recorder) merge(other *recorder) {
	for name, lt := range other.layers {
		acc := r.layers[name]
		if acc == nil {
			acc = &layerTime{}
			r.layers[name] = acc
		}
		acc.n += lt.n
		acc.total += lt.total
		acc.self += lt.self
	}
	off := int32(len(r.spans))
	for _, s := range other.spans {
		if len(r.spans) >= maxKeptSpans {
			r.dropped++
			continue
		}
		if s.parent >= 0 {
			s.parent += off
		}
		r.spans = append(r.spans, s)
	}
	r.dropped += other.dropped
}

// reset drops every span and sum, keeping the clock base.
func (r *recorder) reset() {
	r.spans, r.stack, r.dropped = r.spans[:0], r.stack[:0], 0
	r.layers = map[string]*layerTime{}
}

// writeSpans writes the kept spans as JSON lines, one span a line, in
// start order, with a header line giving the clock-read cost and the
// number of spans dropped over the cap.
func (r *recorder) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"clock_read_ns\":%.2f,\"spans\":%d,\"dropped\":%d}\n", r.clock, len(r.spans), r.dropped)
	order := make([]int, len(r.spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return r.spans[order[a]].start < r.spans[order[b]].start })
	for _, i := range order {
		s := r.spans[i]
		fmt.Fprintf(w, "{\"id\":%d,\"name\":%q,\"lane\":%d,\"parent\":%d,\"start_ns\":%d,\"end_ns\":%d}\n",
			i, s.name, s.lane, s.parent, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// timedSched wraps a scheduler so the traced run times every Exec as a
// span and samples the send-queue depth each decision sees. With a nil
// rec it only passes the call on.
type timedSched struct {
	inner mptcp.Scheduler
	rec   *recorder
	span  string
	// own sums this instance's Exec time (decide: per connection).
	own    layerTime
	depths depthDist
}

func (t *timedSched) Exec(env *runtime.Env) {
	if t.rec == nil {
		t.inner.Exec(env)
		return
	}
	if t.depths == nil {
		t.depths = depthDist{}
	}
	t.depths[int64(env.Queue(runtime.QueueSend).Len())]++
	t.rec.begin(t.span)
	t.inner.Exec(env)
	d := t.rec.end()
	t.own.n++
	t.own.total += d
}
