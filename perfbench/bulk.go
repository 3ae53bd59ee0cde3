package main

import (
	"fmt"
	stdruntime "runtime"
	"time"

	"progmp/internal/core"
	"progmp/internal/mptcp"
	"progmp/internal/netsim"
	"progmp/internal/obs"
	"progmp/internal/schedlib"
)

// bulk: one connection hands a 64 MiB transfer to Conn.Send at t=0 and
// minRTT, on the workload's back-end, spreads it over two uneven, lossy
// paths. The
// per-segment packet path does nearly all the work: the event heap
// with its RTO re-arms, link sends, ACK and loss handling, and receiver
// reordering across the uneven paths, under a deep send queue.
const (
	bulkBytes = 64 << 20
	// bulkInputs is how many distinct inputs (loss patterns) a run
	// cycles through, all derived from the seed: goodput, a
	// virtual-time figure, is their aggregate, so it does not hinge on
	// one loss pattern.
	bulkInputs = 8
	// lowQuantile picks the reported wall time from repeated timings.
	// On a virtual machine that shares its host, other guests slow the
	// same code by up to 1.6x for seconds at a time, which moves a
	// median between modes from run to run; the low decile, the cost
	// when the host is quiet, moves far less.
	lowQuantile = 0.1
	// bulkChunk is the delivered-segment count per timed slice of a
	// transfer.
	bulkChunk = 2048
	// minSetups is the number of world builds whose median is the
	// part's set-up time.
	minSetups = 11
)

// bulkWorld is one bulk connection with its delivery check.
type bulkWorld struct {
	eng      *netsim.Engine
	conn     *mptcp.Conn
	links    []*netsim.Link
	sched    *core.Scheduler
	next     int64 // next in-order sequence number expected
	bytes    int64
	segs     int64
	misorder int64
	lastAt   time.Duration
	// start and marks time the transfer: marks[j] is the wall time,
	// since start, at which segment (j+1)·bulkChunk was delivered.
	start time.Time
	marks []time.Duration
}

// newBulkWorld loads the scheduler and builds the world up to the
// first byte. A non-nil rec wraps the scheduler and the delivery
// callback in spans.
func newBulkWorld(seed int64, backend core.Backend, rec *recorder) (*bulkWorld, error) {
	s, err := core.Load("minRTT", schedlib.MinRTT, backend)
	if err != nil {
		return nil, err
	}
	s.SetSynchronousSpecialization(true)
	eng := netsim.NewEngine(seed)
	w := &bulkWorld{eng: eng, sched: s, conn: mptcp.NewConn(eng, mptcp.Config{}),
		marks: make([]time.Duration, 0, bulkBytes/1460/bulkChunk+1)}
	for _, p := range []netsim.PathConfig{
		{Name: "wifi", Rate: netsim.ConstantRate(12.5e6), Delay: 10 * time.Millisecond, Loss: netsim.BernoulliLoss{P: 0.002}},
		{Name: "lte", Rate: netsim.ConstantRate(5e6), Delay: 35 * time.Millisecond, Loss: netsim.BernoulliLoss{P: 0.01}},
	} {
		l := netsim.NewLink(eng, p)
		if _, err := w.conn.AddSubflow(mptcp.SubflowConfig{Name: p.Name, Link: l}); err != nil {
			return nil, err
		}
		w.links = append(w.links, l)
	}
	deliver := func(seq int64, size int, at time.Duration) {
		if seq != w.next {
			w.misorder++
		}
		w.next = seq + 1
		w.bytes += int64(size)
		w.segs++
		w.lastAt = at
		if w.segs%bulkChunk == 0 {
			w.marks = append(w.marks, time.Since(w.start))
		}
	}
	if rec == nil {
		w.conn.SetScheduler(s)
		w.conn.Receiver().OnDeliver(deliver)
		return w, nil
	}
	w.conn.SetScheduler(&timedSched{inner: s, rec: rec, span: "sched.exec"})
	w.conn.Receiver().OnDeliver(func(seq int64, size int, at time.Duration) {
		rec.begin("app.deliver")
		deliver(seq, size, at)
		rec.end()
	})
	return w, nil
}

// checkBulk records the transfer's correctness checks: every byte
// delivered once and in order, and the sender fully acknowledged.
func checkBulk(r *result, w *bulkWorld) {
	wantSegs := int64((bulkBytes + 1459) / 1460)
	r.check(w.bytes == bulkBytes, "bulk delivered %d bytes, want %d", w.bytes, bulkBytes)
	r.check(w.segs == wantSegs, "bulk delivered %d segments, want %d", w.segs, wantSegs)
	r.check(w.misorder == 0, "bulk: %d deliveries out of order", w.misorder)
	r.check(w.conn.AllAcked(), "bulk: sender not fully acknowledged")
}

// bulkPart runs one transfer a step, cycling through bulkInputs inputs
// derived from the seed. The traced run alternates untraced and traced
// transfers, so trace.overhead.bulk compares the two under the same
// conditions.
type bulkPart struct {
	o                        opts
	r                        *result
	rep                      int
	setups, allocs           []float64
	traced, untraced         []float64
	chunks                   [][]float64 // chunks[j]: wall seconds of slice j, one per untraced transfer
	inputBytes, inputVirtual float64
	completion               map[int64]time.Duration
	rec                      *recorder
	reg                      *obs.Registry
	st                       bulkTrace
}

func newBulkPart(o opts, r *result) *bulkPart {
	p := &bulkPart{o: o, r: r, completion: map[int64]time.Duration{}, st: bulkTrace{depths: depthDist{}}}
	if o.trace {
		p.rec = newRecorder(time.Now(), calibrateClock(), 0)
		p.reg = obs.NewRegistry()
	}
	return p
}

func (p *bulkPart) name() string   { return "bulk" }
func (p *bulkPart) share() float64 { return 0.3 }

// enough: every input once (the traced run: one traced transfer).
func (p *bulkPart) enough() bool {
	if p.o.trace {
		return p.rep >= 2
	}
	return p.rep >= bulkInputs
}

func (p *bulkPart) setup() error {
	for len(p.setups) < minSetups {
		t0 := time.Now()
		if _, err := newBulkWorld(p.o.seed*bulkInputs, p.o.backend, nil); err != nil {
			return err
		}
		p.setups = append(p.setups, time.Since(t0).Seconds())
	}
	return nil
}

func (p *bulkPart) step() error {
	input := p.o.seed*bulkInputs + int64(p.rep%bulkInputs)
	tracedRep := p.o.trace && p.rep%2 == 1
	p.rep++
	var wrec *recorder
	if tracedRep {
		wrec = p.rec
	}
	stdruntime.GC()
	w, err := newBulkWorld(input, p.o.backend, wrec)
	if err != nil {
		return err
	}
	var m0, m1 stdruntime.MemStats
	stdruntime.ReadMemStats(&m0)
	var wall time.Duration
	if tracedRep {
		wall = p.st.transfer(w, p.rec, p.reg)
	} else {
		w.start = time.Now()
		w.conn.Send(bulkBytes, 0)
		for w.eng.Step() {
		}
		wall = time.Since(w.start)
	}
	stdruntime.ReadMemStats(&m1)
	checkBulk(p.r, w)
	if prev, ok := p.completion[input]; ok {
		p.r.check(w.lastAt == prev, "bulk: input %d replayed to a different completion (%v vs %v)", input, w.lastAt, prev)
	} else {
		p.completion[input] = w.lastAt
		p.inputBytes += float64(w.bytes)
		p.inputVirtual += w.lastAt.Seconds()
	}
	if tracedRep {
		p.traced = append(p.traced, wall.Seconds())
		p.st.finishRep(w, wall)
		return nil
	}
	p.untraced = append(p.untraced, wall.Seconds())
	p.allocs = append(p.allocs, float64(m1.Mallocs-m0.Mallocs)/float64(w.segs))
	prev := time.Duration(0)
	for j, m := range append(w.marks, wall) {
		if j == len(p.chunks) {
			p.chunks = append(p.chunks, nil)
		}
		p.chunks[j] = append(p.chunks[j], (m - prev).Seconds())
		prev = m
	}
	return nil
}

func (p *bulkPart) finish() (float64, error) {
	r := p.r
	if p.o.trace {
		p.st.report(r, p.rec)
		r.set("trace.overhead.bulk", ratio(median(p.traced), median(p.untraced)))
		return median(p.setups), p.rec.writeSpans(spansPath(p.o, "bulk"))
	}
	// A transfer's wall time is the sum over its slices of each slice's
	// low-decile time across the run's transfers. Every transfer
	// delivers the same number of segments, so slice j covers the same
	// stretch of send-queue depth in each; slices are short enough
	// (about 50 ms) that most have a quiet-host sample.
	var est float64
	for _, c := range p.chunks {
		est += quantile(c, lowQuantile)
	}
	segs := float64((bulkBytes + 1459) / 1460)
	r.set("bulk_segments_per_s", segs/est)
	r.set("bulk_allocs_per_segment", median(p.allocs))
	r.set("bulk_goodput_mbps", p.inputBytes*8/p.inputVirtual/1e6)
	r.note("bulk: %d transfers of %d bytes over %d inputs; wall median %.3fs, sliced low-decile estimate %.3fs; set-up median %.4fs",
		len(p.untraced), bulkBytes, len(p.completion), median(p.untraced), est, median(p.setups))
	return median(p.setups), nil
}

// bulkTrace accumulates the traced transfers' layer counts.
type bulkTrace struct {
	steps, segs, execs, pushes, execCount int64
	retx, rtos, dups, linkPkts, linkDrops int64
	uPeak, pendingPeak                    int64
	depths                                depthDist
	sendNs, wall                          float64
}

// transfer runs one traced transfer: Conn.Send and every Engine.Step
// are spans, and the queue depths are sampled after every step.
func (st *bulkTrace) transfer(w *bulkWorld, rec *recorder, reg *obs.Registry) time.Duration {
	w.eng.Instrument(reg)
	pending := reg.Gauge("engine.pending")
	t0 := time.Now()
	rec.begin("mptcp.send")
	w.conn.Send(bulkBytes, 0)
	st.sendNs += rec.end()
	for {
		rec.begin("netsim.step")
		ok := w.eng.Step()
		rec.end()
		if !ok {
			break
		}
		st.steps++
		if p := pending.Value(); p > st.pendingPeak {
			st.pendingPeak = p
		}
		st.depths[int64(w.conn.QueuedSegments())]++
		if u := int64(w.conn.UnackedSegments()); u > st.uPeak {
			st.uPeak = u
		}
	}
	return time.Since(t0)
}

func (st *bulkTrace) finishRep(w *bulkWorld, wall time.Duration) {
	st.segs += w.segs
	st.execs += w.conn.SchedulerExecutions
	stats := w.sched.Stats()
	st.pushes += stats.Pushes
	st.execCount += stats.Executions
	for _, s := range w.conn.Subflows() {
		st.retx += s.Retransmissions
		st.rtos += s.RTOs
	}
	st.dups += w.conn.Receiver().DuplicateSegments
	for _, l := range w.links {
		st.linkPkts += int64(l.Fwd.SentPackets)
		st.linkDrops += int64(l.Fwd.DroppedQueue + l.Fwd.DroppedLoss)
	}
	st.wall += wall.Seconds() * 1e9
}

func (st *bulkTrace) report(r *result, rec *recorder) {
	segs := float64(st.segs)
	step := rec.layer("netsim.step")
	exec := rec.layer("sched.exec")
	r.set("netsim.events_per_segment.bulk", ratio(float64(st.steps), segs))
	r.set("netsim.step_self_ns", ratio(step.self, float64(step.n)))
	r.set("netsim.event_ns", eventNs(int(st.pendingPeak)))
	r.set("netsim.pending_peak", float64(st.pendingPeak))
	r.set("netsim.link_packets_per_segment", ratio(float64(st.linkPkts), segs))
	r.set("netsim.link_drops_per_segment", ratio(float64(st.linkDrops), segs))
	_, mean, peak := st.depths.summary()
	r.set("mptcp.sendq_depth_mean.bulk", mean)
	r.set("mptcp.sendq_depth_peak.bulk", float64(peak))
	r.set("mptcp.unacked_depth_peak", float64(st.uPeak))
	reps := float64(rec.layer("mptcp.send").n)
	r.set("mptcp.send_ms", ratio(st.sendNs, reps)/1e6)
	r.set("mptcp.execs_per_segment", ratio(float64(st.execs), segs))
	r.set("mptcp.retransmissions_per_segment", ratio(float64(st.retx), segs))
	r.set("mptcp.rtos", ratio(float64(st.rtos), reps))
	r.set("mptcp.duplicate_ratio", ratio(float64(st.dups), segs))
	r.set("sched.exec_ns.bulk", ratio(exec.total, float64(exec.n)))
	r.set("sched.push_ratio.bulk", ratio(float64(st.pushes), float64(st.execCount)))
	r.set("sched.exec_share.bulk", ratio(exec.total, st.wall))
	r.note("bulk: send-queue depth after each engine step, %s", st.depths)
	r.note("bulk: sched.exec_share %.4f: %.3fs of Exec in %.3fs traced wall (%d executions)",
		ratio(exec.total, st.wall), exec.total/1e9, st.wall/1e9, exec.n)
	r.note("bulk: engine heap peak %d pending events; %s", st.pendingPeak, fmt.Sprintf("%d spans kept, %d dropped", len(rec.spans), rec.dropped))
}
