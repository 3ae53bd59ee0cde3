package main

import (
	"reflect"
	stdruntime "runtime"
	"time"

	"progmp/internal/core"
	"progmp/internal/fleet"
	"progmp/internal/mptcp"
	"progmp/internal/obs"
	"progmp/internal/schedlib"
	"progmp/internal/xstate"
)

// fleet: 2,000 connections, each its own small world, driven by
// fleet.Run over one shard per CPU for 2 s of virtual time. Each sends
// 16 KiB bursts with 100 ms think time, has 1 % loss on its secondary
// path, and runs qaware on the workload's back-end with one shared
// xstate store. World
// build cost and bytes per connection matter here; heaps are shallow
// and the send queue stays short, so a fix for bulk's deep-queue cost
// should show no change on this part.
const fleetConns = 2000

// fleetRun is one fleet.Run with what the benchmark observes around it.
type fleetRun struct {
	res    fleet.Result
	total  time.Duration // fleet.Run wall time, build included
	allocs uint64
	store  *xstate.Store
	agg    *obs.Aggregator
	scheds []*core.Scheduler
	timed  []*timedSched
}

// runFleetOnce runs the fleet at the given shard count. A non-nil base
// traces it: each shard's scheduler gets its own recorder (shards run
// concurrently), returned in timed.
func runFleetOnce(seed int64, backend core.Backend, shards int, conservation bool, base *recorder) (*fleetRun, error) {
	fr := &fleetRun{store: xstate.NewStore(), agg: obs.NewAggregator()}
	cfg := fleet.Config{
		Conns:        fleetConns,
		Shards:       shards,
		Seed:         seed,
		Duration:     2 * time.Second,
		SendBytes:    16 << 10,
		Think:        100 * time.Millisecond,
		LossProb:     0.01,
		Store:        fr.store,
		Agg:          fr.agg,
		Program:      "qaware",
		Conservation: conservation,
		// fleet.Run calls NewScheduler once per shard, sequentially,
		// before it builds the worlds, so the loads count as set-up.
		NewScheduler: func() (mptcp.Scheduler, error) {
			s, err := core.Load("qaware", schedlib.QAware, backend)
			if err != nil {
				return nil, err
			}
			s.SetSynchronousSpecialization(true)
			fr.scheds = append(fr.scheds, s)
			if base == nil {
				return s, nil
			}
			t := &timedSched{inner: s, span: "sched.exec",
				rec: newRecorder(base.base, base.clock, len(fr.timed)+1)}
			fr.timed = append(fr.timed, t)
			return t, nil
		},
	}
	var m0, m1 stdruntime.MemStats
	stdruntime.ReadMemStats(&m0)
	t0 := time.Now()
	res, err := fleet.Run(cfg)
	fr.total = time.Since(t0)
	stdruntime.ReadMemStats(&m1)
	if err != nil {
		return nil, err
	}
	fr.res, fr.allocs = res, m1.Mallocs-m0.Mallocs
	return fr, nil
}

func (fr *fleetRun) segments() int64 {
	var n int64
	for _, c := range fr.res.PerConn {
		n += c.Segments
	}
	return n
}

// checkFleetRun records the checks every fleet run must pass: the same
// seed gives the same per-connection outcome (ref, when set), and the
// fleet delivered and completed transfers.
func checkFleetRun(r *result, fr *fleetRun, ref *fleetRun) {
	r.check(fr.res.DeliveredBytes > 0 && fr.res.Acked > 0, "fleet delivered %d bytes, %d conns acked",
		fr.res.DeliveredBytes, fr.res.Acked)
	if ref != nil {
		r.check(reflect.DeepEqual(fr.res.PerConn, ref.res.PerConn),
			"fleet: PerConn differs between runs of seed at %d and %d shards", fr.res.Shards, ref.res.Shards)
	}
}

// checkConservation records the conservation run's check: no
// connection delivered a byte twice, out of order or not at all.
func checkConservation(r *result, fr *fleetRun) {
	v := fr.res.ConservationViolations
	first := ""
	if len(v) > 0 {
		first = v[0]
	}
	r.check(len(v) == 0, "fleet: %d conservation violations at %d shards: %s", len(v), fr.res.Shards, first)
}

// fleetPart makes one fleet.Run at one shard per CPU a step (the traced
// run: an untraced and a traced one). When the measuring ends, one more
// run at a single shard with every connection's conservation checked
// must give the same per-connection outcome; it also gives the scaling
// figure.
type fleetPart struct {
	o                     opts
	r                     *result
	shards                int
	setups, rates, allocs []float64
	walls, traced         []float64
	first, last           *fleetRun
	execShare             float64
	depths                depthDist
	rec                   *recorder
}

func newFleetPart(o opts, r *result) *fleetPart {
	p := &fleetPart{o: o, r: r, shards: stdruntime.GOMAXPROCS(0), depths: depthDist{}}
	if o.trace {
		p.rec = newRecorder(time.Now(), calibrateClock(), 0)
	}
	return p
}

func (p *fleetPart) name() string   { return "fleet" }
func (p *fleetPart) share() float64 { return 0.5 }

// setup: fleet.Run builds its worlds itself; each step's set-up is the
// run's wall time minus Result.Wall.
func (p *fleetPart) setup() error { return nil }

func (p *fleetPart) enough() bool {
	if p.o.trace {
		return len(p.walls) >= 1
	}
	return len(p.walls) >= 3
}

func (p *fleetPart) step() error {
	stdruntime.GC()
	fr, err := runFleetOnce(p.o.seed, p.o.backend, p.shards, false, nil)
	if err != nil {
		return err
	}
	if p.first == nil {
		p.first = fr
	}
	checkFleetRun(p.r, fr, p.first)
	segs := float64(fr.segments())
	p.setups = append(p.setups, (fr.total - fr.res.Wall).Seconds())
	p.walls = append(p.walls, fr.res.Wall.Seconds())
	p.rates = append(p.rates, segs/fr.res.Wall.Seconds())
	p.allocs = append(p.allocs, float64(fr.allocs)/segs)
	if !p.o.trace {
		return nil
	}
	stdruntime.GC()
	fr, err = runFleetOnce(p.o.seed, p.o.backend, p.shards, false, p.rec)
	if err != nil {
		return err
	}
	checkFleetRun(p.r, fr, p.first)
	p.traced = append(p.traced, fr.res.Wall.Seconds())
	var execNs float64
	for _, t := range fr.timed {
		execNs += t.own.total
		p.depths.merge(t.depths)
		p.rec.merge(t.rec)
	}
	p.execShare = ratio(execNs, float64(fr.res.Wall)*float64(fr.res.Shards))
	p.last = fr
	return nil
}

func (p *fleetPart) finish() (float64, error) {
	r := p.r
	one, err := runFleetOnce(p.o.seed, p.o.backend, 1, true, p.rec)
	if err != nil {
		return 0, err
	}
	checkFleetRun(r, one, p.first)
	checkConservation(r, one)
	if p.o.trace {
		return median(p.setups), p.report(one)
	}
	r.set("fleet_segments_per_s", quantile(p.rates, 1-lowQuantile))
	r.set("fleet_allocs_per_segment", median(p.allocs))
	r.set("fleet_delivery_p50_ms", float64(p.first.res.DeliveryP50US)/1e3)
	r.set("fleet_delivery_p99_ms", float64(p.first.res.DeliveryP99US)/1e3)
	r.set("fleet_bytes_per_conn", float64(p.first.res.BytesPerConn))
	r.note("fleet: %d runs of %d conns at %d shards; run wall median %.3fs, low decile %.3fs; %d segments each; set-up median %.4fs",
		len(p.walls), fleetConns, p.shards, median(p.walls), quantile(p.walls, lowQuantile), p.first.segments(), median(p.setups))
	return median(p.setups), nil
}

// report sets the traced run's fleet metrics from the last traced run
// and the single-shard run.
func (p *fleetPart) report(one *fleetRun) error {
	r, rec, last := p.r, p.rec, p.last
	res := last.res
	segs := float64(last.segments())
	exec := rec.layer("sched.exec")
	var pushes, execs int64
	for _, s := range last.scheds {
		st := s.Stats()
		pushes += st.Pushes
		execs += st.Executions
	}
	var observations int64
	snap := last.agg.Aggregate()
	for _, h := range snap.Hists {
		observations += h.Count
	}
	var aggMs []float64
	for i := 0; i < 21; i++ {
		t0 := time.Now()
		last.agg.Aggregate()
		aggMs = append(aggMs, float64(time.Since(t0))/1e6)
	}
	r.set("netsim.events_per_segment.fleet", ratio(float64(res.Events), segs))
	_, mean, peak := p.depths.summary()
	r.set("mptcp.sendq_depth_mean.fleet", mean)
	r.set("mptcp.sendq_depth_peak.fleet", float64(peak))
	r.set("sched.exec_ns.fleet", ratio(exec.total, float64(exec.n)))
	r.set("sched.push_ratio.fleet", ratio(float64(pushes), float64(execs)))
	r.set("sched.exec_share.fleet", p.execShare)
	r.set("xstate.epochs", float64(last.store.Epoch()))
	r.set("xstate.dests", float64(last.store.NumDests()))
	r.set("xstate.load_ns", xstateLoadNs(last.store))
	r.set("fleet.evicted_dests", float64(res.EvictedDests))
	r.set("obs.observe_ns", observeNs())
	r.set("obs.observations_per_segment", ratio(float64(observations), segs))
	r.set("obs.aggregate_ms", median(aggMs))
	r.set("fleet.build_s", (last.total - res.Wall).Seconds())
	r.set("fleet.run_s.shards1", one.res.Wall.Seconds())
	r.set("fleet.run_s.shardsN", res.Wall.Seconds())
	r.set("fleet.scaling", ratio(one.res.Wall.Seconds(), res.Wall.Seconds()))
	r.set("fleet.decision_p50_ns", float64(res.DecisionP50NS))
	r.set("fleet.decision_p99_ns", float64(res.DecisionP99NS))
	r.set("fleet.acked_ratio", ratio(float64(res.Acked), float64(res.Conns)))
	r.set("trace.overhead.fleet", ratio(median(p.traced), median(p.walls)))
	r.note("fleet: send-queue depth seen by each decision, %s", p.depths)
	r.note("fleet: sched.exec_share %.4f: Exec time over %d shards x %.3fs run wall", p.execShare, res.Shards, res.Wall.Seconds())
	r.note("fleet: scaling: %.3fs at 1 shard, %.3fs at %d shards", one.res.Wall.Seconds(), res.Wall.Seconds(), res.Shards)
	return rec.writeSpans(spansPath(p.o, "fleet"))
}
