package main

import (
	"runtime/metrics"
	"sync/atomic"
	"time"
)

// endToEnd maps every end-to-end metric to its unit. Every untraced
// run reports all of them (see README.md).
var endToEnd = map[string]string{
	"setup_s":                  "s",
	"bulk_segments_per_s":      "1/s",
	"bulk_allocs_per_segment":  "count",
	"bulk_goodput_mbps":        "Mbit/s",
	"fleet_segments_per_s":     "1/s",
	"fleet_allocs_per_segment": "count",
	"fleet_delivery_p50_ms":    "ms",
	"fleet_delivery_p99_ms":    "ms",
	"fleet_bytes_per_conn":     "B",
	"decide_ns.native":         "ns",
	"decide_ns.interpreter":    "ns",
	"decide_ns.compiled":       "ns",
	"decide_ns.vm":             "ns",
	"pass_rate":                "ratio",
}

// backends are the decide part's scheduler back-ends, in the order
// they run; the three DSL back-ends follow native.
var backends = []string{"native", "interpreter", "compiled", "vm"}

// execLayer names the package whose Exec a DSL back-end runs.
var execLayer = map[string]string{"interpreter": "interp", "compiled": "compile", "vm": "vm"}

// perLayer maps every per-layer metric to its unit. Every traced run
// reports all of them; a name ending in .bulk, .fleet or .decide is
// measured on that part.
var perLayer = func() map[string]string {
	m := map[string]string{
		"netsim.step_self_ns":               "ns",
		"netsim.event_ns":                   "ns",
		"netsim.pending_peak":               "count",
		"netsim.link_packets_per_segment":   "count",
		"netsim.link_drops_per_segment":     "count",
		"mptcp.unacked_depth_peak":          "count",
		"mptcp.send_ms":                     "ms",
		"mptcp.execs_per_segment":           "count",
		"mptcp.retransmissions_per_segment": "count",
		"mptcp.rtos":                        "count",
		"mptcp.duplicate_ratio":             "ratio",
		"vm.steps_per_exec":                 "count",
		"vm.specialized_ratio":              "ratio",
		"vm.fallback_errors":                "count",
		"lang.parse_us":                     "us",
		"types.check_us":                    "us",
		"analysis.analyze_us":               "us",
		"interp.build_us":                   "us",
		"compile.build_us":                  "us",
		"vm.compile_us":                     "us",
		"xstate.epochs":                     "count",
		"xstate.dests":                      "count",
		"xstate.load_ns":                    "ns",
		"fleet.evicted_dests":               "count",
		"obs.observe_ns":                    "ns",
		"obs.observations_per_segment":      "count",
		"obs.aggregate_ms":                  "ms",
		"fleet.build_s":                     "s",
		"fleet.run_s.shards1":               "s",
		"fleet.run_s.shardsN":               "s",
		"fleet.scaling":                     "ratio",
		"fleet.decision_p50_ns":             "ns",
		"fleet.decision_p99_ns":             "ns",
		"fleet.acked_ratio":                 "ratio",
		"go.gc_cpu_fraction":                "ratio",
		"go.heap_peak_mb":                   "MB",
	}
	for _, p := range []string{"bulk", "fleet"} {
		m["netsim.events_per_segment."+p] = "count"
		m["mptcp.sendq_depth_mean."+p] = "count"
		m["mptcp.sendq_depth_peak."+p] = "count"
		m["sched.exec_ns."+p] = "ns"
	}
	for _, p := range []string{"bulk", "fleet", "decide"} {
		m["sched.push_ratio."+p] = "ratio"
		m["sched.exec_share."+p] = "ratio"
		m["trace.overhead."+p] = "ratio"
	}
	for _, b := range backends {
		m["mptcp.kick_p50_ns."+b] = "ns"
		m["mptcp.kick_p99_ns."+b] = "ns"
		m["runtime.snapshot_ns."+b] = "ns"
	}
	for b, pkg := range execLayer {
		m[pkg+".exec_ns"] = "ns"
		m["sched.vs_native."+b] = "ratio"
		m["core.load_us."+b] = "us"
	}
	return m
}()

// goSampler watches the Go runtime during a traced measurement: the
// GC's share of CPU time and the peak live heap.
type goSampler struct {
	gc0, total0 float64
	peak        atomic.Uint64
	stop, done  chan struct{}
}

var goMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/memory/classes/heap/objects:bytes",
}

func readGoMetrics() (gc, total float64, heap uint64) {
	s := make([]metrics.Sample, len(goMetricNames))
	for i, n := range goMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64(), s[2].Value.Uint64()
}

// startGoSampler starts sampling the heap every 2 ms until finish.
func startGoSampler() *goSampler {
	g := &goSampler{stop: make(chan struct{}), done: make(chan struct{})}
	g.gc0, g.total0, _ = readGoMetrics()
	go func() {
		defer close(g.done)
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			_, _, heap := readGoMetrics()
			if heap > g.peak.Load() {
				g.peak.Store(heap)
			}
			select {
			case <-g.stop:
				return
			case <-t.C:
			}
		}
	}()
	return g
}

// stopWait stops the sampler and waits for it.
func (g *goSampler) stopWait() {
	close(g.stop)
	<-g.done
}

// finish stops the sampler, waits for it, and reports the GC CPU
// fraction and the peak heap in MB into r.
func (g *goSampler) finish(r *result) {
	g.stopWait()
	gc, total, heap := readGoMetrics()
	if heap > g.peak.Load() {
		g.peak.Store(heap)
	}
	r.set("go.gc_cpu_fraction", ratio(gc-g.gc0, total-g.total0))
	r.set("go.heap_peak_mb", float64(g.peak.Load())/(1<<20))
}
