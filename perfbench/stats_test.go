package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.1, 1.3}, {0.9, 3.7}, {-1, 1}, {2, 4},
	} {
		if got := quantile(xs, tc.q); !near(got, tc.want) {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, tc.q, got, tc.want)
		}
	}
	if xs[0] != 4 {
		t.Errorf("quantile reordered its input: %v", xs)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
}

// TestQuartileSpread pins the spread to Python's
// statistics.quantiles(xs, n=4) (exclusive method): for 1..10 the
// quartiles are 2.75 and 8.25 and the median 5.5.
func TestQuartileSpread(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; !near(got, want) {
		t.Errorf("quartileSpread(1..10) = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if got, want := quartileSpread([]float64{4, 1, 2}), (4.0-1.0)/2.0; !near(got, want) {
		t.Errorf("quartileSpread([1 2 4]) = %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{3, 3, 3}); got != 0 {
		t.Errorf("spread of equal values = %v, want 0", got)
	}
}

func TestRatioBase(t *testing.T) {
	if got := ratio(3, 0); got != 0 {
		t.Errorf("ratio with an empty base = %v, want 0", got)
	}
	if got := ratio(3, 4); got != 0.75 {
		t.Errorf("ratio(3, 4) = %v", got)
	}
}

func TestSelfTime(t *testing.T) {
	total, self := selfTime(1000, (200+10)+(300+10), 10)
	if total != 990 || self != 470 {
		t.Errorf("selfTime = %v, %v; want 990, 470", total, self)
	}
}

// TestRecorderNesting drives the recorder with a fake clock: a parent
// span from 0 to 100 ns with children 10..30 and 50..60, and a clock
// read costing 2 ns.
func TestRecorderNesting(t *testing.T) {
	ticks := []int64{0, 10, 30, 50, 60, 100}
	r := newRecorder(time.Now(), 2, 0)
	r.read = func() int64 { v := ticks[0]; ticks = ticks[1:]; return v }
	r.begin("parent")
	r.begin("child")
	r.end()
	r.begin("child")
	r.end()
	r.end()
	p, c := r.layer("parent"), r.layer("child")
	if c.n != 2 || !near(c.total, (20-2)+(10-2)) || !near(c.self, c.total) {
		t.Errorf("child = %+v, want n=2 total=self=26", c)
	}
	// parent: 100-2 = 98 total; children cover (20+2)+(10+2) = 34.
	if p.n != 1 || !near(p.total, 98) || !near(p.self, 64) {
		t.Errorf("parent = %+v, want total 98, self 64", p)
	}
	if len(r.spans) != 3 || r.spans[1].parent != 0 || r.spans[2].parent != 0 || r.spans[0].parent != -1 {
		t.Errorf("span parents wrong: %+v", r.spans)
	}
	if r.spans[2].start != 50 || r.spans[2].end != 60 {
		t.Errorf("second child span = %+v, want 50..60", r.spans[2])
	}
}

func TestLayerOfAndDiff(t *testing.T) {
	for name, want := range map[string]string{
		"bulk_segments_per_s":          "end_to_end",
		"decide_ns.vm":                 "end_to_end",
		"netsim.step_self_ns":          "netsim",
		"mptcp.sendq_depth_mean.fleet": "mptcp",
		"fleet_bytes_per_conn":         "end_to_end",
		"runtime.snapshot_ns.vm":       "runtime",
		"core.load_us.interpreter":     "core",
	} {
		if got := layerOf(name); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", name, got, want)
		}
	}
	run := func(failed int, m map[string]float64) report {
		r := report{Attempted: 4, Failed: failed, Metrics: map[string]metricOut{}}
		for n, v := range m {
			r.Metrics[n] = metricOut{Value: v, Unit: "ns"}
		}
		return r
	}
	old := []report{
		run(0, map[string]float64{"netsim.event_ns": 200, "setup_s": 1}),
		run(0, map[string]float64{"netsim.event_ns": 220, "setup_s": 1}),
		run(0, map[string]float64{"netsim.event_ns": 180, "setup_s": 1}),
	}
	new := []report{
		run(1, map[string]float64{"netsim.event_ns": 150, "vm.exec_ns": 300}),
	}
	got := strings.Join(diffLines(old, new), "\n")
	for _, want := range []string{"runs: old 3, new 1", "new 1/4", "[end_to_end]", "[netsim]", "[vm]",
		"200 (0.200)", "-25.0%", "1 (0.000)"} {
		if !strings.Contains(got, want) {
			t.Errorf("diff lacks %q:\n%s", want, got)
		}
	}
}

// TestTablesMatchBenchmarkJSON keeps the metric tables and
// BENCHMARK.json naming the same metrics with the same units.
func TestTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		kind  string
		list  []struct{ Name, Unit string }
		table map[string]string
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(tc.list) != len(tc.table) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the table %d", tc.kind, len(tc.list), len(tc.table))
		}
		for _, m := range tc.list {
			if unit, ok := tc.table[m.Name]; !ok || unit != m.Unit {
				t.Errorf("%s: %s (%s) in BENCHMARK.json, table has %q", tc.kind, m.Name, m.Unit, unit)
			}
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q has no implementation", w.Name)
		}
	}
}

func TestDepthDist(t *testing.T) {
	d := depthDist{0: 5, 2: 3, 10: 2}
	n, mean, peak := d.summary()
	if n != 10 || !near(mean, 2.6) || peak != 10 {
		t.Errorf("summary = %d, %v, %d; want 10, 2.6, 10", n, mean, peak)
	}
	for q, want := range map[float64]int64{0.5: 0, 0.6: 2, 0.8: 2, 0.9: 10, 1: 10} {
		if got := d.quantile(q); got != want {
			t.Errorf("quantile(%v) = %d, want %d", q, got, want)
		}
	}
	d.merge(depthDist{2: 1})
	if d[2] != 4 {
		t.Errorf("merge: d[2] = %d, want 4", d[2])
	}
}
