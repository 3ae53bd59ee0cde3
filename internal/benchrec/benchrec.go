// Package benchrec measures the repository's key performance numbers
// and records them in a machine-readable form (BENCH_*.json at the
// repo root), so perf changes show up in review diffs and CI can gate
// on a committed baseline.
//
// A Record holds one experiment list: scheduler execution cost per
// back-end (the Fig. 9 measurement), the instrumented hot-path's
// allocation count and latency quantiles, and the per-connection
// memory footprint. Compare diffs a candidate against a baseline:
// allocation counts are gated exactly (the hot path must stay at 0
// allocs/op), ratios (vs_native) and raw ns/op within configurable
// tolerances — raw times need generous tolerances when baseline and
// candidate ran on different machines; the machine-independent signals
// are allocs_per_op and vs_native.
package benchrec

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	goruntime "runtime"
	"strings"
	"time"

	"progmp/internal/core"
	"progmp/internal/experiments"
	"progmp/internal/fleet"
	"progmp/internal/mptcp"
	"progmp/internal/netsim"
	"progmp/internal/obs"
	"progmp/internal/schedlib"
)

// Schema identifies the record format.
const Schema = "progmp.bench/v1"

// Experiment is one measured row. Zero-valued optional fields are
// omitted; AllocsPerOp always serializes because 0 is its most
// important value.
type Experiment struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// VsNative is the ratio to the native scheduler at the same
	// environment size (machine-independent, the primary CI gate).
	VsNative     float64 `json:"vs_native,omitempty"`
	P50NS        int64   `json:"p50_ns,omitempty"`
	P99NS        int64   `json:"p99_ns,omitempty"`
	P999NS       int64   `json:"p999_ns,omitempty"`
	BytesPerConn int64   `json:"bytes_per_conn,omitempty"`
}

// Record is one full measurement run.
type Record struct {
	Schema      string       `json:"schema"`
	GitRev      string       `json:"git_rev,omitempty"`
	GoVersion   string       `json:"go_version"`
	Seed        int64        `json:"seed"`
	Experiments []Experiment `json:"experiments"`
}

// gitRev best-effort resolves the working tree's short revision; ""
// outside a git checkout.
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// allocsPerRun reports the average allocations per call of f (the
// testing.AllocsPerRun measurement, available outside tests).
func allocsPerRun(runs int, f func()) float64 {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))
	f() // warm up
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	goruntime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// hotPath measures the instrumented scheduling block in the same
// steady state the zero-alloc tests pin: congestion windows full, acks
// withheld, so every trigger runs snapshot + execute + apply without
// transmitting. Latency quantiles come from the conn.sched_exec_ns
// histogram the instrumentation feeds.
func hotPath(seed int64) (Experiment, error) {
	eng := netsim.NewEngine(seed)
	conn := mptcp.NewConn(eng, mptcp.Config{})
	for _, name := range []string{"a", "b"} {
		link := netsim.NewLink(eng, netsim.PathConfig{
			Name: name, Rate: netsim.ConstantRate(10e6), Delay: 20 * time.Millisecond,
		})
		if _, err := conn.AddSubflow(mptcp.SubflowConfig{Name: name, Link: link}); err != nil {
			return Experiment{}, err
		}
	}
	s, err := core.Load("minRTT", schedlib.All["minRTT"], core.BackendVM)
	if err != nil {
		return Experiment{}, err
	}
	s.SetSynchronousSpecialization(true)
	conn.SetScheduler(s)
	reg := obs.NewRegistry()
	conn.Instrument(nil, reg)
	eng.RunUntil(10 * time.Millisecond)

	conn.Send(1<<20, 0)
	for i := 0; i < 64; i++ {
		conn.Kick()
	}
	allocs := allocsPerRun(200, conn.Kick)
	for i := 0; i < 5000; i++ {
		conn.Kick()
	}
	h := reg.Histogram("conn.sched_exec_ns")
	return Experiment{
		Name:        "hotpath_instrumented",
		NsPerOp:     h.Mean(),
		AllocsPerOp: allocs,
		P50NS:       h.Quantile(0.50),
		P99NS:       h.Quantile(0.99),
		P999NS:      h.Quantile(0.999),
	}, nil
}

// bytesPerConn reports the heap cost of one idle connection (with its
// arena, queues and receiver) amortized over n instances.
func bytesPerConn(seed int64, n int) int64 {
	eng := netsim.NewEngine(seed)
	conns := make([]*mptcp.Conn, 0, n)
	goruntime.GC()
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		conns = append(conns, mptcp.NewConn(eng, mptcp.Config{}))
	}
	goruntime.GC()
	goruntime.ReadMemStats(&after)
	per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / int64(n)
	goruntime.KeepAlive(conns)
	if per < 0 {
		per = 0
	}
	return per
}

// fleetExperiments runs a small sharded fleet soak (internal/fleet)
// and reports its headline numbers: scheduler-decision latency
// quantiles (wall ns — machine-dependent, gate with generous
// tolerances), delivery latency quantiles (virtual time scaled to ns —
// machine-independent), and the steady-state heap cost per connection
// world. AllocsPerOp stays 0 by design: the soak's allocation count is
// dominated by world construction and would make the exact allocation
// gate flaky, while the hot path's zero-alloc property is already
// pinned by hotpath_instrumented.
func fleetExperiments(seed int64) ([]Experiment, error) {
	res, err := fleet.Run(fleet.Config{
		Conns:    2000,
		Seed:     seed,
		Duration: 500 * time.Millisecond,
		NewScheduler: func() (mptcp.Scheduler, error) {
			s, err := core.Load("minRTT", schedlib.All["minRTT"], core.BackendVM)
			if err != nil {
				return nil, err
			}
			return s, nil
		},
		Program: "minRTT",
	})
	if err != nil {
		return nil, err
	}
	return []Experiment{
		{
			Name:    "fleet_decision",
			NsPerOp: float64(res.DecisionP50NS),
			P50NS:   res.DecisionP50NS,
			P99NS:   res.DecisionP99NS,
		},
		{
			Name:  "fleet_delivery",
			P50NS: res.DeliveryP50US * 1000,
			P99NS: res.DeliveryP99US * 1000,
		},
		{
			Name:         "fleet_conn_footprint",
			BytesPerConn: res.BytesPerConn,
		},
	}, nil
}

// Measure runs the full experiment list. iters scales the Fig. 9
// execution count (<= 0 selects 200000, the progmp-bench default).
func Measure(seed int64, iters int) (Record, error) {
	if iters <= 0 {
		iters = 200000
	}
	rec := Record{
		Schema:    Schema,
		GitRev:    gitRev(),
		GoVersion: goruntime.Version(),
		Seed:      seed,
	}
	overhead, err := experiments.ExecutionOverhead(iters)
	if err != nil {
		return rec, err
	}
	for _, r := range overhead {
		rec.Experiments = append(rec.Experiments, Experiment{
			Name:     fmt.Sprintf("fig9_%s_%dsbf", r.Backend, r.Subflows),
			NsPerOp:  r.NsPerOp,
			VsNative: r.RelativeToNative,
		})
	}
	hot, err := hotPath(seed)
	if err != nil {
		return rec, err
	}
	rec.Experiments = append(rec.Experiments, hot)
	rec.Experiments = append(rec.Experiments, Experiment{
		Name:         "conn_footprint",
		BytesPerConn: bytesPerConn(seed, 64),
	})
	fleetExps, err := fleetExperiments(seed)
	if err != nil {
		return rec, err
	}
	rec.Experiments = append(rec.Experiments, fleetExps...)
	return rec, nil
}

// WriteFile serializes rec as indented JSON (trailing newline, so the
// committed baseline diffs cleanly).
func WriteFile(path string, rec Record) error {
	buf, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// ReadFile loads a record and checks its schema.
func ReadFile(path string) (Record, error) {
	var rec Record
	buf, err := os.ReadFile(path)
	if err != nil {
		return rec, err
	}
	if err := json.Unmarshal(buf, &rec); err != nil {
		return rec, fmt.Errorf("%s: %v", path, err)
	}
	if rec.Schema != Schema {
		return rec, fmt.Errorf("%s: schema %q, want %q", path, rec.Schema, Schema)
	}
	return rec, nil
}

// Thresholds tunes Compare. NsTol bounds the relative growth of raw
// ns/op (same-machine comparisons; use a generous value across
// machines). RelTol bounds the growth of the machine-independent
// vs_native ratio. Allocation counts have no tolerance: any growth is
// a regression.
type Thresholds struct {
	NsTol  float64
	RelTol float64
}

// Compare diffs cand against base and returns one message per
// regression (empty means the gate passes). Experiments present in
// only one record are ignored: adding a measurement must not fail the
// gate retroactively. Latency quantiles are informational — they ride
// along in the record but carry machine noise raw ns gates already
// cover.
func Compare(base, cand Record, th Thresholds) []string {
	baseByName := make(map[string]Experiment, len(base.Experiments))
	for _, e := range base.Experiments {
		baseByName[e.Name] = e
	}
	var regressions []string
	for _, c := range cand.Experiments {
		b, ok := baseByName[c.Name]
		if !ok {
			continue
		}
		if c.AllocsPerOp > b.AllocsPerOp {
			regressions = append(regressions, fmt.Sprintf(
				"%s: allocs/op %.2f > baseline %.2f (no tolerance)",
				c.Name, c.AllocsPerOp, b.AllocsPerOp))
		}
		if b.NsPerOp > 0 && c.NsPerOp > b.NsPerOp*(1+th.NsTol) {
			regressions = append(regressions, fmt.Sprintf(
				"%s: ns/op %.1f > baseline %.1f +%.0f%%",
				c.Name, c.NsPerOp, b.NsPerOp, th.NsTol*100))
		}
		if b.VsNative > 0 && c.VsNative > b.VsNative*(1+th.RelTol) {
			regressions = append(regressions, fmt.Sprintf(
				"%s: vs_native %.2f > baseline %.2f +%.0f%%",
				c.Name, c.VsNative, b.VsNative, th.RelTol*100))
		}
	}
	return regressions
}
