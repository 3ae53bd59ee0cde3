package main

import (
	"sort"
	"time"

	"progmp/internal/analysis"
	"progmp/internal/compile"
	"progmp/internal/core"
	"progmp/internal/interp"
	"progmp/internal/lang"
	"progmp/internal/lang/types"
	"progmp/internal/netsim"
	"progmp/internal/obs"
	"progmp/internal/schedlib"
	"progmp/internal/vm"
	"progmp/internal/xstate"
)

// perOp times fn(n) over several batches and returns the median ns per
// operation.
func perOp(n int, fn func(n int)) float64 {
	var per []float64
	for b := 0; b < 7; b++ {
		t0 := time.Now()
		fn(n)
		per = append(per, float64(time.Since(t0))/float64(n))
	}
	return median(per)
}

// sink keeps microbenchmark results live.
var sink int64

// eventNs is the cost of one Engine.At plus the Step that fires it,
// with a no-op callback, while depth other events wait in the heap.
func eventNs(depth int) float64 {
	eng := netsim.NewEngine(1)
	noop := func() {}
	for i := 0; i < depth; i++ {
		eng.At(time.Hour+time.Duration(i), noop)
	}
	return perOp(100000, func(n int) {
		for i := 0; i < n; i++ {
			eng.At(eng.Now()+time.Nanosecond, noop)
			eng.Step()
		}
	})
}

// xstateLoadNs is the cost of one Store.Load plus a Snapshot.Stats
// read, cycling over the store's destinations.
func xstateLoadNs(s *xstate.Store) float64 {
	return perOp(1000000, func(n int) {
		for i := 0; i < n; i++ {
			snap := s.Load()
			if d := snap.Stats(i % (len(snap.Dests) + 1)); d != nil {
				sink += d.SRTTUS
			}
		}
	})
}

// observeNs is the cost of one Histogram.Observe.
func observeNs() float64 {
	h := obs.NewRegistry().Histogram("bench.observe_ns")
	return perOp(1000000, func(n int) {
		for i := 0; i < n; i++ {
			h.Observe(int64(i & 4095))
		}
	})
}

// corpusNames lists the scheduler corpus in a fixed order.
func corpusNames() []string {
	names := make([]string, 0, len(schedlib.All))
	for n := range schedlib.All {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// frontEnd times each stage of loading a scheduler, called directly on
// every corpus program, and reports each as a mean µs per program (the
// median over repetitions of the corpus pass).
func frontEnd(r *result) error {
	stages := []string{"lang.parse_us", "types.check_us", "analysis.analyze_us",
		"interp.build_us", "compile.build_us", "vm.compile_us",
		"core.load_us.interpreter", "core.load_us.compiled", "core.load_us.vm"}
	loads := map[string]core.Backend{
		"core.load_us.interpreter": core.BackendInterpreter,
		"core.load_us.compiled":    core.BackendCompiled,
		"core.load_us.vm":          core.BackendVM,
	}
	names := corpusNames()
	samples := map[string][]float64{}
	for rep := 0; rep < 5; rep++ {
		sum := map[string]time.Duration{}
		for _, name := range names {
			src := schedlib.All[name]
			t0 := time.Now()
			prog, err := lang.Parse(src)
			if err != nil {
				return err
			}
			t1 := time.Now()
			info, err := types.Check(prog)
			if err != nil {
				return err
			}
			t2 := time.Now()
			analysis.Analyze(info, analysis.Options{})
			t3 := time.Now()
			interp.New(info)
			t4 := time.Now()
			compile.New(info)
			t5 := time.Now()
			if _, err := vm.Compile(info, vm.Options{SubflowCount: -1}); err != nil {
				return err
			}
			t6 := time.Now()
			sum["lang.parse_us"] += t1.Sub(t0)
			sum["types.check_us"] += t2.Sub(t1)
			sum["analysis.analyze_us"] += t3.Sub(t2)
			sum["interp.build_us"] += t4.Sub(t3)
			sum["compile.build_us"] += t5.Sub(t4)
			sum["vm.compile_us"] += t6.Sub(t5)
			for metric, b := range loads {
				t := time.Now()
				if _, err := core.Load(name, src, b); err != nil {
					return err
				}
				sum[metric] += time.Since(t)
			}
		}
		for _, s := range stages {
			samples[s] = append(samples[s], float64(sum[s])/1e3/float64(len(names)))
		}
	}
	for _, s := range stages {
		r.set(s, median(samples[s]))
	}
	return nil
}
