// Command perfbench is the repository's benchmark: it drives the
// ProgMP-Go layers from outside, through their public functions, and
// prints end-to-end metrics (untraced run) or per-layer metrics (traced
// run). Every run measures three parts, bulk, fleet and decide,
// interleaved in one process; the workload names the DSL back-end the
// bulk and fleet parts schedule on. See README.md for the parts and
// metrics, and run.sh for how it is built and run.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"progmp/internal/core"
)

// workloads maps each workload to the back-end its bulk and fleet
// parts run their scheduler on. The decide part times every back-end
// in both.
var workloads = map[string]core.Backend{
	"vm":          core.BackendVM,
	"interpreter": core.BackendInterpreter,
}

// opts are the command-line settings every part receives.
type opts struct {
	workload string
	backend  core.Backend
	seed     int64
	seconds  float64
	trace    bool
	spansDir string
}

// metricOut is one reported metric.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the JSON object the benchmark prints as its last line.
type report struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// result collects one run: its correctness checks and its metrics by
// name (units come from the tables in metrics.go).
type result struct {
	attempted, failed int
	failures          []string
	metrics           map[string]float64
	notes             []string // workload-property report lines, printed to stderr
}

func newResult() *result { return &result{metrics: map[string]float64{}} }

// check records one correctness check.
func (r *result) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.failures) < 20 {
			r.failures = append(r.failures, fmt.Sprintf(format, args...))
		}
	}
}

func (r *result) set(name string, v float64) { r.metrics[name] = v }

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// part is one of the three parts every run measures.
type part interface {
	name() string
	// share is the part's share of the measuring time.
	share() float64
	// setup builds the part's worlds and times the set-up.
	setup() error
	// step does one unit of measured work.
	step() error
	// enough reports whether the part has the least number of steps
	// its figures need.
	enough() bool
	// finish makes the part's remaining checks, sets its metrics and
	// returns the median of its set-up times in seconds.
	finish() (float64, error)
}

// parts are the run's parts, in the order they are set up.
func parts(o opts, r *result) []part {
	return []part{newBulkPart(o, r), newFleetPart(o, r), newDecidePart(o, r)}
}

// measure interleaves the parts' steps until the measuring time is up
// and every part has enough steps, always stepping the part furthest
// behind its share. Interleaving spreads each part's samples over the
// whole run, so a stretch of time in which the host is busy with
// other work slows every part a little rather than one part a lot.
func measure(ps []part, seconds float64) error {
	end := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	spent := make([]float64, len(ps))
	for {
		over := !time.Now().Before(end)
		pick := -1
		for i, p := range ps {
			if over && p.enough() {
				continue
			}
			if pick < 0 || spent[i]/p.share() < spent[pick]/ps[pick].share() {
				pick = i
			}
		}
		if pick < 0 {
			return nil
		}
		t0 := time.Now()
		if err := ps[pick].step(); err != nil {
			return fmt.Errorf("%s: %w", ps[pick].name(), err)
		}
		spent[pick] += time.Since(t0).Seconds()
	}
}

// run sets up, measures and finishes every part.
func run(o opts) (*result, error) {
	r := newResult()
	ps := parts(o, r)
	for _, p := range ps {
		if err := p.setup(); err != nil {
			return nil, fmt.Errorf("%s: %w", p.name(), err)
		}
	}
	var gs *goSampler
	if o.trace {
		gs = startGoSampler()
	}
	if err := measure(ps, o.seconds); err != nil {
		if gs != nil {
			gs.stopWait()
		}
		return nil, err
	}
	if gs != nil {
		gs.finish(r)
	}
	var setup float64
	for _, p := range ps {
		s, err := p.finish()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name(), err)
		}
		setup += s
	}
	if !o.trace {
		r.set("setup_s", setup)
		r.set("pass_rate", 1-ratio(float64(r.failed), float64(r.attempted)))
	}
	return r, nil
}

func main() {
	var (
		workload = flag.String("workload", "vm", "vm or interpreter: the back-end of the bulk and fleet parts")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 10, "measuring time, shared by the three parts")
		trace    = flag.Int("trace", 0, "1: traced run, per-layer metrics; 0: end-to-end metrics")
		spansDir = flag.String("spans-dir", ".bench_build", "directory the traced run writes its spans to")
		diff     = flag.Bool("diff", false, "compare two result files given as arguments, layer by layer")
	)
	flag.Parse()
	if *diff {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: perfbench -diff OLD NEW")
			os.Exit(2)
		}
		if err := diffFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	backend, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	o := opts{workload: *workload, backend: backend, seed: *seed, seconds: *seconds,
		trace: *trace == 1, spansDir: *spansDir}
	if o.seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out := report{Correct: true, Metrics: map[string]metricOut{}}
	if err := res.into(&out, o.trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, n := range res.notes {
		fmt.Fprintln(os.Stderr, n)
	}
	for _, f := range res.failures {
		fmt.Fprintln(os.Stderr, "CHECK FAILED:", f)
	}
	printTable(os.Stderr, out)
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// into adds r's checks and metrics to out. It refuses a metric that is
// not in the benchmark's table for the run's kind or that is not
// finite, and a run that misses one of the table's metrics.
func (r *result) into(out *report, traced bool) error {
	table := endToEnd
	if traced {
		table = perLayer
	}
	for name, v := range r.metrics {
		unit, ok := table[name]
		if !ok {
			return fmt.Errorf("metric %q is not in the benchmark's table", name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %q is not finite", name)
		}
		out.Metrics[name] = metricOut{Value: v, Unit: unit}
	}
	for name := range table {
		if _, ok := r.metrics[name]; !ok {
			return fmt.Errorf("metric %q was not measured", name)
		}
	}
	out.Attempted += r.attempted
	out.Failed += r.failed
	out.Correct = out.Correct && r.failed == 0 && r.attempted > 0
	return nil
}

func printTable(w io.Writer, out report) {
	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := out.Metrics[n]
		fmt.Fprintf(w, "%-40s %16.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "checks: %d attempted, %d failed\n", out.Attempted, out.Failed)
}

// readRuns reads every result in a file: the standard output of one
// or more runs, appended; each line that is a JSON object is one run.
func readRuns(path string) ([]report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []report
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		t := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(t, "{") {
			continue
		}
		var r report
		if err := json.Unmarshal([]byte(t), &r); err != nil {
			return nil, fmt.Errorf("parsing %s: %w", path, err)
		}
		runs = append(runs, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s holds no result", path)
	}
	return runs, nil
}

// layerOf groups a metric name by the layer it measures: the part
// before the first dot; a name without a dot, and decide_ns.<backend>,
// is an end-to-end metric.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 && name[:i] != "decide_ns" {
		return name[:i]
	}
	return "end_to_end"
}

// diffFiles prints the metrics of two result files side by side,
// grouped by layer: each side's median over its runs with the quartile
// spread, and the change of the median from old to new in percent.
func diffFiles(w io.Writer, oldPath, newPath string) error {
	a, err := readRuns(oldPath)
	if err != nil {
		return err
	}
	b, err := readRuns(newPath)
	if err != nil {
		return err
	}
	for _, l := range diffLines(a, b) {
		fmt.Fprintln(w, l)
	}
	for _, r := range append(a, b...) {
		if r.Failed > 0 {
			return errors.New("a result file records failed checks")
		}
	}
	return nil
}

// sideValues collects each metric's values and unit over runs.
func sideValues(runs []report) (map[string][]float64, map[string]string, int, int) {
	vals, units := map[string][]float64{}, map[string]string{}
	var failed, attempted int
	for _, r := range runs {
		failed += r.Failed
		attempted += r.Attempted
		for n, m := range r.Metrics {
			vals[n] = append(vals[n], m.Value)
			units[n] = m.Unit
		}
	}
	return vals, units, failed, attempted
}

// diffLines renders the layer-by-layer comparison of the old and new runs.
func diffLines(old, new []report) []string {
	a, units, fa, ta := sideValues(old)
	b, unitsB, fb, tb := sideValues(new)
	for n, u := range unitsB {
		units[n] = u
	}
	byLayer := map[string][]string{}
	for n := range units {
		byLayer[layerOf(n)] = append(byLayer[layerOf(n)], n)
	}
	layers := make([]string, 0, len(byLayer))
	for l := range byLayer {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	lines := []string{
		fmt.Sprintf("runs: old %d, new %d; checks failed: old %d/%d, new %d/%d", len(old), len(new), fa, ta, fb, tb),
		fmt.Sprintf("  %-40s %22s %22s %-8s %s", "metric", "old median (spread)", "new median (spread)", "unit", "change"),
	}
	side := func(xs []float64) string {
		if xs == nil {
			return "-"
		}
		return fmt.Sprintf("%.6g (%.3f)", median(xs), quartileSpread(xs))
	}
	for _, l := range layers {
		lines = append(lines, "["+l+"]")
		names := byLayer[l]
		sort.Strings(names)
		for _, n := range names {
			change := "n/a"
			if ma := median(a[n]); a[n] != nil && b[n] != nil && ma != 0 {
				change = fmt.Sprintf("%+.1f%%", 100*(median(b[n])/ma-1))
			}
			lines = append(lines, fmt.Sprintf("  %-40s %22s %22s %-8s %s", n, side(a[n]), side(b[n]), units[n], change))
		}
	}
	return lines
}

// spansPath names the traced run's span file for one part.
func spansPath(o opts, part string) string {
	return filepath.Join(o.spansDir, fmt.Sprintf("spans-%s-%s-seed%d.jsonl", o.workload, part, o.seed))
}
