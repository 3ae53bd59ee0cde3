package main

import (
	"fmt"
	"math/rand"
	"time"

	"progmp/internal/core"
	"progmp/internal/envtest"
	"progmp/internal/mptcp"
	"progmp/internal/mptcp/sched"
	"progmp/internal/netsim"
	"progmp/internal/obs"
	"progmp/internal/runtime"
	"progmp/internal/schedlib"
	"progmp/internal/xstate"
)

// decide: scheduler decisions with no network progress. Every corpus
// program runs on each DSL back-end at 2, 4 and 8 subflows (57
// connections a back-end), and the three programs with a native twin
// run natively. All share one store. The links turn to a one-hour
// delay once the handshakes are done, so windows stay full and no ACK
// arrives; each round advances every engine by 1 µs (no event fires)
// and kicks its connection, so each decision rebuilds its snapshot at a
// new instant. The back-ends and the snapshot arena do nearly all the
// work; loading 171 programs makes set-up measure the front-end and
// compilers.
var (
	decideSubflows = []int{2, 4, 8}
	nativeTwins    = map[string]func() mptcp.Scheduler{
		"minRTT":     func() mptcp.Scheduler { return sched.MinRTT{} },
		"roundRobin": func() mptcp.Scheduler { return sched.RoundRobin{} },
		"redundant":  func() mptcp.Scheduler { return sched.Redundant{} },
	}
	dslBackends = map[string]core.Backend{
		"interpreter": core.BackendInterpreter,
		"compiled":    core.BackendCompiled,
		"vm":          core.BackendVM,
	}
)

const (
	// handshakeEnd is when the links switch to their one-hour delay:
	// after the SYNs went out, before the first data segment.
	handshakeEnd = 1500 * time.Microsecond
	// settleAt is when set-up ends: handshakes done, the initial
	// windows sent and serialized.
	settleAt = 50 * time.Millisecond
	// decideSegments is each connection's queued backlog; far more than
	// eight full windows, so Q never drains.
	decideSegments = 256
	// roundsPerBlock is how many rounds one timed block runs per
	// back-end; blocks rotate over the back-ends.
	roundsPerBlock = 16
	// decideSetups is how many times set-up is timed; the last world
	// is measured.
	decideSetups = 5
	// decideStep is the least measuring time of one step: a run of
	// blocks long enough that the switch from another part costs
	// little.
	decideStep = 200 * time.Millisecond
)

// decideConn is one connection of the decide part.
type decideConn struct {
	prog     string
	subflows int
	eng      *netsim.Engine
	conn     *mptcp.Conn
	core     *core.Scheduler // nil for native
	timed    *timedSched     // traced run only
	q0, u0   int
}

// decideWorld is the decide part's set-up: every connection, by
// back-end, on one store and one event-count registry.
type decideWorld struct {
	byBackend map[string][]*decideConn
	events    *obs.Counter
}

func newDecideWorld(seed int64, rec *recorder) (*decideWorld, error) {
	w := &decideWorld{byBackend: map[string][]*decideConn{}}
	store := xstate.NewStore()
	reg := obs.NewRegistry()
	w.events = reg.Counter("engine.events")
	idx := int64(0)
	for _, b := range backends {
		for _, prog := range corpusNames() {
			twin, hasTwin := nativeTwins[prog]
			if b == "native" && !hasTwin {
				continue
			}
			for _, n := range decideSubflows {
				c := &decideConn{prog: prog, subflows: n}
				var s mptcp.Scheduler
				if b == "native" {
					s = twin()
				} else {
					cs, err := core.Load(prog, schedlib.All[prog], dslBackends[b])
					if err != nil {
						return nil, err
					}
					cs.SetSynchronousSpecialization(true)
					if rec != nil && b == "vm" {
						cs.EnableStepMetrics()
					}
					c.core, s = cs, cs
				}
				if rec != nil {
					c.timed = &timedSched{inner: s, rec: rec, span: "sched.exec." + b}
					s = c.timed
				}
				idx++
				if err := c.build(seed*1000003+idx, s, store, reg); err != nil {
					return nil, err
				}
				w.byBackend[b] = append(w.byBackend[b], c)
			}
		}
	}
	return w, nil
}

// build constructs the connection's world and runs it to settleAt.
func (c *decideConn) build(seed int64, s mptcp.Scheduler, store *xstate.Store, reg *obs.Registry) error {
	c.eng = netsim.NewEngine(seed)
	c.conn = mptcp.NewConn(c.eng, mptcp.Config{Store: store, MinRTO: time.Hour})
	delay := func(at time.Duration) time.Duration {
		if at < handshakeEnd {
			return time.Millisecond
		}
		return time.Hour
	}
	for i := 0; i < c.subflows; i++ {
		name := fmt.Sprintf("p%d", i)
		l := netsim.NewLink(c.eng, netsim.PathConfig{
			Name: name, Rate: netsim.ConstantRate(12.5e6), DelayFn: delay,
		})
		if _, err := c.conn.AddSubflow(mptcp.SubflowConfig{Name: name, Link: l}); err != nil {
			return err
		}
	}
	c.conn.SetScheduler(s)
	c.conn.Send(decideSegments*1460, 0)
	c.eng.RunUntil(settleAt)
	c.eng.Instrument(reg)
	c.q0, c.u0 = c.conn.QueuedSegments(), c.conn.UnackedSegments()
	return nil
}

// round advances every connection of conns by 1 µs and kicks it.
func round(conns []*decideConn) {
	for _, c := range conns {
		c.eng.RunUntil(c.eng.Now() + time.Microsecond)
		c.conn.Kick()
	}
}

func executions(conns []*decideConn) int64 {
	var n int64
	for _, c := range conns {
		n += c.conn.SchedulerExecutions
	}
	return n
}

// startExecutions counts each back-end's executions made at set-up.
func startExecutions(w *decideWorld) map[string]int64 {
	m := map[string]int64{}
	for _, b := range backends {
		m[b] = executions(w.byBackend[b])
	}
	return m
}

// checkDecide records the decide checks: queue state unchanged, no
// event fired, one decision per kick, no VM fallback error, and the
// three DSL back-ends agreeing on random environments.
func checkDecide(r *result, w *decideWorld, seed int64, kicks map[string]int64, execs map[string]int64) {
	for _, b := range backends {
		for _, c := range w.byBackend[b] {
			q, u := c.conn.QueuedSegments(), c.conn.UnackedSegments()
			r.check(q == c.q0 && u == c.u0 && q > 0, "decide %s/%s/%d: queues Q=%d QU=%d, were Q=%d QU=%d",
				b, c.prog, c.subflows, q, u, c.q0, c.u0)
		}
		r.check(execs[b] == kicks[b], "decide %s: %d executions for %d kicks", b, execs[b], kicks[b])
	}
	r.check(w.events.Value() == 0, "decide: %d engine events fired during the rounds", w.events.Value())
	var fallbacks int64
	for _, c := range w.byBackend["vm"] {
		fallbacks += c.core.Stats().FallbackErrors
	}
	r.check(fallbacks == 0, "decide: %d VM fallback errors", fallbacks)
	sameActions(r, w, seed)
}

// sameActions runs every corpus program on the three DSL back-ends
// against the same random envtest environments and checks that they
// emit the same actions.
func sameActions(r *result, w *decideWorld, seed int64) {
	byProg := map[string]map[string]*core.Scheduler{}
	for b := range dslBackends {
		for _, c := range w.byBackend[b] {
			if byProg[c.prog] == nil {
				byProg[c.prog] = map[string]*core.Scheduler{}
			}
			byProg[c.prog][b] = c.core
		}
	}
	for pi, prog := range corpusNames() {
		for e := 0; e < 20; e++ {
			envSeed := seed*7919 + int64(pi*100+e)
			var ref []runtime.Action
			same := true
			for i, b := range []string{"interpreter", "compiled", "vm"} {
				env := envtest.RandomEnv(rand.New(rand.NewSource(envSeed)))
				byProg[prog][b].Exec(env)
				if i == 0 {
					ref = env.Actions
				} else if !envtest.SameActions(ref, env.Actions) {
					same = false
				}
			}
			r.check(same, "decide: back-ends disagree on %s, environment seed %d", prog, envSeed)
		}
	}
}

// decidePart runs blocks for at least decideStep a step. In the traced
// run every block runs untraced rounds and then traced ones, in which
// every Kick is a span with the wrapped Exec as its child.
type decidePart struct {
	o       opts
	r       *result
	rec     *recorder
	w       *decideWorld
	setups  []float64
	blocks  int
	samples map[string][]float64 // ns per decision of each untraced block
	kicks   map[string]int64
	start   map[string]int64
	// traced run
	kickNs                map[string][]float64
	tracedWall, plainWall float64
}

func newDecidePart(o opts, r *result) *decidePart {
	p := &decidePart{o: o, r: r, samples: map[string][]float64{}, kicks: map[string]int64{},
		kickNs: map[string][]float64{}}
	if o.trace {
		p.rec = newRecorder(time.Now(), calibrateClock(), 0)
	}
	return p
}

func (p *decidePart) name() string   { return "decide" }
func (p *decidePart) share() float64 { return 0.2 }
func (p *decidePart) enough() bool   { return p.blocks >= 3 }

func (p *decidePart) setup() error {
	for len(p.setups) < decideSetups {
		t0 := time.Now()
		w, err := newDecideWorld(p.o.seed, p.rec)
		if err != nil {
			return err
		}
		p.setups = append(p.setups, time.Since(t0).Seconds())
		p.w = w
	}
	p.start = startExecutions(p.w)
	if p.o.trace {
		// Set-up executions (specialization included) are not measured.
		p.rec.reset()
		for _, b := range backends {
			setTracing(p.w.byBackend[b], nil)
			for _, c := range p.w.byBackend[b] {
				c.timed.own, c.timed.depths = layerTime{}, nil
			}
		}
		return nil
	}
	// Warm-up: one untimed round per back-end.
	for _, b := range backends {
		round(p.w.byBackend[b])
		p.kicks[b] += int64(len(p.w.byBackend[b]))
	}
	return nil
}

func (p *decidePart) step() error {
	end := time.Now().Add(decideStep)
	for time.Now().Before(end) {
		if p.o.trace {
			p.tracedBlock()
		} else {
			p.block()
		}
		p.blocks++
	}
	return nil
}

// block runs roundsPerBlock rounds of each back-end, the back-ends
// rotating, and times each back-end's rounds.
func (p *decidePart) block() {
	for k := range backends {
		b := backends[(p.blocks+k)%len(backends)]
		conns := p.w.byBackend[b]
		e0 := executions(conns)
		t0 := time.Now()
		for i := 0; i < roundsPerBlock; i++ {
			round(conns)
		}
		dt := time.Since(t0)
		n := executions(conns) - e0
		p.kicks[b] += int64(roundsPerBlock * len(conns))
		p.samples[b] = append(p.samples[b], ratio(float64(dt), float64(n)))
	}
}

// tracedBlock runs, for each back-end, untraced rounds and then as
// many traced ones.
func (p *decidePart) tracedBlock() {
	rec := p.rec
	for _, b := range backends {
		conns, span := p.w.byBackend[b], "mptcp.kick."+b
		t0 := time.Now()
		for i := 0; i < roundsPerBlock; i++ {
			round(conns)
		}
		p.plainWall += float64(time.Since(t0))
		setTracing(conns, rec)
		t1 := time.Now()
		for i := 0; i < roundsPerBlock; i++ {
			for _, c := range conns {
				c.eng.RunUntil(c.eng.Now() + time.Microsecond)
				rec.begin(span)
				c.conn.Kick()
				if len(p.kickNs[b]) < 1<<18 {
					p.kickNs[b] = append(p.kickNs[b], rec.end())
				} else {
					rec.end()
				}
			}
		}
		p.tracedWall += float64(time.Since(t1))
		setTracing(conns, nil)
		p.kicks[b] += int64(2 * roundsPerBlock * len(conns))
	}
}

func (p *decidePart) finish() (float64, error) {
	r, w := p.r, p.w
	execs := map[string]int64{}
	for _, b := range backends {
		execs[b] = executions(w.byBackend[b]) - p.start[b]
	}
	checkDecide(r, w, p.o.seed, p.kicks, execs)
	if p.o.trace {
		return median(p.setups), p.report()
	}
	for _, b := range backends {
		r.set("decide_ns."+b, quantile(p.samples[b], lowQuantile))
	}
	r.note("decide: %d blocks of %d rounds per back-end; connections: %d native, %d per DSL back-end; set-up median %.4fs",
		p.blocks, roundsPerBlock, len(w.byBackend["native"]), len(w.byBackend["vm"]), median(p.setups))
	for _, b := range backends {
		r.note("decide: decide_ns.%s: low decile %.1f, median %.1f ns over %d blocks", b,
			quantile(p.samples[b], lowQuantile), median(p.samples[b]), len(p.samples[b]))
	}
	return median(p.setups), nil
}

// setTracing points the Exec wrappers of conns at rec (nil: untimed).
func setTracing(conns []*decideConn, rec *recorder) {
	for _, c := range conns {
		c.timed.rec = rec
	}
}

// report sets the traced run's decide metrics.
func (p *decidePart) report() error {
	r, w, rec := p.r, p.w, p.rec
	var execTotal float64
	var pushes, dslExecs, steps, generic, vmExecs int64
	minRTT2 := map[string]float64{}
	for _, b := range backends {
		kick := rec.layer("mptcp.kick." + b)
		exec := rec.layer("sched.exec." + b)
		execTotal += exec.total
		r.set("mptcp.kick_p50_ns."+b, quantile(p.kickNs[b], 0.5))
		r.set("mptcp.kick_p99_ns."+b, quantile(p.kickNs[b], 0.99))
		r.set("runtime.snapshot_ns."+b, ratio(kick.self, float64(kick.n)))
		if pkg, ok := execLayer[b]; ok {
			r.set(pkg+".exec_ns", ratio(exec.total, float64(exec.n)))
		}
		for _, c := range w.byBackend[b] {
			if c.prog == "minRTT" && c.subflows == 2 {
				minRTT2[b] = ratio(c.timed.own.total, float64(c.timed.own.n))
			}
			if c.core == nil {
				continue
			}
			st := c.core.Stats()
			pushes += st.Pushes
			dslExecs += st.Executions
			if b == "vm" {
				steps += st.Steps
				generic += st.GenericExecs
				vmExecs += st.Executions
			}
		}
	}
	for b := range execLayer {
		r.set("sched.vs_native."+b, ratio(minRTT2[b], minRTT2["native"]))
	}
	var fallbacks int64
	for _, c := range w.byBackend["vm"] {
		fallbacks += c.core.Stats().FallbackErrors
	}
	r.set("vm.steps_per_exec", ratio(float64(steps), float64(vmExecs)))
	r.set("vm.specialized_ratio", 1-ratio(float64(generic), float64(vmExecs)))
	r.set("vm.fallback_errors", float64(fallbacks))
	r.set("sched.push_ratio.decide", ratio(float64(pushes), float64(dslExecs)))
	r.set("sched.exec_share.decide", ratio(execTotal, p.tracedWall))
	r.set("trace.overhead.decide", ratio(p.tracedWall, p.plainWall))
	if err := frontEnd(r); err != nil {
		return err
	}
	r.note("decide: sched.exec_share %.4f: %.3fs of Exec in %.3fs of traced blocks", ratio(execTotal, p.tracedWall), execTotal/1e9, p.tracedWall/1e9)
	depths := depthDist{}
	for _, b := range backends {
		for _, c := range w.byBackend[b] {
			depths.merge(c.timed.depths)
		}
	}
	r.note("decide: send-queue depth seen by each traced decision, %s", depths)
	r.note("decide: kick samples per back-end: %d native, %d vm", len(p.kickNs["native"]), len(p.kickNs["vm"]))
	return rec.writeSpans(spansPath(p.o, "decide"))
}
