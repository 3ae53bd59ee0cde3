package mptcp

import (
	"fmt"
	"time"

	"progmp/internal/netsim"
	"progmp/internal/obs"
	"progmp/internal/runtime"
	"progmp/internal/xstate"
)

// Scheduler is the execution interface of the scheduling block: one
// run against an environment snapshot. core.Scheduler (ProgMP programs
// on any back-end) and the native reference schedulers in package
// sched both implement it.
type Scheduler interface {
	// Exec runs one scheduler execution. The directive is a proof
	// obligation on every implementation: Conn.schedule invokes it on
	// the allocation-free hot path.
	//
	//progmp:hotpath
	Exec(env *runtime.Env)
}

// Config holds connection parameters.
type Config struct {
	// MSS is the maximum segment payload (default 1460).
	MSS int
	// CC is the congestion-control algorithm (default LIA).
	CC CongestionControl
	// RcvBuf is the receiver buffer bounding the receive window
	// (default 4 MiB).
	RcvBuf int
	// ReceiverMode selects the legacy two-level queue behaviour or the
	// optimized §4.2 receiver (default optimized).
	ReceiverMode ReceiverMode
	// MinRTO floors the retransmission timeout (default 200 ms).
	MinRTO time.Duration
	// InitialCwnd in segments (default 10).
	InitialCwnd float64
	// TSQLimitBytes is the TCP-small-queues transmit budget per
	// subflow (default 2 segments).
	TSQLimitBytes int
	// MaxSchedIterations bounds compressed executions per trigger
	// (default 4096). Setting it to 1 disables compressed executions
	// (ablation of the §4.1 optimization).
	MaxSchedIterations int
	// DisableTSQWake suppresses the TSQ-drain scheduler trigger so
	// scheduling becomes purely ACK-clocked (ablation of the trigger
	// model, Fig. 4).
	DisableTSQWake bool
	// Store attaches a cross-connection shared-state store: schedulers
	// gain the global registers G1..G8 and the per-destination path
	// statistics (XRTT, XLOST, XDELIVERED, XQUAR), and the connection
	// publishes its own RTT/loss/delivery observations keyed by subflow
	// name. Nil keeps the connection isolated — globals stay
	// connection-local and X-properties read 0.
	Store *xstate.Store
}

func (c *Config) applyDefaults() {
	if c.MSS == 0 {
		c.MSS = 1460
	}
	if c.CC == nil {
		c.CC = LIA{}
	}
	if c.RcvBuf == 0 {
		c.RcvBuf = 4 << 20
	}
	if c.MinRTO == 0 {
		c.MinRTO = 200 * time.Millisecond
	}
	if c.InitialCwnd == 0 {
		c.InitialCwnd = 10
	}
	if c.TSQLimitBytes == 0 {
		c.TSQLimitBytes = 2 * c.MSS
	}
	if c.MaxSchedIterations == 0 {
		c.MaxSchedIterations = 4096
	}
}

// Conn is the sender-side meta socket of one MPTCP connection, wired
// to its receiver through the subflows' simulated links.
//
// Queue invariants presented to schedulers (pairwise disjoint views,
// §3.1): Q holds never-transmitted segments; QU holds transmitted,
// unacknowledged segments that are not reinjection candidates; RQ
// holds suspected-lost segments awaiting reinjection. A successful
// PUSH moves a segment out of Q (and out of RQ) automatically;
// cumulative DATA_ACKs remove segments from all queues.
type Conn struct {
	eng *netsim.Engine
	cfg Config
	cc  CongestionControl

	sched Scheduler
	regs  [runtime.NumRegisters]int64
	store *xstate.Store
	// destsReleased latches ReleaseDests so teardown paths may call it
	// from several places without double-releasing store references.
	destsReleased bool

	subflows []*Subflow
	receiver *Receiver

	sendQ     packetList // Q
	unackedQ  packetList // transmitted, un-DATA_ACKed (superset of RQ)
	reinjectQ packetList // RQ

	nextSeq  int64
	cumAcked int64 // meta seq below which everything is acked
	rwnd     int64 // latest advertised receive window (bytes)
	// Sequence-space window accounting (bytes): ackedOffset is the
	// stream offset below which everything is cumulatively acked;
	// maxSentEnd is the end offset of the highest segment ever
	// transmitted. New data must satisfy
	// end - ackedOffset <= rwnd; retransmissions always fit.
	ackedOffset int64
	maxSentEnd  int64
	bytesQueued int64 // total bytes enqueued so far (next Offset)
	// seqWin holds every enqueued packet the cumulative DATA_ACK does
	// not cover yet, in sequence order: the seqs
	// [nextSeq-seqWin.len(), nextSeq). It resolves scheduler packet
	// handles; acked packets leave it, so a connection keeps no
	// packet it has finished with.
	seqWin deque[*Packet]

	// Snapshot arena (§4.1): recycled environment, subflow views and
	// lazily-materialized queue views. The three sources feed the
	// arena's queues; lastNow and the last* version stamps decide when
	// a queue's materialized views survive into the next execution.
	arena     *runtime.Arena
	qSrc      pktSource
	quSrc     pktSource
	rqSrc     pktSource
	quSnap    []*Packet // QU minus RQ members, rebuilt only when stale
	snapValid bool
	lastNow   time.Duration
	lastQVer  uint64
	lastQUVer uint64
	lastRQVer uint64

	// applyActions bookkeeping, recycled across passes.
	applyGen   uint64
	popScratch []popEntry

	scheduling   bool
	schedPending bool
	// Scheduler swap deferred to the execution boundary (see
	// SetScheduler): applied at the top of the next schedule iteration
	// so no execution observes a half-installed program.
	pendingSched    Scheduler
	hasPendingSched bool

	// Observability (nil when not instrumented; every handle below is
	// nil-safe, so the uninstrumented data path pays one nil check).
	tracer  *obs.Tracer
	connID  int32
	curExec uint64 // scheduler execution id during schedule(); 0 outside

	metricsReg *obs.Registry
	mExecs     *obs.Counter
	mPushes    *obs.Counter
	mPops      *obs.Counter
	mDrops     *obs.Counter
	mReinjects *obs.Counter
	mAcks      *obs.Counter
	mEnqueued  *obs.Counter
	mRegOOB    *obs.Counter
	// Hot-path latency histograms (ns): scheduler execution and action
	// application. Timed only when resolved, so the uninstrumented path
	// pays one nil check and no clock reads.
	mExecNS  *obs.Histogram
	mApplyNS *obs.Histogram

	// Stats.
	SchedulerExecutions int64
	TotalEnqueued       int64
	onAllAcked          func()
}

// NewConn creates a connection with its receiver.
func NewConn(eng *netsim.Engine, cfg Config) *Conn {
	cfg.applyDefaults()
	c := &Conn{
		eng:       eng,
		cfg:       cfg,
		cc:        cfg.CC,
		sendQ:     packetList{bit: inQ, sorted: true},
		unackedQ:  packetList{bit: inQU, sorted: true},
		reinjectQ: packetList{bit: inRQ},
		rwnd:      int64(cfg.RcvBuf),
	}
	c.arena = runtime.NewArena(&c.regs)
	c.receiver = newReceiver(c, cfg.ReceiverMode, cfg.RcvBuf)
	c.store = cfg.Store
	return c
}

// Store returns the attached shared-state store (nil when detached).
func (c *Conn) Store() *xstate.Store { return c.store }

// Engine returns the simulation engine.
func (c *Conn) Engine() *netsim.Engine { return c.eng }

// Config returns the connection configuration.
func (c *Conn) Config() Config { return c.cfg }

// Receiver returns the peer model.
func (c *Conn) Receiver() *Receiver { return c.receiver }

// Instrument attaches decision tracing and/or a metrics registry to
// the connection. Either argument may be nil to leave that facility
// off. Call it before traffic starts; handles are resolved once here
// (and in AddSubflow for later subflows) so the data path never does
// registry lookups. Multiple connections may share a tracer and a
// registry — events carry a per-tracer connection id, and metric
// names are namespaced per connection when an id is assigned.
func (c *Conn) Instrument(t *obs.Tracer, reg *obs.Registry) {
	c.tracer = t
	c.connID = t.RegisterConn()
	c.metricsReg = reg
	if reg != nil {
		c.mExecs = reg.Counter("conn.sched_execs")
		c.mPushes = reg.Counter("conn.pushes")
		c.mPops = reg.Counter("conn.pops")
		c.mDrops = reg.Counter("conn.drops")
		c.mReinjects = reg.Counter("conn.reinjects")
		c.mAcks = reg.Counter("conn.acks")
		c.mEnqueued = reg.Counter("conn.enqueued_segments")
		c.mRegOOB = reg.Counter("api.register_oob")
		c.mExecNS = reg.Histogram("conn.sched_exec_ns")
		c.mApplyNS = reg.Histogram("conn.sched_apply_ns")
		c.receiver.instrument(reg)
		for _, s := range c.subflows {
			s.instrument(reg)
		}
	}
}

// Tracer returns the attached tracer (nil when tracing is off).
func (c *Conn) Tracer() *obs.Tracer { return c.tracer }

// TraceConnID returns the connection id assigned by the attached tracer
// (0 when tracing is off), so auxiliary instruments — e.g. a scheduler
// supervisor — can label their events with the same identity.
func (c *Conn) TraceConnID() int32 { return c.connID }

// Kick triggers a scheduling pass outside the normal trigger model.
// Supervision watchdogs use it to re-drive a connection whose scheduler
// went quiet with work pending (no ACK clock left to trigger it).
func (c *Conn) Kick() { c.schedule() }

// Metrics returns the attached metrics registry (nil when off).
func (c *Conn) Metrics() *obs.Registry { return c.metricsReg }

// trace records one event with the connection's identity and the
// current scheduler execution id. The tracing-off cost is this nil
// check.
func (c *Conn) trace(kind obs.EventKind, sbf int32, seq, aux int64, site int32) {
	if c.tracer == nil {
		return
	}
	c.tracer.Record(obs.Event{
		At:   c.eng.Now(),
		Kind: kind,
		Conn: c.connID,
		Exec: c.curExec,
		Sbf:  sbf,
		Seq:  seq,
		Aux:  aux,
		Site: site,
	})
}

// SetScheduler installs the scheduling block. It is safe at any time,
// including mid-transfer: a swap requested while a scheduling pass is
// executing is deferred and applied atomically at the next execution
// boundary, so no execution ever observes a half-installed program.
// Replacing a running scheduler emits a SCHED_SWAP trace event and
// immediately triggers a scheduling pass under the new program. (The
// paper exposes scheduler choice per connection, §3.2; the control
// plane extends it to live hot-swap, see internal/ctl.)
func (c *Conn) SetScheduler(s Scheduler) {
	if c.scheduling {
		c.pendingSched = s
		c.hasPendingSched = true
		c.schedPending = true
		return
	}
	swapped := c.sched != nil && s != nil && c.sched != s
	c.sched = s
	if swapped {
		c.trace(obs.EvSchedSwap, -1, -1, 0, 0)
		c.schedule()
	}
}

// applyPendingSched commits a deferred scheduler swap at an execution
// boundary inside schedule().
func (c *Conn) applyPendingSched() {
	prev := c.sched
	c.sched = c.pendingSched
	c.pendingSched = nil
	c.hasPendingSched = false
	if prev != nil && c.sched != nil && prev != c.sched {
		c.trace(obs.EvSchedSwap, -1, -1, 1, 0)
	}
}

// NoteSchedSwap records a SCHED_SWAP trace event for scheduler
// replacements applied inside a wrapper the connection cannot observe
// through SetScheduler — e.g. a guard.Supervisor retargeting its
// supervised program during a control-plane hot-swap.
func (c *Conn) NoteSchedSwap() { c.trace(obs.EvSchedSwap, -1, -1, 2, 0) }

// SetRegister writes a scheduler register through the extended
// scheduling API (§3.2) and triggers a scheduling pass so the new
// intent takes effect immediately. An out-of-range index is rejected
// with an error (and counted as api.register_oob when a metrics
// registry is attached).
func (c *Conn) SetRegister(i int, v int64) error {
	if i < 0 || i >= runtime.NumRegisters {
		c.mRegOOB.Add(1)
		return fmt.Errorf("mptcp: register index %d out of range [0, %d)", i, runtime.NumRegisters)
	}
	c.regs[i] = v
	c.schedule()
	return nil
}

// Register reads a scheduler register.
func (c *Conn) Register(i int) int64 {
	if i < 0 || i >= runtime.NumRegisters {
		return 0
	}
	return c.regs[i]
}

// AddSubflow registers a subflow; the path manager establishes it at
// cfg.StartAt.
func (c *Conn) AddSubflow(cfg SubflowConfig) (*Subflow, error) {
	if len(c.subflows) >= runtime.MaxSubflows {
		return nil, fmt.Errorf("mptcp: subflow limit %d reached", runtime.MaxSubflows)
	}
	if cfg.Link == nil {
		return nil, fmt.Errorf("mptcp: subflow %q has no link", cfg.Name)
	}
	initialCwnd := cfg.InitialCwnd
	if initialCwnd == 0 {
		initialCwnd = c.cfg.InitialCwnd
	}
	s := &Subflow{
		id:            len(c.subflows),
		name:          cfg.Name,
		conn:          c,
		link:          cfg.Link,
		backup:        cfg.Backup,
		cwnd:          initialCwnd,
		ssthresh:      1 << 20, // effectively unbounded until first loss
		highestSacked: -1,
		destID:        -1,
	}
	if c.store != nil {
		// Destination identity is the subflow name: connections sharing a
		// path (same name) aggregate their observations into one record.
		name := cfg.Name
		if name == "" {
			name = fmt.Sprintf("sbf%d", s.id)
		}
		s.destID = c.store.DestID(name)
	}
	c.subflows = append(c.subflows, s)
	c.receiver.addSubflow()
	if c.metricsReg != nil {
		s.instrument(c.metricsReg)
	}
	c.eng.At(cfg.StartAt, s.establish)
	return s, nil
}

// Subflows returns all subflows (including closed ones; check
// Established/Closed).
func (c *Conn) Subflows() []*Subflow { return c.subflows }

// Send enqueues n bytes with the given per-packet scheduling intent
// (§3.2 packet properties), split into MSS-sized segments, and
// triggers the scheduler (Fig. 4: packets arrive in Q).
func (c *Conn) Send(n int, prop int64) {
	now := c.eng.Now()
	firstSeq, bytes := c.nextSeq, int64(n)
	for n > 0 {
		size := c.cfg.MSS
		if n < size {
			size = n
		}
		n -= size
		pkt := &Packet{
			Seq:        c.nextSeq,
			Size:       size,
			Offset:     c.bytesQueued,
			Prop:       prop,
			EnqueuedAt: now,
		}
		c.bytesQueued += int64(size)
		c.nextSeq++
		c.seqWin.pushBack(pkt)
		c.sendQ.pushBack(pkt)
		c.TotalEnqueued++
	}
	c.mEnqueued.Add(c.nextSeq - firstSeq)
	c.trace(obs.EvEnqueue, -1, firstSeq, bytes, 0)
	c.schedule()
}

// QueuedSegments returns the Q length.
func (c *Conn) QueuedSegments() int { return c.sendQ.len() }

// UnackedSegments returns the number of transmitted, unacked segments.
func (c *Conn) UnackedSegments() int { return c.unackedQ.len() }

// AllAcked reports whether every enqueued byte has been cumulatively
// acknowledged.
func (c *Conn) AllAcked() bool {
	return c.sendQ.len() == 0 && c.unackedQ.len() == 0 && c.nextSeq > 0
}

// OnAllAcked registers a callback fired when the send buffer fully
// drains (used for flow-completion-time measurements).
func (c *Conn) OnAllAcked(fn func()) { c.onAllAcked = fn }

// ReleaseDests drops the connection's shared-store destination
// references (one per subflow, acquired at AddSubflow). Call it when
// the connection finishes: the store only evicts idle per-destination
// records once every referencing connection has released them, so a
// fleet that retires connections without releasing leaks dest records
// across churn. Idempotent; a no-op without an attached store.
//
//progmp:deterministic
func (c *Conn) ReleaseDests() {
	if c.store == nil || c.destsReleased {
		return
	}
	c.destsReleased = true
	for _, s := range c.subflows {
		if s.destID >= 0 {
			c.store.ReleaseDest(s.destID)
		}
	}
}

// rwndFreeBytes is the remaining receive window for new data:
// advertised window minus the sequence space already in use between
// the cumulative ACK and the highest transmitted byte.
func (c *Conn) rwndFreeBytes() int64 {
	used := c.maxSentEnd - c.ackedOffset
	free := c.rwnd - used
	if free < 0 {
		free = 0
	}
	return free
}

// withinWindow reports whether transmitting pkt respects the receive
// window. Segments at or below the current send frontier are
// retransmissions of in-window data and always pass (TCP window
// semantics are sequence space, not bytes in flight).
func (c *Conn) withinWindow(pkt *Packet) bool {
	end := pkt.Offset + int64(pkt.Size)
	if end <= c.maxSentEnd {
		return true
	}
	return end-c.ackedOffset <= c.rwnd
}

// noteTransmitted advances the send frontier.
func (c *Conn) noteTransmitted(pkt *Packet) {
	if end := pkt.Offset + int64(pkt.Size); end > c.maxSentEnd {
		c.maxSentEnd = end
	}
}

// inFlightElsewhere reports whether pkt has an outstanding
// transmission on a live subflow other than except.
func (c *Conn) inFlightElsewhere(pkt *Packet, except *Subflow) bool {
	for _, s := range c.subflows {
		if s == except || !s.usable() {
			continue
		}
		for _, rec := range s.outstanding {
			if rec.pkt == pkt {
				return true
			}
		}
	}
	return false
}

// returnToSendQ puts a no-longer-in-flight packet back into Q so any
// scheduler — including ones that never read RQ — will eventually
// deliver it.
func (c *Conn) returnToSendQ(pkt *Packet) {
	c.unackedQ.remove(pkt)
	c.reinjectQ.remove(pkt)
	c.insertSendQ(pkt)
	c.schedule()
}

// addReinject queues pkt for reinjection (it joins RQ unless already
// acked) and triggers the scheduler (Fig. 4: loss events).
func (c *Conn) addReinject(pkt *Packet) {
	if pkt.MetaAcked {
		return
	}
	if c.reinjectQ.pushBack(pkt) {
		c.mReinjects.Add(1)
		c.trace(obs.EvReinject, -1, pkt.Seq, 0, 0)
	}
	c.schedule()
}

// onSubflowEstablished fires the scheduler (Fig. 4: subflow events).
func (c *Conn) onSubflowEstablished(s *Subflow) {
	c.trace(obs.EvSbfUp, int32(s.id), -1, 0, 0)
	c.schedule()
}

// onSubflowClosed fires the scheduler after a subflow teardown.
func (c *Conn) onSubflowClosed(s *Subflow) {
	c.trace(obs.EvSbfDown, int32(s.id), -1, 0, 0)
	c.schedule()
}

// onAck processes the meta-level part of an acknowledgement: the
// cumulative DATA_ACK removes packets from all queues (§3.1), and the
// advertised window is refreshed. It then triggers the scheduler.
func (c *Conn) onAck(metaCumAck int64, rwnd int64, s *Subflow) {
	c.rwnd = rwnd
	c.mAcks.Add(1)
	c.trace(obs.EvAck, int32(s.id), -1, metaCumAck, 0)
	if metaCumAck > c.cumAcked {
		for c.seqWin.len() > 0 && c.seqWin.at(0).Seq < metaCumAck {
			pkt := c.seqWin.at(0)
			c.seqWin.popFront()
			pkt.MetaAcked = true
			if end := pkt.Offset + int64(pkt.Size); end > c.ackedOffset {
				c.ackedOffset = end
			}
			c.unackedQ.remove(pkt)
			c.reinjectQ.remove(pkt)
			c.sendQ.remove(pkt)
		}
		c.cumAcked = metaCumAck
		if c.AllAcked() && c.onAllAcked != nil {
			cb := c.onAllAcked
			c.onAllAcked = nil
			cb()
		}
	}
	c.schedule()
}

// schedule runs the scheduling block: build a snapshot, execute, apply
// the action queue, and repeat while the scheduler makes progress
// (compressed executions, §4.1). Reentrant triggers coalesce.
//
// The zero-alloc contract (docs/PERFORMANCE.md) covers snapshot build,
// scheduler execution and action application; transmission
// (Subflow.transmit) and the epoch publish (Store.SetGlobals) sit
// outside it and are suppressed below with reasons.
//
//progmp:hotpath
func (c *Conn) schedule() {
	if c.sched == nil {
		return
	}
	if c.scheduling {
		c.schedPending = true
		return
	}
	c.scheduling = true
	defer func() {
		c.scheduling = false
		// A swap requested in the final iteration still lands before
		// the pass returns (the execution boundary).
		if c.hasPendingSched {
			c.applyPendingSched()
		}
	}()
	for iter := 0; iter < c.cfg.MaxSchedIterations; iter++ {
		if c.hasPendingSched {
			c.applyPendingSched()
			if c.sched == nil {
				return
			}
		}
		c.schedPending = false
		env := c.buildEnv()
		if c.tracer != nil {
			c.curExec = c.tracer.NextExecID()
			c.trace(obs.EvExecStart, -1, -1, int64(iter), 0)
		}
		var progress bool
		if c.mExecNS != nil {
			// time.Now/Since are allocation-free, so the instrumented
			// hot path stays 0 allocs/op (benchmark-gated).
			t0 := time.Now()
			c.sched.Exec(env)
			c.mExecNS.Observe(int64(time.Since(t0)))
			c.SchedulerExecutions++
			c.mExecs.Add(1)
			t1 := time.Now()
			progress = c.applyActions(env)
			c.mApplyNS.Observe(int64(time.Since(t1)))
		} else {
			c.sched.Exec(env)
			c.SchedulerExecutions++
			c.mExecs.Add(1)
			progress = c.applyActions(env)
		}
		if c.tracer != nil {
			c.trace(obs.EvExecEnd, -1, -1, int64(len(env.Actions)), 0)
			c.curExec = 0
		}
		if !progress && !c.schedPending {
			return
		}
	}
}

// pktSource materializes packet views from a substrate packet slice,
// frozen for one execution (the substrate only mutates in applyActions,
// after the execution finished).
type pktSource struct {
	pkts []*Packet
	now  time.Duration
}

// MaterializePacket fills v from packet i; every exported field is
// overwritten because views are recycled across executions.
func (s *pktSource) MaterializePacket(i int, v *runtime.PacketView) {
	p := s.pkts[i]
	v.Handle = runtime.PacketHandle(p.Seq + 1)
	v.SentOnMask = p.SentOnMask
	v.Ints[runtime.PktSize] = int64(p.Size)
	v.Ints[runtime.PktSeq] = p.Seq
	v.Ints[runtime.PktProp] = p.Prop
	v.Ints[runtime.PktSentCount] = int64(p.SentCount)
	v.Ints[runtime.PktAgeUS] = (s.now - p.EnqueuedAt).Microseconds()
	if p.SentCount > 0 {
		v.Ints[runtime.PktLastSentUS] = (s.now - p.LastSentAt).Microseconds()
	} else {
		v.Ints[runtime.PktLastSentUS] = -1
	}
}

// buildEnv snapshots the scheduling environment (§3.1). Properties are
// immutable for the execution; side effects are collected in the action
// queue. The snapshot is allocation-free in steady state: views live in
// the connection's arena and materialize lazily as the scheduler
// touches them, and a queue whose substrate is unchanged since the
// previous execution (same membership and properties — tracked by the
// packetList version counters — at the same clock) keeps its
// materialized views entirely.
func (c *Conn) buildEnv() *runtime.Env {
	now := c.eng.Now()
	sameClock := c.snapValid && now == c.lastNow
	rwndFree := c.rwndFreeBytes()

	// One epoch-consistent store snapshot per execution: every X-property
	// and global read below sees the same coherent version. The load is a
	// single atomic pointer read — no locks, no allocations.
	var snap *xstate.Snapshot
	if c.store != nil {
		snap = c.store.Load()
	}

	// Subflow views are small and volatile (cwnd, RTT, in-flight move
	// with every event), so they are always refilled.
	n := 0
	for _, s := range c.subflows {
		if s.usable() {
			n++
		}
	}
	views := c.arena.BindSubflows(n)
	i := 0
	for _, s := range c.subflows {
		if !s.usable() {
			continue
		}
		v := views[i]
		i++
		*v = runtime.SubflowView{
			Handle:        runtime.SubflowHandle(s.id + 1),
			RWndFreeBytes: rwndFree,
		}
		v.Ints[runtime.SbfID] = int64(s.id)
		v.Ints[runtime.SbfRTT] = s.srtt.Microseconds()
		v.Ints[runtime.SbfRTTAvg] = s.avgRTT().Microseconds()
		v.Ints[runtime.SbfRTTVar] = s.rttvar.Microseconds()
		v.Ints[runtime.SbfCwnd] = int64(s.cwnd)
		v.Ints[runtime.SbfSkbsInFlight] = s.wireInFlight()
		v.Ints[runtime.SbfQueued] = s.queuedSegments()
		v.Ints[runtime.SbfThroughput] = s.Throughput()
		v.Ints[runtime.SbfMSS] = int64(c.cfg.MSS)
		v.Ints[runtime.SbfLostSkbs] = s.lostPending()
		v.Ints[runtime.SbfRTO] = s.currentRTO().Microseconds()
		v.Bools[runtime.SbfLossy] = s.inRecovery
		v.Bools[runtime.SbfTSQThrottled] = s.tsqThrottled()
		v.Bools[runtime.SbfIsBackup] = s.backup
		v.Ints[runtime.SbfLinkQueued] = int64(s.link.Fwd.QueuedBytes())
		if snap != nil {
			if d := snap.Stats(s.destID); d != nil {
				v.Ints[runtime.SbfXRTT] = d.SRTTUS
				v.Ints[runtime.SbfXLost] = d.Lost
				v.Ints[runtime.SbfXDelivered] = d.Delivered
				v.Ints[runtime.SbfXQuar] = d.Quarantines
			}
		}
	}

	c.qSrc = pktSource{pkts: c.sendQ.items(), now: now}
	c.arena.BindQueue(runtime.QueueSend, &c.qSrc,
		c.sendQ.len(), sameClock && c.lastQVer == c.sendQ.ver)

	// QU excludes reinjection candidates (pairwise disjoint views,
	// §3.1), so its filtered membership depends on both QU and RQ.
	reuseQU := sameClock && c.lastQUVer == c.unackedQ.ver && c.lastRQVer == c.reinjectQ.ver
	if !reuseQU {
		c.quSnap = c.quSnap[:0]
		for _, p := range c.unackedQ.items() {
			if !c.reinjectQ.contains(p) {
				//progmp:ignore hotpath amortized: quSnap capacity is retained across executions
				c.quSnap = append(c.quSnap, p)
			}
		}
	}
	c.quSrc = pktSource{pkts: c.quSnap, now: now}
	c.arena.BindQueue(runtime.QueueUnacked, &c.quSrc, len(c.quSnap), reuseQU)

	c.rqSrc = pktSource{pkts: c.reinjectQ.items(), now: now}
	c.arena.BindQueue(runtime.QueueReinject, &c.rqSrc,
		c.reinjectQ.len(), sameClock && c.lastRQVer == c.reinjectQ.ver)

	c.lastNow = now
	c.lastQVer = c.sendQ.ver
	c.lastQUVer = c.unackedQ.ver
	c.lastRQVer = c.reinjectQ.ver
	c.snapValid = true

	c.arena.BeginExec()
	env := c.arena.Env()
	if snap != nil {
		// Seed the execution-local global file from the store snapshot.
		// Without a store the arena array persists across executions, so
		// globals degrade to connection-local registers.
		*env.Globals = snap.Globals
	}
	return env
}

// popEntry records one committed POP for the restore pass.
type popEntry struct {
	pkt *Packet
	q   runtime.QueueID
}

// applyActions commits the execution's action queue to the connection
// state and reports whether the scheduler made progress (transmitted
// or deliberately dropped something).
func (c *Conn) applyActions(env *runtime.Env) bool {
	pops := c.popScratch[:0]
	c.applyGen++
	gen := c.applyGen
	progress := false
	for _, a := range env.Actions {
		switch a.Kind {
		case runtime.ActionPop:
			pkt := c.pktOf(a.Packet)
			if pkt == nil || pkt.MetaAcked {
				continue
			}
			if c.queueList(a.Queue).remove(pkt) {
				//progmp:ignore hotpath amortized: popScratch capacity is retained across executions
				pops = append(pops, popEntry{pkt: pkt, q: a.Queue})
				c.mPops.Add(1)
				c.trace(obs.EvPop, -1, pkt.Seq, int64(a.Queue), a.Site)
			}
		case runtime.ActionPush:
			pkt := c.pktOf(a.Packet)
			sbf := c.sbfOf(a.Subflow)
			if pkt == nil || sbf == nil {
				continue
			}
			if pkt.MetaAcked {
				pkt.consumedGen = gen
				continue
			}
			//progmp:ignore hotpath transmission is outside the zero-alloc contract (docs/PERFORMANCE.md): it crosses into the netsim path and the peer's receive path
			if sbf.transmit(pkt) {
				progress = true
				pkt.consumedGen = gen
				// A transmitted segment leaves Q and RQ and is
				// tracked as unacknowledged. The transmission also
				// mutated packet properties (SentOnMask, SentCount),
				// so QU views are stale even when membership did not
				// change (a redundant re-push of an in-flight
				// segment); bump the version unconditionally.
				c.sendQ.remove(pkt)
				c.reinjectQ.remove(pkt)
				c.insertUnacked(pkt)
				c.unackedQ.ver++
				c.mPushes.Add(1)
				c.trace(obs.EvPush, int32(sbf.id), pkt.Seq, int64(pkt.Size), a.Site)
			}
		case runtime.ActionDrop:
			pkt := c.pktOf(a.Packet)
			if pkt == nil {
				continue
			}
			pkt.consumedGen = gen
			removed := c.sendQ.remove(pkt) || c.reinjectQ.remove(pkt)
			if pkt.SentCount == 0 && !c.unackedQ.contains(pkt) && !pkt.MetaAcked {
				// Dropping never-transmitted data would lose bytes of
				// the stream; reinsert (packets must not be lost by
				// design, §3.3) and count no progress for it.
				c.insertSendQ(pkt)
			} else if removed {
				progress = true
				c.mDrops.Add(1)
				c.trace(obs.EvDrop, -1, pkt.Seq, 0, a.Site)
			}
		}
	}
	// Popped packets that were neither pushed nor dropped return to
	// their queue (graceful: no packet loss on scheduler mistakes).
	// Reinsertion is by sequence number for every queue: Q and QU are
	// seq-sorted invariantly (their sorted inserts binary-search), and
	// a front-insert into the middle pop's former queue would silently
	// break that ordering.
	for _, e := range pops {
		if e.pkt.consumedGen == gen || e.pkt.MetaAcked {
			continue
		}
		c.queueList(e.q).insertBySeq(e.pkt)
	}
	c.popScratch = pops[:0]
	// Publish the execution's GSET writes as one batched epoch. Only the
	// dirty registers land, so concurrent connections writing disjoint
	// globals do not clobber each other.
	if c.store != nil {
		if dirty := env.DirtyGlobals(); dirty != 0 {
			//progmp:ignore hotpath epoch publish is outside the zero-alloc contract: SetGlobals clones a snapshot per epoch by design
			c.store.SetGlobals(dirty, env.Globals)
			env.ClearDirtyGlobals()
		}
	}
	return progress
}

// insertUnacked keeps QU ordered by meta sequence number.
func (c *Conn) insertUnacked(pkt *Packet) {
	c.unackedQ.insertBySeq(pkt)
}

// insertSendQ reinserts pkt into Q in sequence order.
func (c *Conn) insertSendQ(pkt *Packet) {
	c.sendQ.insertBySeq(pkt)
}

// pktOf resolves a scheduler packet handle through the sequence
// window. The handle of an acked or never-enqueued segment resolves to
// nil, and applyActions skips it as it skips an acked packet.
func (c *Conn) pktOf(h runtime.PacketHandle) *Packet {
	n := int64(c.seqWin.len())
	i := int64(h) - 1 - (c.nextSeq - n)
	if i < 0 || i >= n {
		return nil
	}
	return c.seqWin.at(int(i))
}

func (c *Conn) sbfOf(h runtime.SubflowHandle) *Subflow {
	idx := int(h) - 1
	if idx < 0 || idx >= len(c.subflows) {
		return nil
	}
	return c.subflows[idx]
}

func (c *Conn) queueList(id runtime.QueueID) *packetList {
	switch id {
	case runtime.QueueSend:
		return &c.sendQ
	case runtime.QueueUnacked:
		return &c.unackedQ
	default:
		return &c.reinjectQ
	}
}
