package mptcp

import (
	"math/rand"
	stdruntime "runtime"
	"sort"
	"testing"
	"time"

	"progmp/internal/core"
	"progmp/internal/netsim"
	"progmp/internal/runtime"
	"progmp/internal/schedlib"
)

// refList is the reference model of a packetList: a plain slice with
// the sorted insert and the linear removal the deque must reproduce.
type refList []*Packet

func (r refList) index(p *Packet) int {
	for i, q := range r {
		if q == p {
			return i
		}
	}
	return -1
}

func (r *refList) insertBySeq(p *Packet) {
	s := *r
	i := sort.Search(len(s), func(i int) bool { return s[i].Seq > p.Seq })
	s = append(s, nil)
	copy(s[i+1:], s[i:])
	s[i] = p
	*r = s
}

func (r *refList) remove(i int) { *r = append((*r)[:i], (*r)[i+1:]...) }

// listModel drives one packetList and its reference side by side.
type listModel struct {
	t    *testing.T
	name string
	l    *packetList
	ref  refList
	// headReuses and compactions count the operations that entered the
	// deque's head-slot reuse and in-place compaction branches.
	headReuses, compactions int
}

// apply runs one mutation, checks its result and version bump against
// the model's, and then the whole list state.
func (m *listModel) apply(step int, op string, p *Packet) {
	m.t.Helper()
	l := m.l
	member := m.ref.index(p) >= 0
	before := l.ver
	var got, want bool
	switch op {
	case "pushBack":
		if l.pkts.tail == len(l.pkts.buf) && l.pkts.head > 0 && l.pkts.head >= len(l.pkts.buf)/2 {
			m.compactions++
		}
		got, want = l.pushBack(p), !member
		if want {
			m.ref = append(m.ref, p)
		}
	case "insertBySeq":
		if !member && l.pkts.head > 0 && searchSeq(l.items(), p.Seq+1) == 0 {
			m.headReuses++
		}
		got, want = l.insertBySeq(p), !member
		if want {
			m.ref.insertBySeq(p)
		}
	case "remove":
		got, want = l.remove(p), member
		if want {
			m.ref.remove(m.ref.index(p))
		}
		if l.contains(p) {
			m.t.Fatalf("%s step %d: removed seq %d keeps its membership bit", m.name, step, p.Seq)
		}
	}
	if got != want {
		m.t.Fatalf("%s step %d: %s(seq %d) = %v, want %v", m.name, step, op, p.Seq, got, want)
	}
	bumps := uint64(0)
	if want {
		bumps = 1
	}
	if l.ver != before+bumps {
		m.t.Fatalf("%s step %d: %s bumped ver by %d, want %d", m.name, step, op, l.ver-before, bumps)
	}
	m.check(step)
}

// check compares contents, order, length and membership bits with the
// model, and asserts that every slot outside the live range is nil.
func (m *listModel) check(step int) {
	m.t.Helper()
	items := m.l.items()
	if m.l.len() != len(m.ref) || len(items) != len(m.ref) {
		m.t.Fatalf("%s step %d: len %d (items %d), want %d", m.name, step, m.l.len(), len(items), len(m.ref))
	}
	for i, p := range items {
		if p != m.ref[i] {
			m.t.Fatalf("%s step %d: slot %d holds seq %d, want seq %d", m.name, step, i, p.Seq, m.ref[i].Seq)
		}
		if !m.l.contains(p) {
			m.t.Fatalf("%s step %d: member seq %d lacks its bit", m.name, step, p.Seq)
		}
	}
	d := &m.l.pkts
	if len(d.buf) != cap(d.buf) || d.head < 0 || d.head > d.tail || d.tail > len(d.buf) {
		m.t.Fatalf("%s step %d: bad bounds head %d tail %d len %d cap %d", m.name, step, d.head, d.tail, len(d.buf), cap(d.buf))
	}
	for i, p := range d.buf {
		if (i < d.head || i >= d.tail) && p != nil {
			m.t.Fatalf("%s step %d: freed slot %d still holds seq %d", m.name, step, i, p.Seq)
		}
	}
}

// checkBits asserts that exactly the model's members carry the bit.
func (m *listModel) checkBits(universe []*Packet) {
	m.t.Helper()
	n := 0
	for _, p := range universe {
		if m.l.contains(p) {
			n++
			if m.ref.index(p) < 0 {
				m.t.Fatalf("%s: non-member seq %d carries the bit", m.name, p.Seq)
			}
		}
	}
	if n != len(m.ref) {
		m.t.Fatalf("%s: %d packets carry the bit for %d members", m.name, n, len(m.ref))
	}
}

// TestPacketListModel applies seeded random pushBack, insertBySeq and
// remove (head, tail, middle, absent) sequences to a seq-sorted list
// (QU's pattern: appends of new sequence numbers, sorted restores) and
// a loss-ordered one (RQ's pattern: appends in any order) that share
// one packet universe, and checks both against the reference slice
// after every operation.
func TestPacketListModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sorted := &listModel{t: t, name: "sorted", l: &packetList{bit: inQU, sorted: true}}
		lossy := &listModel{t: t, name: "loss-ordered", l: &packetList{bit: inRQ}}
		var universe []*Packet
		var nextSeq int64
		newPacket := func() *Packet {
			p := &Packet{Seq: nextSeq}
			nextSeq++
			universe = append(universe, p)
			return p
		}
		// recent draws from the last packets created, so re-insertions
		// and absent removals hit packets near the live range.
		recent := func() *Packet {
			if len(universe) == 0 {
				return newPacket()
			}
			k := len(universe) - 1 - rng.Intn(min(len(universe), 96))
			return universe[k]
		}
		pick := func(m *listModel) *Packet {
			n := len(m.ref)
			if n == 0 {
				return recent()
			}
			switch rng.Intn(4) {
			case 0:
				return m.ref[0]
			case 1:
				return m.ref[n-1]
			case 2:
				return m.ref[rng.Intn(n)]
			default: // most likely absent
				return recent()
			}
		}
		for step := 0; step < 6000; step++ {
			m := sorted
			if rng.Intn(2) == 0 {
				m = lossy
			}
			// Bias toward removal once the list is long, so the live
			// range cycles through the backing array.
			removeBias := min(len(m.ref), 64)
			switch r := rng.Intn(100 + removeBias); {
			case r < 40:
				p := newPacket()
				if m == lossy && rng.Intn(2) == 0 {
					p = recent()
				}
				m.apply(step, "pushBack", p)
			case r < 55:
				m.apply(step, "insertBySeq", recent())
			case r < 70 && len(m.ref) > 0:
				// The restore pattern: pop the head, then put it back.
				p := m.ref[0]
				m.apply(step, "remove", p)
				m.apply(step, "insertBySeq", p)
			default:
				m.apply(step, "remove", pick(m))
			}
		}
		for _, m := range []*listModel{sorted, lossy} {
			m.checkBits(universe)
			if m.headReuses == 0 || m.compactions == 0 {
				t.Errorf("seed %d %s: head reuses %d, compactions %d; the sequence must reach both branches",
					seed, m.name, m.headReuses, m.compactions)
			}
		}
	}
}

// TestRateEstimatorModel records and prunes seeded random sample
// sequences, with gaps that put samples exactly on the window edge, and
// checks the running sum against a recomputed one and Throughput
// against the full re-summing loop.
func TestRateEstimatorModel(t *testing.T) {
	gaps := []time.Duration{0, 1, rateWindow / 4, rateWindow - 1, rateWindow, rateWindow + 1}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		eng := netsim.NewEngine(seed)
		conn := NewConn(eng, Config{})
		link := netsim.NewLink(eng, netsim.PathConfig{Rate: netsim.ConstantRate(1e6), Delay: time.Millisecond})
		s, err := conn.AddSubflow(SubflowConfig{Name: "s", Link: link})
		if err != nil {
			t.Fatal(err)
		}
		type sample struct {
			at    time.Duration
			bytes int
		}
		var all []sample
		oldLoop := func(now time.Duration) int64 {
			total := 0
			for _, smp := range all {
				if smp.at >= now-rateWindow {
					total += smp.bytes
				}
			}
			return int64(float64(total) / rateWindow.Seconds())
		}
		checkSum := func(step int) {
			sum := 0
			for _, smp := range s.rateSamples.items() {
				sum += smp.bytes
			}
			if sum != s.rateBytes {
				t.Fatalf("seed %d step %d: running sum %d, samples sum to %d", seed, step, s.rateBytes, sum)
			}
		}
		at, fired := time.Duration(0), 0
		const steps = 3000
		for step := 0; step < steps; step++ {
			if rng.Intn(3) == 0 {
				at += gaps[rng.Intn(len(gaps))]
			} else {
				at += time.Duration(rng.Int63n(int64(40 * time.Millisecond)))
			}
			record := rng.Intn(3) != 0
			bytes := 1 + rng.Intn(1460)
			eng.At(at, func() {
				fired++
				now := eng.Now()
				if record {
					s.recordDelivered(bytes)
					all = append(all, sample{at: now, bytes: bytes})
					checkSum(step)
					return
				}
				if got, want := s.Throughput(), oldLoop(now); got != want {
					t.Fatalf("seed %d step %d: Throughput %d, re-summing loop %d", seed, step, got, want)
				}
				checkSum(step)
			})
		}
		eng.RunUntil(at)
		if fired != steps {
			t.Fatalf("seed %d: %d of %d steps ran", seed, fired, steps)
		}
	}
}

// bulkConn wires one connection over the benchmark's bulk paths —
// WiFi-like 12.5 MB/s, 10 ms, 0.2 % loss and LTE-like 5 MB/s, 35 ms,
// 1 % loss — with minRTT on the VM.
func bulkConn(tb testing.TB, seed int64) (*netsim.Engine, *Conn) {
	tb.Helper()
	eng := netsim.NewEngine(seed)
	conn := NewConn(eng, Config{})
	for _, p := range []netsim.PathConfig{
		{Name: "wifi", Rate: netsim.ConstantRate(12.5e6), Delay: 10 * time.Millisecond, Loss: netsim.BernoulliLoss{P: 0.002}},
		{Name: "lte", Rate: netsim.ConstantRate(5e6), Delay: 35 * time.Millisecond, Loss: netsim.BernoulliLoss{P: 0.01}},
	} {
		if _, err := conn.AddSubflow(SubflowConfig{Name: p.Name, Link: netsim.NewLink(eng, p)}); err != nil {
			tb.Fatal(err)
		}
	}
	s := core.MustLoad("minRTT", schedlib.All["minRTT"], core.BackendVM)
	s.SetSynchronousSpecialization(true)
	conn.SetScheduler(s)
	return eng, conn
}

// TestAckedPacketsReleased pins that a connection lets go of every
// packet the cumulative DATA_ACK covers: after a multi-MiB transfer
// the sequence window is empty, handles of acked segments resolve to
// nil, and no backing array keeps a stale packet pointer.
func TestAckedPacketsReleased(t *testing.T) {
	eng, conn := bulkConn(t, 5)
	const bytes = 6 << 20
	conn.Send(bytes, 0)
	for !conn.AllAcked() && eng.Step() {
	}
	if !conn.AllAcked() {
		t.Fatal("transfer did not complete")
	}
	if n := conn.seqWin.len(); n != 0 {
		t.Fatalf("sequence window holds %d packets after the transfer", n)
	}
	for _, seq := range []int64{0, conn.nextSeq / 2, conn.nextSeq - 1} {
		if p := conn.pktOf(runtime.PacketHandle(seq + 1)); p != nil {
			t.Fatalf("pktOf(acked seq %d) = seq %d, want nil", seq, p.Seq)
		}
	}
	bufs := map[string][]*Packet{
		"window": conn.seqWin.buf, "Q": conn.sendQ.pkts.buf,
		"QU": conn.unackedQ.pkts.buf, "RQ": conn.reinjectQ.pkts.buf,
	}
	for name, buf := range bufs {
		for i, p := range buf {
			if p != nil {
				t.Fatalf("%s slot %d still references seq %d", name, i, p.Seq)
			}
		}
	}
}

// BenchmarkSendQueueDepth times one Send of 2 MiB and of 64 MiB on the
// bulk paths to the last acknowledgement and reports wall time and
// allocations per segment. With every per-segment operation O(1) in
// send-queue depth the two ns/segment figures match; CI fails when the
// 64 MiB one exceeds the 2 MiB one by more than 1.5x.
func BenchmarkSendQueueDepth(b *testing.B) {
	for _, size := range []struct {
		name  string
		bytes int
	}{{"2MiB", 2 << 20}, {"64MiB", 64 << 20}} {
		b.Run(size.name, func(b *testing.B) {
			var wall time.Duration
			var mallocs, segs uint64
			var ms stdruntime.MemStats
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				eng, conn := bulkConn(b, int64(i+1))
				stdruntime.GC()
				stdruntime.ReadMemStats(&ms)
				m0 := ms.Mallocs
				b.StartTimer()
				t0 := time.Now()
				conn.Send(size.bytes, 0)
				for !conn.AllAcked() && eng.Step() {
				}
				wall += time.Since(t0)
				b.StopTimer()
				stdruntime.ReadMemStats(&ms)
				mallocs += ms.Mallocs - m0
				segs += uint64(conn.nextSeq)
				if !conn.AllAcked() {
					b.Fatal("transfer did not complete")
				}
			}
			b.ReportMetric(float64(wall.Nanoseconds())/float64(segs), "ns/segment")
			b.ReportMetric(float64(mallocs)/float64(segs), "allocs/segment")
		})
	}
}
