package mptcp

// Packetdrill-style receiver tests (§4.2: "We appreciated the use of
// packetdrill ... to extensively test the receiver side packet
// handling for incoming packet combinations"): crafted arrival scripts
// drive the receiver directly and assert exactly which segments reach
// the application, in which order, and when.

import (
	"testing"
	"time"

	"progmp/internal/netsim"
)

// arrival is one scripted segment arrival.
type arrival struct {
	at      time.Duration
	sbf     int
	sbfSeq  int64
	metaSeq int64
}

// delivery is one observed application-level delivery.
type delivery struct {
	metaSeq int64
	at      time.Duration
}

// runScript builds a two-subflow connection, injects the arrivals at
// their times, and returns the in-order deliveries.
func runScript(t *testing.T, mode ReceiverMode, script []arrival) ([]delivery, *Receiver) {
	t.Helper()
	eng := netsim.NewEngine(1)
	conn := NewConn(eng, Config{ReceiverMode: mode})
	for i := 0; i < 2; i++ {
		link := netsim.NewLink(eng, netsim.PathConfig{
			Rate: netsim.ConstantRate(1e9), Delay: time.Microsecond,
		})
		if _, err := conn.AddSubflow(SubflowConfig{Name: "s", Link: link}); err != nil {
			t.Fatal(err)
		}
	}
	// Register the packets through the sequence window so meta
	// DATA_ACK processing knows them.
	for _, a := range script {
		for conn.nextSeq <= a.metaSeq {
			conn.seqWin.pushBack(&Packet{Seq: conn.nextSeq, Size: segSize})
			conn.nextSeq++
		}
	}
	var out []delivery
	conn.Receiver().OnDeliver(func(seq int64, _ int, at time.Duration) {
		out = append(out, delivery{metaSeq: seq, at: at})
	})
	for _, a := range script {
		a := a
		eng.At(a.at, func() {
			conn.receiver.onData(conn.subflows[a.sbf], a.sbfSeq, a.metaSeq, segSize)
		})
	}
	eng.RunUntil(time.Second)
	return out, conn.receiver
}

const segSize = 1460

func seqs(ds []delivery) []int64 {
	out := make([]int64, len(ds))
	for i, d := range ds {
		out[i] = d.metaSeq
	}
	return out
}

func expectSeqs(t *testing.T, got []delivery, want ...int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("delivered %v, want %v", seqs(got), want)
	}
	for i, w := range want {
		if got[i].metaSeq != w {
			t.Fatalf("delivery %d = seq %d, want %d (full: %v)", i, got[i].metaSeq, w, seqs(got))
		}
	}
}

func TestScriptInOrderDelivery(t *testing.T) {
	for _, mode := range []ReceiverMode{ReceiverLegacy, ReceiverOptimized} {
		got, _ := runScript(t, mode, []arrival{
			{at: 1 * time.Millisecond, sbf: 0, sbfSeq: 0, metaSeq: 0},
			{at: 2 * time.Millisecond, sbf: 0, sbfSeq: 1, metaSeq: 1},
			{at: 3 * time.Millisecond, sbf: 0, sbfSeq: 2, metaSeq: 2},
		})
		expectSeqs(t, got, 0, 1, 2)
		for i, d := range got {
			want := time.Duration(i+1) * time.Millisecond
			if d.at != want {
				t.Errorf("mode %v: delivery %d at %v, want immediate %v", mode, i, d.at, want)
			}
		}
	}
}

func TestScriptMetaReorderAcrossSubflows(t *testing.T) {
	// metaSeq 1 arrives (on sbf1) before metaSeq 0 (on sbf0): both
	// receivers must hold 1 and release 0,1 together.
	for _, mode := range []ReceiverMode{ReceiverLegacy, ReceiverOptimized} {
		got, _ := runScript(t, mode, []arrival{
			{at: 1 * time.Millisecond, sbf: 1, sbfSeq: 0, metaSeq: 1},
			{at: 5 * time.Millisecond, sbf: 0, sbfSeq: 0, metaSeq: 0},
		})
		expectSeqs(t, got, 0, 1)
		if got[0].at != 5*time.Millisecond || got[1].at != 5*time.Millisecond {
			t.Errorf("mode %v: deliveries at %v/%v, want both at 5ms", mode, got[0].at, got[1].at)
		}
	}
}

// TestScriptLegacyHoldsCrossSubflowFill is the §4.2 pattern: a gap on
// subflow 0 is filled at the meta level via subflow 1, but the legacy
// receiver keeps subflow 0's later segments hostage until subflow 0's
// own retransmission arrives.
func TestScriptLegacyHoldsCrossSubflowFill(t *testing.T) {
	script := []arrival{
		{at: 1 * time.Millisecond, sbf: 0, sbfSeq: 0, metaSeq: 0},
		// sbf0's sbfSeq 1 (carrying metaSeq 1) is lost on the wire.
		{at: 2 * time.Millisecond, sbf: 0, sbfSeq: 2, metaSeq: 2},
		// Reinjection of metaSeq 1 arrives via sbf1.
		{at: 3 * time.Millisecond, sbf: 1, sbfSeq: 0, metaSeq: 1},
		// sbf0's subflow-level retransmission lands much later.
		{at: 50 * time.Millisecond, sbf: 0, sbfSeq: 1, metaSeq: 1},
	}

	opt, _ := runScript(t, ReceiverOptimized, script)
	expectSeqs(t, opt, 0, 1, 2)
	if opt[2].at != 3*time.Millisecond {
		t.Errorf("optimized receiver delivered metaSeq 2 at %v, want 3ms (as soon as the hole filled)", opt[2].at)
	}

	leg, rx := runScript(t, ReceiverLegacy, script)
	expectSeqs(t, leg, 0, 1, 2)
	if leg[2].at != 50*time.Millisecond {
		t.Errorf("legacy receiver delivered metaSeq 2 at %v, want 50ms (held behind the subflow gap)", leg[2].at)
	}
	if rx.HeldByLegacy == 0 {
		t.Errorf("legacy receiver did not count the held segment")
	}
}

func TestScriptDuplicateSuppression(t *testing.T) {
	for _, mode := range []ReceiverMode{ReceiverLegacy, ReceiverOptimized} {
		got, rx := runScript(t, mode, []arrival{
			{at: 1 * time.Millisecond, sbf: 0, sbfSeq: 0, metaSeq: 0},
			// Same subflow segment retransmitted (spurious).
			{at: 2 * time.Millisecond, sbf: 0, sbfSeq: 0, metaSeq: 0},
			// Redundant copy of the same meta data via the other subflow.
			{at: 3 * time.Millisecond, sbf: 1, sbfSeq: 0, metaSeq: 0},
			{at: 4 * time.Millisecond, sbf: 0, sbfSeq: 1, metaSeq: 1},
		})
		expectSeqs(t, got, 0, 1)
		if rx.DuplicateSegments == 0 {
			t.Errorf("mode %v: duplicates not counted", mode)
		}
	}
}

func TestScriptRedundantCopiesFirstWins(t *testing.T) {
	// The same meta data races over both subflows; whichever lands
	// first is delivered, the second is a duplicate (the redundant
	// scheduler's premise, §5.1).
	for _, mode := range []ReceiverMode{ReceiverLegacy, ReceiverOptimized} {
		got, _ := runScript(t, mode, []arrival{
			{at: 2 * time.Millisecond, sbf: 1, sbfSeq: 0, metaSeq: 0},
			{at: 9 * time.Millisecond, sbf: 0, sbfSeq: 0, metaSeq: 0},
		})
		expectSeqs(t, got, 0)
		if got[0].at != 2*time.Millisecond {
			t.Errorf("mode %v: first copy must win, delivered at %v", mode, got[0].at)
		}
	}
}

func TestScriptWindowShrinksWhileHolding(t *testing.T) {
	// Out-of-order data held at the receiver must shrink the
	// advertised window.
	_, rx := runScript(t, ReceiverOptimized, []arrival{
		{at: 1 * time.Millisecond, sbf: 0, sbfSeq: 0, metaSeq: 5},
		{at: 2 * time.Millisecond, sbf: 0, sbfSeq: 1, metaSeq: 6},
	})
	full := int64(rx.rcvBuf)
	if got := rx.rwnd(); got >= full {
		t.Errorf("rwnd = %d, want < %d while holding out-of-order data", got, full)
	}
	if rx.oooBytes != 2*segSize {
		t.Errorf("oooBytes = %d, want %d", rx.oooBytes, 2*segSize)
	}
}

func TestScriptLegacySubflowHeldCountsAgainstWindow(t *testing.T) {
	_, rx := runScript(t, ReceiverLegacy, []arrival{
		// Subflow gap: sbfSeq 0 missing, 1..3 held at the subflow level.
		{at: 1 * time.Millisecond, sbf: 0, sbfSeq: 1, metaSeq: 1},
		{at: 2 * time.Millisecond, sbf: 0, sbfSeq: 2, metaSeq: 2},
		{at: 3 * time.Millisecond, sbf: 0, sbfSeq: 3, metaSeq: 3},
	})
	if got := rx.rwnd(); got >= int64(rx.rcvBuf) {
		t.Errorf("rwnd = %d must account for subflow-held segments", got)
	}
}

func TestScriptInterleavedBulk(t *testing.T) {
	// A braided arrival pattern across both subflows must still yield
	// exactly-once in-order delivery in both modes.
	var script []arrival
	at := time.Millisecond
	// Even meta seqs on sbf0, odd on sbf1, arrivals slightly shuffled.
	order := []int64{1, 0, 3, 2, 4, 6, 5, 8, 7, 9}
	sbfSeqNext := [2]int64{}
	for _, meta := range order {
		sbf := int(meta % 2)
		script = append(script, arrival{at: at, sbf: sbf, sbfSeq: sbfSeqNext[sbf], metaSeq: meta})
		sbfSeqNext[sbf]++
		at += 500 * time.Microsecond
	}
	for _, mode := range []ReceiverMode{ReceiverLegacy, ReceiverOptimized} {
		got, _ := runScript(t, mode, script)
		expectSeqs(t, got, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9)
	}
}
