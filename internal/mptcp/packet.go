// Package mptcp is a userspace model of the Multipath TCP sender and
// receiver sufficient to host ProgMP schedulers: the meta socket with
// the queues Q/QU/RQ of §3.1, subflows with Reno/LIA congestion
// control, RFC 6298 RTT estimation, SACK-style loss detection, RTO
// handling with mandatory subflow-level retransmission, TSQ throttling,
// and the two-level receiver queue architecture of §4.2 in both its
// legacy and optimized ("fastest possible packet handling") variants.
//
// It substitutes for the paper's in-kernel runtime (see DESIGN.md);
// the scheduler decision surface — subflow and packet properties,
// queue contents, triggering events — matches the programming model.
package mptcp

import "time"

// Packet is one meta-level segment. Segments carry a data sequence
// number at packet granularity; the size is the payload in bytes.
type Packet struct {
	Seq  int64
	Size int
	// Offset is the packet's first byte's position in the stream;
	// receive-window accounting works in sequence space, so
	// retransmissions of old data never consume new window.
	Offset     int64
	Prop       int64 // application-set scheduling intent (§3.2)
	EnqueuedAt time.Duration

	// SentOnMask has bit i set after a transmission on subflow id i.
	SentOnMask uint64
	SentCount  int
	// LastSentAt is the time of the most recent transmission.
	LastSentAt time.Duration
	// MetaAcked is set once the cumulative DATA_ACK covers the packet;
	// acked packets are automatically removed from all queues (§3.1).
	MetaAcked bool

	// lists has one bit per packetList holding the packet (inQ, inQU,
	// inRQ), so membership is a bit test rather than a map lookup.
	lists uint8

	// consumedGen stamps the applyActions pass (Conn.applyGen) that
	// pushed or dropped the packet, replacing a per-pass map.
	consumedGen uint64
}

// sentOn reports a prior transmission on the subflow id.
func (p *Packet) sentOn(id int) bool { return p.SentOnMask&(1<<uint(id)) != 0 }

// Membership bits of Packet.lists, one per connection queue.
const (
	inQ uint8 = 1 << iota
	inQU
	inRQ
)

// deque is a slice-backed double-ended queue. Removal at either end is
// O(1), insertion at either end O(1) amortized, and an edit in the
// middle shifts the shorter side. The live items buf[head:tail] stay
// one contiguous slice, so they can be handed out as a view. Freed
// slots are zeroed, so the deque holds no stale pointers.
type deque[T any] struct {
	buf        []T // len(buf) == cap(buf)
	head, tail int
}

func (d *deque[T]) len() int { return d.tail - d.head }

// items returns the live items; callers must not mutate them.
func (d *deque[T]) items() []T { return d.buf[d.head:d.tail] }

func (d *deque[T]) at(i int) T { return d.buf[d.head+i] }

func (d *deque[T]) pushBack(v T) { d.insert(d.len(), v) }

func (d *deque[T]) popFront() { d.removeAt(0) }

// insert places v at live index i. With a freed head slot and no more
// items in front of i than behind it, the front shifts one slot left
// (at i == 0 that is plain reuse of the slot); otherwise the back
// shifts one slot right.
func (d *deque[T]) insert(i int, v T) {
	if d.head > 0 && i <= d.len()-i {
		d.head--
		copy(d.buf[d.head:d.head+i], d.buf[d.head+1:d.head+1+i])
	} else {
		if d.tail == len(d.buf) {
			d.makeRoom()
		}
		copy(d.buf[d.head+i+1:d.tail+1], d.buf[d.head+i:d.tail])
		d.tail++
	}
	d.buf[d.head+i] = v
}

// removeAt deletes the item at live index i, shifting the shorter side.
func (d *deque[T]) removeAt(i int) {
	var zero T
	if i < d.len()-1-i {
		copy(d.buf[d.head+1:d.head+1+i], d.buf[d.head:d.head+i])
		d.buf[d.head] = zero
		d.head++
	} else {
		copy(d.buf[d.head+i:d.tail-1], d.buf[d.head+i+1:d.tail])
		d.tail--
		d.buf[d.tail] = zero
	}
	if d.head == d.tail {
		d.head, d.tail = 0, 0
	}
}

// makeRoom frees the slot past a tail that reached the end of buf. When
// at least half of buf is dead head it compacts the items in place;
// otherwise it grows buf. A compaction moves at most len(buf)/2 items
// and leaves at least as many free slots, so every item moves O(1)
// times amortized, and buf never shrinks.
func (d *deque[T]) makeRoom() {
	if d.head > 0 && d.head >= len(d.buf)/2 {
		n := copy(d.buf, d.buf[d.head:d.tail])
		clear(d.buf[n:d.tail])
		d.head, d.tail = 0, n
		return
	}
	var zero T
	//progmp:ignore hotpath amortized: buf only grows, and only when at least half of it is live
	d.buf = append(d.buf, zero)
	d.buf = d.buf[:cap(d.buf)]
}

// packetList is an ordered packet queue with O(1) membership checks,
// used for Q, QU and RQ. Queues hold each packet at most once.
type packetList struct {
	pkts deque[*Packet]
	// bit is the list's membership bit in Packet.lists.
	bit uint8
	// sorted marks a strictly seq-ordered list (Q and QU), in which
	// remove finds a packet by binary search. RQ is loss-ordered and
	// short, and is scanned.
	sorted bool
	// ver counts membership mutations. The snapshot layer compares it
	// across scheduler executions to decide whether lazily-materialized
	// packet views may be reused (incremental snapshot reuse, §4.1);
	// property-only mutations that keep membership intact must bump it
	// explicitly (see Conn.applyActions).
	ver uint64
}

func (l *packetList) len() int { return l.pkts.len() }

// items returns the queued packets in order; callers must not mutate
// them, and the slice is valid until the list's next mutation.
func (l *packetList) items() []*Packet { return l.pkts.items() }

func (l *packetList) contains(p *Packet) bool { return p.lists&l.bit != 0 }

// pushBack appends p unless already present, reporting whether it was
// added.
func (l *packetList) pushBack(p *Packet) bool {
	if l.contains(p) {
		return false
	}
	l.pkts.pushBack(p)
	p.lists |= l.bit
	l.ver++
	return true
}

// insertBySeq inserts p at its sequence-ordered position unless already
// present, reporting whether it was added. On a seq-sorted list this is
// a sorted insert; reinserting popped-but-unconsumed packets this way
// (packets must not be lost by design, §3.3) preserves the ordering
// invariant that the binary searches rely on. Restoring a popped head
// packet reuses the freed head slot.
func (l *packetList) insertBySeq(p *Packet) bool {
	if l.contains(p) {
		return false
	}
	l.pkts.insert(searchSeq(l.pkts.items(), p.Seq+1), p)
	p.lists |= l.bit
	l.ver++
	return true
}

// remove deletes p, reporting whether it was present.
func (l *packetList) remove(p *Packet) bool {
	if !l.contains(p) {
		return false
	}
	l.pkts.removeAt(l.index(p))
	p.lists &^= l.bit
	l.ver++
	return true
}

// index returns the position of member p.
func (l *packetList) index(p *Packet) int {
	items := l.pkts.items()
	if l.sorted {
		if i := searchSeq(items, p.Seq); i < len(items) && items[i] == p {
			return i
		}
	} else {
		for i, cand := range items {
			if cand == p {
				return i
			}
		}
	}
	//progmp:ignore hotpath unreachable while the membership bits and the seq order hold; a broken queue must not be edited further
	panic("mptcp: packet list lost a member or its sequence order")
}

// searchSeq returns the first index of items whose Seq is at least seq,
// by binary search over items in sequence order.
func searchSeq(items []*Packet, seq int64) int {
	lo, hi := 0, len(items)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if items[m].Seq < seq {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}
