package simnet

import (
	"time"

	"repro/internal/invariant"
	"repro/internal/simnet/framepool"
)

// A link direction is a FIFO: frames leave the transmitter at busyUntil,
// which only grows. What the direction has pending is therefore kept in
// order on the direction itself instead of being sorted by a heap.

// relKey is the ordering key of one egress-queue release: the local event
// that, scheduled at the instant the frame has left the transmitter, would
// have freed its queue slot. It is never scheduled; see passMark.
type relKey struct {
	at   time.Duration
	seq  uint64
	prio uint32
}

// ring is the bookkeeping of a circular buffer: where the oldest entry
// sits and how many there are. relRing and flightRing pair it with a slice.
type ring struct{ head, n int }

// slot is the buffer index of the i-th oldest entry in a buffer of size.
func (r *ring) slot(i, size int) int {
	j := r.head + i
	if j >= size {
		j -= size
	}
	return j
}

// drop forgets the oldest entry.
func (r *ring) drop(size int) {
	r.head = r.slot(1, size)
	r.n--
}

// ringGrow is the capacity a full ring of cap entries grows to, on a
// direction whose occupancy is bounded by limit (0: not bounded). Most
// directions never hold more than a few frames, and one that does is on its
// way to a full queue, so there are two sizes below the bound, not a
// doubling ladder: the ladder allocated twice the bound to get there.
func ringGrow(cap, limit int) int {
	switch {
	case cap == 0:
		return 8
	case cap < limit:
		return limit
	}
	return 2 * cap
}

// relRing is a direction's pending releases, oldest first. at never
// decreases along it and seq always increases.
type relRing struct {
	ring
	buf []relKey
}

func (r *relRing) at(i int) *relKey { return &r.buf[r.slot(i, len(r.buf))] }

// push appends k. maxQueue is the direction's queue bound, which the ring
// never outgrows while transmit times are positive.
func (r *relRing) push(k relKey, maxQueue int) {
	if r.n == len(r.buf) {
		buf := make([]relKey, ringGrow(len(r.buf), maxQueue))
		for i := 0; i < r.n; i++ {
			buf[i] = *r.at(i)
		}
		r.buf, r.head = buf, 0
	}
	if invariant.Enabled && r.n > 0 {
		last := r.at(r.n - 1)
		invariant.Assert(last.at <= k.at && last.seq < k.seq, "simnet: egress-queue release recorded out of order")
	}
	r.n++
	*r.at(r.n - 1) = k
}

// queued is the depth of d's egress queue: the frames sent on d whose
// release the dispatch order has not passed. It drops the passed ones.
func (s *Sim) queued(d *dirState) int {
	r := &d.rel
	for r.n > 0 && s.passed(r.at(0)) {
		r.drop(len(r.buf))
	}
	n := r.n
	// Releases pass in ring order unless several share an instant and differ
	// in prio, which takes a transmit time that rounds to 0 ns. Behind a
	// head that is due now but not passed, count those separately; they are
	// dropped once the head is.
	for i := 1; i < r.n && r.at(i).at == s.now; i++ {
		if s.passed(r.at(i)) {
			n--
		}
	}
	return n
}

// flight is one frame in flight. Within a direction prio is constant, so
// (at, tie) is the whole of its place in the dispatch order.
type flight struct {
	at    time.Duration
	tie   uint64
	frame []byte
	// fh is the frame's pool generation at transmit time (zero-sized in
	// release builds): Step asserts the buffer was not recycled while the
	// delivery was in flight.
	fh framepool.Handle
}

// flightRing is a direction's frames in flight, sorted by (at, tie).
type flightRing struct {
	ring
	buf []flight
}

func (r *flightRing) at(i int) *flight { return &r.buf[r.slot(i, len(r.buf))] }

// wire binds a direction to its endpoints and readies its wire-heap record.
func (d *dirState) wire(l *Link, src, dst *Port) {
	d.link, d.src, d.dst = l, src, dst
	d.prio = nodePrio(dst.Node.id, classFrame)
	d.ev = event{idx: -1, kind: evWire, dir: d}
}

// launch puts fl in flight on d. A wire delivers in the order it was fed
// unless jitter or a latency change lets a later frame overtake, so the
// insertion point is almost always the tail; either way the queue hears of
// it only when the direction's next delivery changed.
func (s *Sim) launch(d *dirState, at time.Duration, tie uint64, frame []byte, fh framepool.Handle) {
	r := &d.fly
	if r.n == len(r.buf) {
		// A full egress queue plus what the wire itself holds.
		bound := d.link.maxQueue
		if bound > 0 {
			bound += 8
		}
		buf := s.flightBuf(ringGrow(len(r.buf), bound))
		for i := 0; i < r.n; i++ {
			buf[i] = *r.at(i)
		}
		r.buf, r.head = buf, 0
	}
	i := r.n
	r.n++
	for ; i > 0; i-- {
		if prev := r.at(i - 1); prev.at < at || prev.at == at && prev.tie < tie {
			break
		}
		*r.at(i) = *r.at(i - 1)
	}
	// Field by field: a struct literal is built on the stack and copied with
	// wider loads than it was stored with, which stalls the pipeline.
	slot := r.at(i)
	slot.at, slot.tie, slot.frame, slot.fh = at, tie, frame, fh
	switch {
	case i > 0:
	case d.ev.loc == locNone:
		s.wireArm(d, at, tie)
	default:
		s.wireRekey(d, at, tie)
	}
	if invariant.Enabled {
		s.checkWire(d, i)
	}
}

// flightBuf returns a flight buffer of at least n slots for a direction
// that filled its own: the grown buffer of a drained direction when one is
// large enough, else a new one. A burst fills a few directions at a time,
// so the grown buffers pass from one to the next instead of every
// direction climbing the growth ladder on its own. A drained direction
// keeps its buffer until another takes it, so one that idles between
// frames does not trade buffers on every burst.
func (s *Sim) flightBuf(n int) []flight {
	for len(s.drained) > 0 {
		last := len(s.drained) - 1
		d := s.drained[last]
		s.drained[last] = nil
		s.drained = s.drained[:last]
		d.listed = false
		if r := &d.fly; r.n == 0 && len(r.buf) >= n {
			buf := r.buf
			r.buf, r.head = nil, 0
			return buf
		}
	}
	return make([]flight, n)
}

// takeFlight removes the frame d's record stands for — the wire heap's root
// or the batch's cursor — and re-keys the record to the next one: in place
// at the heap's root, into the heap from the batch. A direction that drains
// holding a grown buffer offers it to the next direction that fills
// (flightBuf).
func (s *Sim) takeFlight(d *dirState) ([]byte, framepool.Handle) {
	ev := &d.ev
	if invariant.Enabled {
		invariant.Assert(d.fly.n > 0 && (ev.loc == locWires && ev.idx == 0 || ev.loc == locRun && int(ev.idx) == s.batch.next),
			"simnet: dispatching a direction that is neither the wire heap's root nor the batch's cursor, or has nothing in flight")
	}
	r := &d.fly
	head := r.at(0)
	frame, fh := head.frame, head.fh
	head.frame = nil // the ring must not keep a delivered buffer alive
	r.drop(len(r.buf))
	switch {
	case ev.loc == locRun:
		s.batch.next++
		ev.loc, ev.idx = locNone, -1
		if r.n > 0 {
			next := r.at(0)
			s.wirePush(ev, orderKey{at: next.at, prio: d.prio, sub: next.tie})
		}
	case r.n == 0:
		s.heapPop(&s.wires)
		ev.loc = locNone
	default:
		next := r.at(0)
		s.wires[0].at, s.wires[0].sub = next.at, next.tie
		s.wires.siftDown(0)
		if invariant.Enabled {
			s.checkHeap(&s.wires, int(ev.idx))
		}
	}
	if r.n == 0 && len(r.buf) > 8 && !d.listed {
		d.listed = true
		s.drained = append(s.drained, d)
	}
	if invariant.Enabled {
		s.checkWire(d, 0)
	}
	return frame, fh
}
