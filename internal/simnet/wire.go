package simnet

import (
	"time"

	"repro/internal/invariant"
)

// A link direction is a FIFO: frames leave the transmitter at busyUntil,
// which only grows. What the direction has pending is therefore kept in
// order on the direction itself instead of being sorted by the global heap.

// relKey is the ordering key of one egress-queue release: the local event
// that, scheduled at the instant the frame has left the transmitter, would
// have freed its queue slot. It is never scheduled; see passMark.
type relKey struct {
	at   time.Duration
	seq  uint64
	prio uint32
}

// relRing is a direction's pending releases, oldest first. at never
// decreases along it and seq always increases.
type relRing struct {
	buf  []relKey
	head int
	n    int
}

func (r *relRing) at(i int) *relKey {
	j := r.head + i
	if j >= len(r.buf) {
		j -= len(r.buf)
	}
	return &r.buf[j]
}

// push appends k. An empty ring is sized for a queue bound of maxQueue
// frames, which a bounded queue never outgrows while transmit times are
// positive.
func (r *relRing) push(k relKey, maxQueue int) {
	if r.n == len(r.buf) {
		size := 2 * len(r.buf)
		if size == 0 {
			size = maxQueue
			if size <= 0 {
				size = 8
			}
		}
		buf := make([]relKey, size) //simlint:alloc once per direction when the queue is bounded, amortized doubling when it is not
		for i := 0; i < r.n; i++ {
			buf[i] = *r.at(i)
		}
		r.buf, r.head = buf, 0
	}
	if invariant.Enabled && r.n > 0 {
		last := r.at(r.n - 1)
		invariant.Assert(last.at <= k.at && last.seq < k.seq, "simnet: egress-queue release recorded out of order")
	}
	*r.at(r.n) = k
	r.n++
}

func (r *relRing) pop() {
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
}

// queued is the depth of d's egress queue: the frames sent on d whose
// release the dispatch order has not passed. It drops the passed ones.
func (s *Sim) queued(d *dirState) int {
	r := &d.rel
	for r.n > 0 && s.passed(r.at(0)) {
		r.pop()
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
