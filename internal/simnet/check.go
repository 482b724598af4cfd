package simnet

import "repro/internal/invariant"

// smallHeapScan is the size up to which a check verifies every entry of a
// heap, a flight ring or the calendar wheel. Larger ones get a bounded check
// (a heap's touched index with its ancestor chain and children, a ring's
// touched position, the wheel's touched slot) so -tags invariants builds
// stay usable on the big fabric scenarios.
const smallHeapScan = 64

// checkHeap validates heap h — the wire heap, the near heap or the
// calendar's overflow — after a mutation that settled around index i.
// Callers guard with invariant.Enabled; the checks are:
//
//   - parent ≤ child under entryLess for every inspected pair,
//   - every inspected entry's event back-pointer (ev.idx) matches its slot,
//   - an inspected entry is in the heap its kind, loc and bin say: a wire
//     record only ever in the wire heap, carrying exactly the key of its
//     direction's earliest frame in flight; a timer in the near heap only
//     with a bin not after the calendar's current one, carrying its record's
//     key there and in the overflow.
func (s *Sim) checkHeap(h *eventHeap, i int) {
	n := len(*h)
	if n == 0 {
		return
	}
	if n <= smallHeapScan {
		for j := 0; j < n; j++ {
			s.checkEntry(h, j)
		}
		return
	}
	if i >= n {
		// The mutation shrank the heap past i (heapPop of the last
		// element); fall back to the root.
		i = 0
	}
	// Ancestor chain: O(log n) pairs ending at the root.
	for j := i; j > 0; {
		parent := (j - 1) / 2
		s.checkEntry(h, j)
		j = parent
	}
	s.checkEntry(h, 0)
	// And one level below the touched slot.
	if l := 2*i + 1; l < n {
		s.checkEntry(h, l)
	}
	if r := 2*i + 2; r < n {
		s.checkEntry(h, r)
	}
}

// checkEntry validates slot j of h: its back-pointer, that it belongs in h,
// and its ordering against its parent. The failure paths are split out so
// the hot success path does not allocate (Assertf boxes its variadic
// arguments unconditionally, which would break the allocation-bound
// forwarding tests under -tags invariants).
func (s *Sim) checkEntry(h *eventHeap, j int) {
	q := *h
	ev := q[j].ev
	if int(ev.idx) != j {
		invariant.Assertf(false,
			"simnet: heap entry %d back-pointer is %d (at=%v sub=%d)",
			j, ev.idx, q[j].at, q[j].sub)
	}
	if ev.kind == evWire {
		invariant.Assert(h == &s.wires, "simnet: a direction's wire record outside the wire heap")
		if d := ev.dir; d.fly.n == 0 {
			invariant.Assert(false, "simnet: idle direction's wire record left in the heap")
		} else if head := d.fly.at(0); q[j].at != head.at || q[j].prio != d.prio || q[j].sub != head.tie {
			invariant.Assertf(false,
				"simnet: heap entry %d (at=%v sub=%#x) is not its direction's next delivery (at=%v tie=%#x)",
				j, q[j].at, q[j].sub, head.at, head.tie)
		}
	} else {
		invariant.Assert(q[j].orderKey == ev.key, "simnet: heap entry's key is not its record's")
		switch h {
		case &s.near:
			invariant.Assert(ev.loc == locNear && binOf(q[j].at) <= s.cal.cur, "simnet: near-heap entry is of a bin after the calendar's current one (or its record says it is elsewhere)")
		case &s.cal.over:
			// That its bin is after cur holds between turns only; checkWheel
			// asserts it of the root.
			invariant.Assert(ev.loc == locOver, "simnet: overflow entry's record says it is elsewhere")
		default:
			invariant.Assert(false, "simnet: timer in the wire heap")
		}
	}
	if j > 0 {
		parent := (j - 1) / 2
		if entryLess(&q[j], &q[parent]) {
			invariant.Assertf(false,
				"simnet: heap order broken: entry %d (at=%v sub=%d) < parent %d (at=%v sub=%d)",
				j, q[j].at, q[j].sub, parent, q[parent].at, q[parent].sub)
		}
	}
}

// checkWheel validates the calendar wheel after slot's list changed: every
// record on the list says it is on the wheel, is of the one bin after cur
// that maps to slot and within the wheel's reach, and links back to its
// predecessor; the slot's bitmap bit is set exactly while the list is not
// empty; the overflow's earliest timer, hence all of it, is of a bin after
// cur; and, while the wheel is small, the lists of the set bits hold wheelN
// records between them.
func (s *Sim) checkWheel(slot int64) {
	c := &s.cal
	invariant.Assert(len(c.over) == 0 || binOf(c.over[0].at) > c.cur, "simnet: overflow timer of a bin the calendar has reached")
	n := c.checkSlot(slot)
	invariant.Assert((n > 0) == c.occupied(slot), "simnet: calendar bitmap bit does not match its slot's list")
	invariant.Assert(c.wheelN >= n, "simnet: calendar wheel count below what one slot holds")
	if c.wheelN > smallHeapScan {
		return
	}
	total := 0
	for sl := int64(0); sl < wheelBins; sl++ {
		if c.occupied(sl) {
			total += c.checkSlot(sl)
		}
	}
	invariant.Assert(total == c.wheelN, "simnet: calendar wheel count is not what the lists of the occupied slots hold")
}

// checkSlot validates one wheel list and returns its length.
func (c *calendar) checkSlot(slot int64) int {
	n := 0
	var prev *event
	for ev := c.heads[slot]; ev != nil; prev, ev = ev, ev.next {
		b := binOf(ev.key.at)
		invariant.Assert(ev.loc == locWheel && ev.kind == evFunc && ev.idx < 0, "simnet: record on a calendar list is not a wheel timer")
		invariant.Assert(slotOf(b) == slot && b > c.cur && b-c.cur < wheelBins, "simnet: wheel timer not on the list of its own bin (or its bin is outside the wheel)")
		invariant.Assert(ev.prev == prev, "simnet: calendar list back-link broken")
		n++
	}
	return n
}

// checkWire validates direction d after its flight ring changed around
// position i: the ring is sorted by (at, tie) — all of it while it is small,
// else i against its neighbours — and the direction's wire record is in the
// heap exactly while the ring is non-empty (checkHeap compares its key with
// the ring's head).
func (s *Sim) checkWire(d *dirState, i int) {
	r := &d.fly
	invariant.Assert((r.n > 0) == (d.ev.idx >= 0), "simnet: direction's wire record in the heap does not match frames in flight")
	lo, hi := 1, r.n
	if r.n > smallHeapScan {
		lo, hi = i, i+2
		if lo < 1 {
			lo = 1
		}
		if hi > r.n {
			hi = r.n
		}
	}
	for j := lo; j < hi; j++ {
		a, b := r.at(j-1), r.at(j)
		invariant.Assert(a.at < b.at || a.at == b.at && a.tie < b.tie, "simnet: flight ring out of (at, tie) order")
	}
}

// checkLive asserts that s was not released (Sim.Release): a run that goes
// on after handing its simulation back would be running in memory the next
// fork into it is writing.
func (s *Sim) checkLive() {
	invariant.Assert(!s.released, "simnet: running a simulation that was released for a fork to write into")
}
