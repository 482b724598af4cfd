package simnet

import "repro/internal/invariant"

// smallHeapScan is the queue size up to which a heap check verifies every
// entry. Larger queues get a bounded check (the touched index's ancestor
// chain and children) so -tags invariants builds stay usable on the big
// fabric scenarios.
const smallHeapScan = 64

// checkHeap validates the scheduling heap after a mutation that settled
// around index i. Callers guard with invariant.Enabled; the checks are:
//
//   - parent ≤ child under entryLess for every inspected pair,
//   - every inspected entry's event back-pointer (ev.idx) matches its slot,
//   - an inspected entry that stands for a busy direction carries exactly
//     the key of that direction's earliest frame in flight.
func (s *Sim) checkHeap(i int) {
	q := s.queue
	n := len(q)
	if n == 0 {
		return
	}
	if n <= smallHeapScan {
		for j := 0; j < n; j++ {
			s.checkEntry(j)
		}
		return
	}
	if i >= n {
		// The mutation shrank the queue past i (heapPop of the last
		// element); fall back to the root.
		i = 0
	}
	// Ancestor chain: O(log n) pairs ending at the root.
	for j := i; j > 0; {
		parent := (j - 1) / 2
		s.checkEntry(j)
		j = parent
	}
	s.checkEntry(0)
	// And one level below the touched slot.
	if l := 2*i + 1; l < n {
		s.checkEntry(l)
	}
	if r := 2*i + 2; r < n {
		s.checkEntry(r)
	}
}

// checkEntry validates slot j's back-pointer and its ordering against its
// parent. The failure paths are split out so the hot success path does not
// allocate (Assertf boxes its variadic arguments unconditionally, which
// would break the allocation-bound forwarding tests under -tags invariants).
func (s *Sim) checkEntry(j int) {
	q := s.queue
	if int(q[j].ev.idx) != j {
		//simlint:alloc invariant failure path; boxes only when the heap is already corrupt
		invariant.Assertf(false,
			"simnet: heap entry %d back-pointer is %d (at=%v seq=%d)",
			j, q[j].ev.idx, q[j].at, q[j].seq)
	}
	if d := q[j].ev.dir; q[j].ev.kind == evWire {
		if d.fly.n == 0 {
			invariant.Assert(false, "simnet: idle direction's wire record left in the heap")
		} else if head := d.fly.at(0); q[j].at != head.at || q[j].prio != d.prio || q[j].tie != head.tie {
			//simlint:alloc invariant failure path; boxes only when the heap is already corrupt
			invariant.Assertf(false,
				"simnet: heap entry %d (at=%v tie=%#x) is not its direction's next delivery (at=%v tie=%#x)",
				j, q[j].at, q[j].tie, head.at, head.tie)
		}
	}
	if j > 0 {
		parent := (j - 1) / 2
		if entryLess(&q[j], &q[parent]) {
			//simlint:alloc invariant failure path; boxes only when the heap is already corrupt
			invariant.Assertf(false,
				"simnet: heap order broken: entry %d (at=%v seq=%d) < parent %d (at=%v seq=%d)",
				j, q[j].at, q[j].seq, parent, q[parent].at, q[parent].seq)
		}
	}
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
