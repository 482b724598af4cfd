//go:build invariants

package simnet

import (
	"fmt"
	"testing"
	"time"
)

func mustPanic(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("corrupted heap passed the invariant check")
		}
	}()
	fn()
}

// TestHeapCheckDetectsCorruption breaks what checkHeap guards — ordering,
// back-pointers, and an entry sitting in the heap its record and its bin say
// it belongs in — and expects a panic for each.
func TestHeapCheckDetectsCorruption(t *testing.T) {
	// Eight timers inside the calendar's current bin: all in the near heap.
	build := func() *Sim {
		s := New(1)
		for i := 0; i < 8; i++ {
			s.After(time.Duration(i)*100*time.Microsecond, func() {})
		}
		if len(s.near) != 8 {
			t.Fatalf("near heap holds %d of the 8 timers of bin 0", len(s.near))
		}
		return s
	}

	s := build()
	s.checkHeap(&s.near, 0) // sanity: a fresh heap passes

	s.near[0].at = 900 * time.Microsecond // root now later than its children
	s.near[0].ev.key.at = s.near[0].at
	mustPanic(t, func() { s.checkHeap(&s.near, 0) })

	s = build()
	s.near[3].ev.idx = 0 // stale back-pointer
	mustPanic(t, func() { s.checkHeap(&s.near, 3) })

	s = build()
	s.near[3].ev.key.sub++ // the entry's inline key is no longer the record's
	mustPanic(t, func() { s.checkHeap(&s.near, 3) })

	s = build()
	s.near[7].at = 2 << binShift // a timer of bin 2 while the calendar is at bin 0
	s.near[7].ev.key.at = s.near[7].at
	mustPanic(t, func() { s.checkHeap(&s.near, 7) })

	s = build()
	s.near[5].ev.loc = locOver // the record believes it is in the overflow
	mustPanic(t, func() { s.checkHeap(&s.near, 5) })

	s = build()
	tm := s.After(10*time.Second, func() {}) // beyond the wheel
	s.checkHeap(&s.cal.over, 0)
	tm.ev.loc = locNear
	mustPanic(t, func() { s.checkHeap(&s.cal.over, 0) })
}

// TestCalendarCheckDetectsCorruption breaks what checkWheel guards — a wheel
// timer on the list of its own bin, the bitmap bit mirroring the list, the
// back-links, the wheel count, the overflow lying after the current bin — and
// expects a panic for each.
func TestCalendarCheckDetectsCorruption(t *testing.T) {
	const bin = time.Duration(1) << binShift
	// Two timers in bin 5, one in bin 9, one in the overflow.
	build := func() (*Sim, *Timer) {
		s := New(1)
		tm := s.After(5*bin, func() {})
		s.After(5*bin+time.Microsecond, func() {})
		s.After(9*bin, func() {})
		s.After(5*time.Second, func() {})
		if s.cal.wheelN != 3 || len(s.cal.over) != 1 {
			t.Fatalf("wheel holds %d, overflow %d; want 3 and 1", s.cal.wheelN, len(s.cal.over))
		}
		return s, tm
	}

	s, _ := build()
	s.checkWheel(5) // sanity: a fresh calendar passes
	s.checkWheel(9)

	s, tm := build()
	tm.ev.key.at = 6 * bin // on bin 5's list with bin 6's deadline
	mustPanic(t, func() { s.checkWheel(5) })

	s, _ = build()
	s.cal.occ[0] &^= 1 << 9 // an occupied slot turn would skip
	mustPanic(t, func() { s.checkWheel(9) })

	s, _ = build()
	s.cal.occ[0] |= 1 << 7 // an empty slot turn would stop at
	mustPanic(t, func() { s.checkWheel(7) })

	s, tm = build()
	tm.ev.prev = tm.ev // tm was armed first, so it is the list's tail
	mustPanic(t, func() { s.checkWheel(5) })

	s, _ = build()
	s.cal.wheelN++ // a count turn would wait on for ever
	mustPanic(t, func() { s.checkWheel(5) })

	s, tm = build()
	tm.ev.loc = locNear
	mustPanic(t, func() { s.checkWheel(5) })

	s, _ = build()
	s.cal.cur = binOf(6 * time.Second) // past the overflow's timer without taking it
	mustPanic(t, func() { s.checkWheel(5) })
}

// TestWireCheckDetectsCorruption breaks what the wire guard-rails hold — the
// flight ring's (at, tie) order, the heap record mirroring the ring's head,
// the record being in the wire heap, and in no other, exactly while frames
// are in flight, and the record staying off the freelist — and expects a
// panic for each.
func TestWireCheckDetectsCorruption(t *testing.T) {
	build := func() (*Sim, *dirState) {
		s, a, _, _, _ := pair(t)
		for i := 0; i < 4; i++ {
			a.Port(1).Send(make([]byte, 64))
			s.RunFor(time.Microsecond) // distinct arrival instants
		}
		return s, a.Port(1).Link.dir(a.Port(1))
	}

	s, d := build()
	s.checkWire(d, 0) // sanity: a fresh wire passes
	s.checkHeap(&s.wires, int(d.ev.idx))

	*d.fly.at(1), *d.fly.at(2) = *d.fly.at(2), *d.fly.at(1) // scrambled ring
	mustPanic(t, func() { s.checkWire(d, 1) })

	s, d = build()
	d.fly.at(0).at += time.Nanosecond // head no longer what the heap holds
	mustPanic(t, func() { s.checkHeap(&s.wires, int(d.ev.idx)) })

	s, d = build()
	s.heapRemove(&s.wires, int(d.ev.idx)) // frames in flight, nothing in the heap to deliver them
	mustPanic(t, func() { s.checkWire(d, 0) })

	s, d = build()
	e := s.wires[d.ev.idx]
	s.heapRemove(&s.wires, int(d.ev.idx))
	mustPanic(t, func() { s.heapPush(&s.near, e) }) // a wire record among the timers

	s, d = build()
	s.heapRemove(&s.wires, int(d.ev.idx))
	mustPanic(t, func() { s.release(&d.ev) }) // a permanent record is never recycled
}

// TestRunCheckDetectsCorruption breaks what checkRun, checkBatch and
// checkWire hold of the runs — back-pointers and loc, ascending keys from
// the cursor, a batch's one instant, each busy direction's record in the
// slot it names and keyed to its ring's head — and expects a panic for
// each.
func TestRunCheckDetectsCorruption(t *testing.T) {
	const bin = time.Duration(1) << binShift
	// A bin of 2*runMin timers in one stretch: the near run.
	nearRun := func() *Sim {
		s := New(1)
		for i := 0; i < 2*runMin; i++ {
			s.At(3*bin+time.Duration(i), func() {})
		}
		s.head()
		if len(s.nearRun.buf) != 2*runMin {
			t.Fatalf("near run holds %d of %d timers", len(s.nearRun.buf), 2*runMin)
		}
		return s
	}
	// 2*runMin+1 directions going busy for one instant: the first in the
	// wire heap, the rest a batch.
	wires := func() (*Sim, []*dirState) {
		s := New(1)
		var dirs []*dirState
		for i := 0; i < 2*runMin+1; i++ {
			x, y := s.AddNode(fmt.Sprintf("x%d", i)), s.AddNode(fmt.Sprintf("y%d", i))
			s.Connect(x.AddPort(), y.AddPort())
			x.Port(1).Send(make([]byte, 64))
			dirs = append(dirs, x.Port(1).Link.dir(x.Port(1)))
		}
		if len(s.batch.buf) != 2*runMin {
			t.Fatalf("batch holds %d of %d directions", len(s.batch.buf), 2*runMin)
		}
		return s, dirs
	}

	s := nearRun()
	s.checkLive()            // sanity: a fresh run passes
	s.nearRun.buf[3].idx = 4 // stale back-pointer
	mustPanic(t, func() { s.checkLive() })

	s = nearRun()
	s.nearRun.buf[5].loc = locNear // the record believes it is in the near heap
	mustPanic(t, func() { s.checkLive() })

	s = nearRun()
	s.nearRun.buf[6].key.at = 3*bin - 1 // out of order behind the cursor's successor
	mustPanic(t, func() { s.checkLive() })

	s = nearRun()
	s.nearRun.buf[7].key.at = 4 * bin // a timer of a later bin
	mustPanic(t, func() { s.checkLive() })

	s, dirs := wires()
	s.checkLive()
	for _, d := range dirs {
		s.checkWire(d, 0)
	}
	s.batch.buf[2].key.at++ // not the batch's instant, nor its ring's head
	mustPanic(t, func() { s.checkLive() })

	s, dirs = wires()
	d := dirs[1] // the first in the batch
	s.batch.buf[0], s.batch.buf[1] = s.batch.buf[1], s.batch.buf[0]
	mustPanic(t, func() { s.checkWire(d, 0) }) // its slot holds another record

	s, _ = wires()
	s.head() // sorts the batch into a run
	if !s.batch.sorted {
		t.Fatal("the batch was not sorted")
	}
	s.checkLive()
	s.batch.buf[0], s.batch.buf[1] = s.batch.buf[1], s.batch.buf[0]
	s.batch.buf[0].idx, s.batch.buf[1].idx = 0, 1
	mustPanic(t, func() { s.checkLive() }) // descending keys

	s, _ = wires()
	s.head()
	d = s.batch.buf[4].dir
	d.fly.at(0).tie++ // the run's key is no longer the ring's head
	mustPanic(t, func() { s.checkWire(d, 0) })

	s, dirs = wires()
	d = dirs[0] // in the wire heap
	d.ev.loc = locBatch
	mustPanic(t, func() { s.checkWire(d, 0) })
}
