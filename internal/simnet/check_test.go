//go:build invariants

package simnet

import (
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

// TestHeapCheckDetectsCorruption breaks the two properties checkHeap
// guards — ordering and back-pointers — and expects a panic for each.
func TestHeapCheckDetectsCorruption(t *testing.T) {
	build := func() *Sim {
		s := New(1)
		for i := 0; i < 8; i++ {
			s.After(time.Duration(i)*time.Millisecond, func() {})
		}
		return s
	}

	s := build()
	s.checkHeap(0) // sanity: a fresh heap passes

	s.queue[0].at = time.Hour // root now later than its children
	mustPanic(t, func() { s.checkHeap(0) })

	s = build()
	s.queue[3].ev.idx = 0 // stale back-pointer
	mustPanic(t, func() { s.checkHeap(3) })
}

// TestWireCheckDetectsCorruption breaks what the wire guard-rails hold — the
// flight ring's (at, tie) order, the heap record mirroring the ring's head,
// the record being in the heap exactly while frames are in flight, and the
// record staying off the freelist — and expects a panic for each.
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
	s.checkHeap(int(d.ev.idx))

	*d.fly.at(1), *d.fly.at(2) = *d.fly.at(2), *d.fly.at(1) // scrambled ring
	mustPanic(t, func() { s.checkWire(d, 1) })

	s, d = build()
	d.fly.at(0).at += time.Nanosecond // head no longer what the heap holds
	mustPanic(t, func() { s.checkHeap(int(d.ev.idx)) })

	s, d = build()
	s.heapRemove(int(d.ev.idx)) // frames in flight, nothing in the heap to deliver them
	mustPanic(t, func() { s.checkWire(d, 0) })

	s, d = build()
	s.heapRemove(int(d.ev.idx))
	mustPanic(t, func() { s.release(&d.ev) }) // a permanent record is never recycled
}
