//go:build invariants

package simnet

import (
	"strings"
	"testing"
	"time"
)

// The invariants build poisons released event records (kind = evFreed) and
// asserts the poison on both sides of the freelist, and checks each frame's
// pool generation at delivery. These tests corrupt the lifecycle on purpose
// and expect each assertion to fire.

func TestFreelistDoubleReleasePanics(t *testing.T) {
	s := New(1)
	ev := s.alloc()
	ev.kind = evFunc
	s.release(ev)
	mustPanic(t, func() { s.release(ev) })
}

func TestFreelistDetectsWriteAfterRelease(t *testing.T) {
	s := New(1)
	ev := s.alloc()
	ev.kind = evFunc
	s.release(ev)
	ev.kind = evFunc // simulated write through a stale pointer
	mustPanic(t, func() { s.alloc() })
}

func TestFreelistReleaseWhileQueuedPanics(t *testing.T) {
	s := New(1)
	tm := s.After(time.Millisecond, func() {})
	mustPanic(t, func() { s.release(tm.ev) }) // still in the heap (idx >= 0)
}

// TestStepCatchesFrameRecycledInFlight pins the delivery-time wiring of the
// frame arena's generation check: Send snapshots the buffer's handle, and a
// Put while the delivery event is still queued must panic when Step reaches
// it — not hand the receiver whatever the next Get wrote.
func TestStepCatchesFrameRecycledInFlight(t *testing.T) {
	s, a, _, _, _ := pair(t)
	frame := s.Frames().Get(64)
	a.Port(1).Send(frame)
	s.Frames().Put(frame) // the seeded crime: released while in flight
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "recycled while still in flight") {
			t.Fatalf("Step did not report the in-flight recycle; recovered %q", msg)
		}
	}()
	for s.Step() {
	}
}
