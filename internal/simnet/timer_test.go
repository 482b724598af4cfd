package simnet

import (
	"testing"
	"time"
)

// The tests in this file pin the stop/reset/fire orderings of the Timer
// API. The seed engine dropped the callback when an event fired, so the
// first Reset on a fired timer silently scheduled a no-op — exactly the
// pattern every keep-alive protocol uses (fire, then re-arm from inside or
// outside the callback).

func TestTimerResetAfterFire(t *testing.T) {
	s := New(1)
	count := 0
	tm := s.After(time.Millisecond, func() { count++ })
	s.RunFor(5 * time.Millisecond)
	if count != 1 {
		t.Fatalf("timer fired %d times, want 1", count)
	}
	tm.Reset(time.Millisecond)
	s.RunFor(5 * time.Millisecond)
	if count != 2 {
		t.Errorf("after Reset on fired timer, count = %d, want 2 (callback lost)", count)
	}
}

func TestTimerResetAfterStop(t *testing.T) {
	s := New(1)
	count := 0
	tm := s.After(time.Millisecond, func() { count++ })
	tm.Stop()
	tm.Reset(time.Millisecond)
	s.RunFor(5 * time.Millisecond)
	if count != 1 {
		t.Errorf("after Stop then Reset, count = %d, want 1", count)
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	s := New(1)
	count := 0
	tm := s.After(time.Millisecond, func() { count++ })
	s.RunFor(5 * time.Millisecond)
	if tm.Stop() {
		t.Error("Stop() = true on a fired timer")
	}
	if count != 1 {
		t.Errorf("count = %d, want 1", count)
	}
}

// TestTimerStaleHandleDoesNotCancelRecycledEvent pins the generation check:
// once a timer's event record is recycled for an unrelated event, the old
// handle must become inert rather than cancel the new owner's event.
func TestTimerStaleHandleDoesNotCancelRecycledEvent(t *testing.T) {
	s := New(1)
	tm := s.After(time.Millisecond, func() {})
	s.RunFor(5 * time.Millisecond) // fires; record goes to the freelist
	count := 0
	// The freelist is LIFO, so this timer reuses tm's record.
	s.After(time.Millisecond, func() { count++ })
	if tm.Stop() {
		t.Error("stale handle Stop() = true")
	}
	tm.Reset(20 * time.Millisecond) // re-arms tm afresh, must not re-time the other event
	s.RunFor(5 * time.Millisecond)
	if count != 1 {
		t.Errorf("recycled event fired %d times, want 1 (stale handle interfered)", count)
	}
}

func TestTimerResetPendingKeepsSingleFiring(t *testing.T) {
	s := New(1)
	var fires []time.Duration
	var tm *Timer
	tm = s.After(time.Millisecond, func() {
		fires = append(fires, s.Now())
		if len(fires) < 3 {
			tm.Reset(time.Millisecond) // re-arm from inside the callback
		}
	})
	s.RunFor(10 * time.Millisecond)
	want := []time.Duration{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond}
	if len(fires) != len(want) {
		t.Fatalf("fired %d times, want %d", len(fires), len(want))
	}
	for i := range want {
		if fires[i] != want[i] {
			t.Errorf("fire %d at %v, want %v", i, fires[i], want[i])
		}
	}
}

// TestTimerResetReordersAgainstPeers checks the in-place re-timing: a reset
// timer must fire in (time, scheduling order) position relative to other
// pending events, not in its original heap position.
func TestTimerResetReordersAgainstPeers(t *testing.T) {
	s := New(1)
	var order []string
	tm := s.After(time.Millisecond, func() { order = append(order, "reset") })
	s.After(2*time.Millisecond, func() { order = append(order, "fixed") })
	tm.Reset(3 * time.Millisecond) // was earliest, now latest
	s.RunFor(10 * time.Millisecond)
	if len(order) != 2 || order[0] != "fixed" || order[1] != "reset" {
		t.Errorf("order = %v, want [fixed reset]", order)
	}
}

func TestNodesDeterministicOrder(t *testing.T) {
	s := New(1)
	names := []string{"zeta", "alpha", "mid", "beta"}
	for _, n := range names {
		s.AddNode(n)
	}
	for trial := 0; trial < 3; trial++ {
		got := s.Nodes()
		if len(got) != len(names) {
			t.Fatalf("Nodes() returned %d nodes, want %d", len(got), len(names))
		}
		for i, n := range got {
			if n.Name != names[i] {
				t.Fatalf("Nodes()[%d] = %s, want %s (insertion order)", i, n.Name, names[i])
			}
		}
	}
}

// TestTimerOnRunUntilHorizon pins the inclusive horizon: RunUntil(t) runs
// everything scheduled at exactly t — a control timer before a frame
// arriving at the same instant — and nothing scheduled after it.
func TestTimerOnRunUntilHorizon(t *testing.T) {
	s := New(3)
	a, b := s.AddNode("a"), s.AddNode("b")
	hb := &echoHandler{}
	b.Handler = hb
	s.ConnectLatency(a.AddPort(), b.AddPort(), 100*time.Microsecond)
	var order []string
	hb.onRx = func(*Port, []byte) { order = append(order, "frame") }

	horizon := 100 * time.Microsecond
	a.Port(1).Send([]byte("x")) // arrives exactly on the horizon
	s.At(horizon, func() { order = append(order, "ctrl") })
	s.At(horizon+time.Nanosecond, func() { order = append(order, "late") })
	s.RunUntil(horizon)

	if len(order) != 2 || order[0] != "ctrl" || order[1] != "frame" {
		t.Errorf("at the horizon order = %v, want [ctrl frame]", order)
	}
	if s.Now() != horizon {
		t.Errorf("Now = %v, want %v", s.Now(), horizon)
	}
	s.RunUntil(horizon + time.Nanosecond)
	if len(order) != 3 || order[2] != "late" {
		t.Errorf("after the horizon order = %v, want [ctrl frame late]", order)
	}
}
