package simnet

import (
	"testing"
	"time"

	"repro/internal/budget"
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

// TestTimerAllocs pins the keep-alive timer's budget at nothing: a pending
// timer moved near and far (into the calendar), stopped, re-armed from the
// freelist and fired by Step reuses the records it already has.
func TestTimerAllocs(t *testing.T) {
	s := New(1)
	fired := 0
	tm := s.After(time.Millisecond, func() { fired++ })
	cycle := func() {
		tm.Reset(time.Second)
		tm.Reset(time.Millisecond)
		tm.Stop()
		tm.Reset(time.Millisecond)
		for s.Step() {
		}
	}
	if allocs, bytes := budget.PerRun(200, cycle); allocs != 0 || bytes != 0 {
		t.Errorf("Reset, Stop and Step allocate %d objects and %d B per op, want 0 and 0", allocs, bytes)
	}
	if fired != 201 {
		t.Errorf("timer fired %d times in 201 cycles", fired)
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

// TestCalendarEdges walks a timer over the seams of the queue (event.go): bin
// boundaries, the near heap, the wheel and the overflow beyond it, and the
// calendar's current bin running ahead of the clock.
func TestCalendarEdges(t *testing.T) {
	const bin = time.Duration(1) << binShift
	const span = wheelBins * bin
	bit := func(s *Sim, b int64) bool { return s.cal.occupied(slotOf(b)) }
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, s *Sim)
	}{
		{"a timer exactly on a bin boundary", func(t *testing.T, s *Sim) {
			var fired []time.Duration
			note := func() { fired = append(fired, s.Now()) }
			on := s.At(7*bin, note)
			before := s.At(7*bin-1, note)
			if binOf(on.ev.key.at) != 7 || binOf(before.ev.key.at) != 6 {
				t.Fatalf("bins = %d and %d, want 7 and 6", binOf(on.ev.key.at), binOf(before.ev.key.at))
			}
			s.RunUntil(7*bin - 1)
			if len(fired) != 1 || fired[0] != 7*bin-1 {
				t.Fatalf("up to the last instant of bin 6 fired %v", fired)
			}
			s.RunUntil(7 * bin)
			if len(fired) != 2 || fired[1] != 7*bin {
				t.Fatalf("on the boundary fired %v", fired)
			}
		}},
		{"Reset moves a timer wheel → near heap → wheel → overflow", func(t *testing.T, s *Sim) {
			var fired []time.Duration
			tm := s.After(50*time.Millisecond, func() { fired = append(fired, s.Now()) })
			rec := tm.ev
			want := func(loc eventLoc, wheelN, near, over int) {
				t.Helper()
				if rec.loc != loc || s.cal.wheelN != wheelN || len(s.near) != near || len(s.cal.over) != over {
					t.Fatalf("loc %d, wheel %d, near %d, overflow %d; want %d, %d, %d, %d",
						rec.loc, s.cal.wheelN, len(s.near), len(s.cal.over), loc, wheelN, near, over)
				}
			}
			want(locWheel, 1, 0, 0)
			tm.Reset(100 * time.Microsecond) // bin 0, the current one
			want(locNear, 0, 1, 0)
			if bit(s, binOf(50*time.Millisecond)) {
				t.Error("the bin the timer left keeps its bitmap bit")
			}
			tm.Reset(span - bin) // the wheel's last bin
			want(locWheel, 1, 0, 0)
			tm.Reset(span) // one bin too far
			want(locOver, 0, 0, 1)
			tm.Reset(3 * time.Second)
			want(locOver, 0, 0, 1)
			if tm.ev != rec {
				t.Error("Reset of a pending timer changed its record")
			}
			s.RunUntil(10 * time.Second)
			if len(fired) != 1 || fired[0] != 3*time.Second {
				t.Fatalf("fired %v, want once at 3s", fired)
			}
		}},
		{"Stop of a bin's only entry clears its bitmap bit", func(t *testing.T, s *Sim) {
			a := s.After(20*bin, func() { t.Error("stopped timer fired") })
			b := s.After(20*bin+1, func() { t.Error("stopped timer fired") })
			kept := false
			s.After(21*bin, func() { kept = true })
			if !a.Stop() || !bit(s, 20) || s.cal.wheelN != 2 {
				t.Fatalf("after stopping one of bin 20's two: bit %v, wheel %d", bit(s, 20), s.cal.wheelN)
			}
			if !b.Stop() || bit(s, 20) || !bit(s, 21) || s.cal.wheelN != 1 {
				t.Fatalf("after stopping both: bit 20 %v, bit 21 %v, wheel %d", bit(s, 20), bit(s, 21), s.cal.wheelN)
			}
			s.RunUntil(time.Second)
			if !kept || s.cal.cur != 21 {
				t.Errorf("bin 21's timer fired: %v; calendar at bin %d, want 21 (turn must not stop at the emptied bin)", kept, s.cal.cur)
			}
		}},
		{"an At 10 s out is dispatched after a RunUntil past it", func(t *testing.T, s *Sim) {
			var at time.Duration
			tm := s.At(10*time.Second, func() { at = s.Now() })
			if tm.ev.loc != locOver {
				t.Fatalf("loc = %d, want the overflow", tm.ev.loc)
			}
			s.RunUntil(9 * time.Second)
			if at != 0 || s.Now() != 9*time.Second {
				t.Fatalf("fired at %v by %v", at, s.Now())
			}
			s.RunUntil(11 * time.Second)
			if at != 10*time.Second || s.Events() != 1 {
				t.Errorf("fired at %v (%d events), want 10s (1)", at, s.Events())
			}
		}},
		{"one turn skips more than a wheel", func(t *testing.T, s *Sim) {
			var order []string
			s.After(2*bin, func() { order = append(order, "wheel") })
			s.After(3*span+5*bin, func() { order = append(order, "far") })
			s.After(3*span+5*bin-1, func() { order = append(order, "far-1ns") })
			s.Step()
			if s.cal.cur != 2 || len(order) != 1 {
				t.Fatalf("calendar at bin %d after %v, want 2 after the wheel's timer", s.cal.cur, order)
			}
			s.RunUntil(time.Second) // dispatches nothing; looking for the next event is the one turn
			if s.cal.cur != 3*wheelBins+4 || len(order) != 1 {
				t.Fatalf("calendar at bin %d after %v, want %d", s.cal.cur, order, 3*wheelBins+4)
			}
			s.RunUntil(4 * span)
			if s.cal.cur != 3*wheelBins+5 {
				t.Errorf("calendar at bin %d, want %d", s.cal.cur, 3*wheelBins+5)
			}
			if len(order) != 3 || order[0] != "wheel" || order[1] != "far-1ns" || order[2] != "far" {
				t.Errorf("order = %v", order)
			}
		}},
		{"After into a bin behind the calendar's current one", func(t *testing.T, s *Sim) {
			var order []string
			s.At(5*time.Second, func() { order = append(order, "5s") })
			s.RunUntil(time.Second) // idle: looking for the next event turned the calendar to 5 s
			if s.cal.cur != binOf(5*time.Second) {
				t.Fatalf("calendar at bin %d, want %d", s.cal.cur, binOf(5*time.Second))
			}
			tm := s.After(time.Millisecond, func() { order = append(order, "1.001s") })
			far := s.After(4*time.Second+time.Millisecond, func() { order = append(order, "5.001s") })
			if tm.ev.loc != locNear || far.ev.loc != locWheel {
				t.Fatalf("locs = %d and %d, want near heap and wheel", tm.ev.loc, far.ev.loc)
			}
			s.RunUntil(6 * time.Second)
			if len(order) != 3 || order[0] != "1.001s" || order[1] != "5s" || order[2] != "5.001s" {
				t.Errorf("order = %v", order)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, New(1)) })
	}
}
