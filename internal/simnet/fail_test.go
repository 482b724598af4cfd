package simnet

import (
	"testing"
	"time"
)

// TestFailLosesFramesInFlight checks that frames already in flight when the
// receiving port fails are dropped at arrival time, matching a real NIC
// losing frames the instant the interface goes down.
func TestFailLosesFramesInFlight(t *testing.T) {
	s, a, b, _, hb := pair(t)
	a.Port(1).Send([]byte("doomed"))
	// Fail the destination before the frame's 100µs flight completes.
	s.RunFor(10 * time.Microsecond)
	b.Port(1).Fail()
	s.RunFor(time.Millisecond)
	if len(hb.frames) != 0 {
		t.Errorf("frame delivered to failed port: %q", hb.frames)
	}
	if got := b.Port(1).Counters.RxDropped; got != 1 {
		t.Errorf("RxDropped = %d, want 1", got)
	}
}

// TestFailLosesFramesInFlightFromFailedSender checks the symmetric case:
// a frame in flight is also lost when the *sending* port fails before it
// lands (the wire died under it).
func TestFailLosesFramesInFlightFromFailedSender(t *testing.T) {
	s, a, _, _, hb := pair(t)
	a.Port(1).Send([]byte("doomed"))
	s.RunFor(10 * time.Microsecond)
	a.Port(1).Fail()
	s.RunFor(time.Millisecond)
	if len(hb.frames) != 0 {
		t.Errorf("frame delivered from failed sender: %q", hb.frames)
	}
}

// TestFailIdempotent checks that failing an already-failed port is a no-op:
// exactly one PortDown reaches the handler, and one Restore undoes it.
func TestFailIdempotent(t *testing.T) {
	s, _, b, _, hb := pair(t)
	b.Port(1).Fail()
	b.Port(1).Fail()
	b.Port(1).Fail()
	s.RunFor(LocalDetectDelay + time.Millisecond)
	if len(hb.downs) != 1 {
		t.Errorf("downs = %v, want exactly one PortDown", hb.downs)
	}
	b.Port(1).Restore()
	b.Port(1).Restore()
	s.RunFor(LocalDetectDelay + time.Millisecond)
	if len(hb.ups) != 1 {
		t.Errorf("ups = %v, want exactly one PortUp", hb.ups)
	}
}

// TestRestoreBeforeDetectDelaySuppressesPortDown checks a blip shorter than
// LocalDetectDelay: the Fail callback finds the port back up and stays
// silent, the Restore callback reports PortUp. The handler never hears
// about the blip as a failure — the detection delay is a debounce.
func TestRestoreBeforeDetectDelaySuppressesPortDown(t *testing.T) {
	s, _, b, _, hb := pair(t)
	b.Port(1).Fail()
	s.RunFor(LocalDetectDelay / 2)
	b.Port(1).Restore()
	s.RunFor(2 * LocalDetectDelay)
	if len(hb.downs) != 0 {
		t.Errorf("downs = %v, want none for a sub-detect-delay blip", hb.downs)
	}
	if len(hb.ups) != 1 {
		t.Errorf("ups = %v, want one PortUp", hb.ups)
	}
}

// TestRestoreOrderingVsPendingDelivery pins the arrival-time semantics of
// port status: a frame arriving inside the down window is dropped and a
// later Restore does not resurrect it, while a frame launched during the
// blip whose flight outlives the blip is delivered, because only the
// status at arrival matters.
func TestRestoreOrderingVsPendingDelivery(t *testing.T) {
	s := New(1)
	a, b := s.AddNode("a"), s.AddNode("b")
	hb := &echoHandler{}
	b.Handler = hb
	// A long wire so the failure window fits inside one flight.
	s.ConnectLatency(a.AddPort(), b.AddPort(), time.Millisecond)

	// Launched before the blip, arrives at 1ms — inside the 900µs..1.1ms
	// down window — so it is lost for good.
	a.Port(1).Send([]byte("arrives-mid-blip"))
	s.RunFor(900 * time.Microsecond)
	b.Port(1).Fail()
	s.RunFor(150 * time.Microsecond)
	// Launched during the blip, arrives at ~2.05ms, after the restore:
	// delivered, even though the destination was down at launch time.
	a.Port(1).Send([]byte("outlives-the-blip"))
	s.RunFor(50 * time.Microsecond)
	b.Port(1).Restore()
	s.RunFor(10 * time.Millisecond)

	if len(hb.frames) != 1 || hb.frames[0] != "outlives-the-blip" {
		t.Errorf("delivered %q, want exactly [outlives-the-blip]", hb.frames)
	}
	if got := b.Port(1).Counters.RxDropped; got != 1 {
		t.Errorf("RxDropped = %d, want 1 (the frame that arrived mid-blip)", got)
	}
}

// TestSendWhileDownCountsTxDrop checks that transmitting out a failed port
// is booked as a TX drop and nothing is scheduled.
func TestSendWhileDownCountsTxDrop(t *testing.T) {
	s, a, _, _, hb := pair(t)
	a.Port(1).Fail()
	a.Port(1).Send([]byte("nope"))
	s.RunFor(time.Millisecond)
	if len(hb.frames) != 0 {
		t.Errorf("delivered %q from a down port", hb.frames)
	}
	if got := a.Port(1).Counters.TxDropped; got != 1 {
		t.Errorf("TxDropped = %d, want 1", got)
	}
}
