package bfd

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/ipstack"
	"repro/internal/netaddr"
	"repro/internal/simnet"
)

func TestControlPacketRoundTrip(t *testing.T) {
	f := func(state byte, mult byte, my, your, tx, rx uint32) bool {
		if mult == 0 {
			mult = 3
		}
		in := ControlPacket{
			State: State(state % 4), DetectMult: mult,
			MyDisc: my, YourDisc: your, DesiredMinTx: tx, RequiredMinRx: rx,
		}
		out, err := Unmarshal(in.Marshal())
		return err == nil && out == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPacketLen(t *testing.T) {
	p := ControlPacket{State: StateUp, DetectMult: 3, MyDisc: 1}
	if got := len(p.Marshal()); got != 24 {
		t.Errorf("control packet = %d bytes, want 24 (66 at L2 per Fig. 9)", got)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal(make([]byte, 10)); err != ErrMalformed {
		t.Errorf("short: %v", err)
	}
	good := (&ControlPacket{State: StateUp, DetectMult: 3}).Marshal()
	bad := append([]byte(nil), good...)
	bad[0] = 0 // version 0
	if _, err := Unmarshal(bad); err != ErrMalformed {
		t.Errorf("version: %v", err)
	}
	bad = append([]byte(nil), good...)
	bad[2] = 0 // detect mult 0
	if _, err := Unmarshal(bad); err != ErrMalformed {
		t.Errorf("mult: %v", err)
	}
}

// pairNet wires two stacks on one link with BFD managers.
type pairNet struct {
	sim    *simnet.Sim
	a, b   *ipstack.Stack
	ma, mb *Manager
	sa, sb *Session
}

func newPair(t *testing.T) *pairNet {
	t.Helper()
	pn := &pairNet{sim: simnet.New(5)}
	na, nb := pn.sim.AddNode("a"), pn.sim.AddNode("b")
	pn.a, pn.b = ipstack.New(na), ipstack.New(nb)
	pn.sim.Connect(na.AddPort(), nb.AddPort())
	sub := netaddr.MakePrefix(netaddr.MakeIPv4(172, 16, 0, 0), 24)
	pn.a.AddIface(na.Port(1), sub.Host(1), sub)
	pn.b.AddIface(nb.Port(1), sub.Host(2), sub)
	pn.ma, pn.mb = NewManager(pn.a), NewManager(pn.b)
	pn.sa = pn.ma.Add(sub.Host(1), sub.Host(2), DefaultConfig())
	pn.sb = pn.mb.Add(sub.Host(2), sub.Host(1), DefaultConfig())
	return pn
}

func TestSessionComesUp(t *testing.T) {
	pn := newPair(t)
	pn.sim.RunFor(2 * time.Second)
	if pn.sa.State() != StateUp || pn.sb.State() != StateUp {
		t.Fatalf("states: a=%v b=%v, want Up/Up", pn.sa.State(), pn.sb.State())
	}
}

func TestDetectionWithin300ms(t *testing.T) {
	pn := newPair(t)
	pn.sim.RunFor(2 * time.Second)
	var downAt time.Duration
	pn.sb.OnDown = func() { downAt = pn.sim.Now() }
	failAt := pn.sim.Now()
	// Fail a's interface: b stops hearing control packets and must
	// detect within DetectMult × txInterval (plus scheduling slack).
	pn.a.Node.Port(1).Fail()
	pn.sim.RunFor(time.Second)
	if downAt == 0 {
		t.Fatal("b never detected the failure")
	}
	detect := downAt - failAt
	if detect > 400*time.Millisecond {
		t.Errorf("detection took %v, want <= ~300ms (+jitter slack)", detect)
	}
	if detect < 100*time.Millisecond {
		t.Errorf("detection after %v is implausibly fast for a remote failure", detect)
	}
}

func TestTxRate(t *testing.T) {
	pn := newPair(t)
	pn.sim.RunFor(10 * time.Second)
	// 100ms interval with up to 25% jitter: roughly 100-134 packets in 10s.
	if pn.sa.Stats.Sent < 90 || pn.sa.Stats.Sent > 140 {
		t.Errorf("a sent %d control packets in 10s, want ~100-134", pn.sa.Stats.Sent)
	}
}

func TestSessionRecovers(t *testing.T) {
	pn := newPair(t)
	pn.sim.RunFor(2 * time.Second)
	pn.a.Node.Port(1).Fail()
	pn.sim.RunFor(2 * time.Second)
	if pn.sb.State() == StateUp {
		t.Fatal("b still Up during outage")
	}
	var upAgain bool
	pn.sb.OnUp = func() { upAgain = true }
	pn.a.Node.Port(1).Restore()
	pn.sim.RunFor(2 * time.Second)
	if !upAgain || pn.sb.State() != StateUp || pn.sa.State() != StateUp {
		t.Errorf("session did not recover: a=%v b=%v", pn.sa.State(), pn.sb.State())
	}
}

func TestLocalFailureAlsoDetected(t *testing.T) {
	// The side owning the failed interface stops receiving too; its BFD
	// session must drop even though its OS saw the carrier loss first.
	pn := newPair(t)
	pn.sim.RunFor(2 * time.Second)
	var down bool
	pn.sa.OnDown = func() { down = true }
	pn.a.Node.Port(1).Fail()
	pn.sim.RunFor(time.Second)
	if !down {
		t.Error("a's own session did not time out")
	}
}

// TestTransmitAllocs pins the keep-alive budget. A control packet costs
// nothing: it is rendered into the session's own buffer, the frame comes
// from the pool and returns to it when the peer's listener has decoded the
// packet, and event bookkeeping amortizes to zero once the simulator
// freelists warm up (DESIGN.md §9). The 100ms-interval BFD churn dominates
// the BGP/BFD configuration's event count, so a regression here slows every
// figure run.
func TestTransmitAllocs(t *testing.T) {
	pn := newPair(t)
	pn.sim.RunFor(2 * time.Second) // sessions Up, ARP resolved, freelists warm
	avg := testing.AllocsPerRun(200, func() {
		pn.sa.transmit()
		// Run past the link latency so the delivery fires and its event
		// record recycles instead of queueing. (A full drain would never
		// return: the periodic timers re-arm forever.)
		pn.sim.RunFor(300 * time.Microsecond)
	})
	if avg != 0 {
		t.Errorf("BFD transmit allocates %.1f/op, want 0 (the control packet is the session's buffer; its frame is pooled and the receiving listener gives it back)", avg)
	}
}
