package tcp

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/netaddr"
	"repro/internal/simnet"
)

var (
	ipA = netaddr.MakeIPv4(172, 16, 0, 1)
	ipB = netaddr.MakeIPv4(172, 16, 0, 2)
)

// wirePair connects two endpoints through the simulator with a drop hook.
type wirePair struct {
	sim  *simnet.Sim
	a, b *Endpoint
	// drop, when non-nil, discards matching segments (loss injection).
	drop func(from netaddr.IPv4, segment []byte) bool
	cut  bool // when true, all segments are lost
}

func newWirePair(t *testing.T) *wirePair {
	t.Helper()
	w := &wirePair{sim: simnet.New(7)}
	deliver := func(to *Endpoint) func(src, dst netaddr.IPv4, seg []byte) {
		return func(src, dst netaddr.IPv4, seg []byte) {
			if w.cut || (w.drop != nil && w.drop(src, seg)) {
				return
			}
			cp := append([]byte(nil), seg...)
			w.sim.After(100*time.Microsecond, func() { to.Input(src, dst, cp) })
		}
	}
	w.a = NewEndpoint(w.sim, nil, nil)
	w.b = NewEndpoint(w.sim, nil, nil)
	w.a.output = deliver(w.b)
	w.b.output = deliver(w.a)
	return w
}

func TestWireRoundTrip(t *testing.T) {
	f := func(sp, dp uint16, seq, ack uint32, payload []byte, syn bool) bool {
		s := Segment{SrcPort: sp, DstPort: dp, Seq: seq, Ack: ack, Flags: FlagACK, TSVal: 1, TSEcr: 2, Payload: payload}
		if syn {
			s.Flags |= FlagSYN
			s.MSSOption = MSS
		}
		out, err := Unmarshal(ipA, ipB, s.Marshal(ipA, ipB))
		if err != nil {
			return false
		}
		ok := out.SrcPort == sp && out.DstPort == dp && out.Seq == seq && out.Ack == ack &&
			out.TSVal == 1 && out.TSEcr == 2 && bytes.Equal(out.Payload, payload)
		if syn {
			ok = ok && out.MSSOption == MSS
		}
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWireChecksumBindsAddresses(t *testing.T) {
	s := Segment{SrcPort: 179, DstPort: 49153, Flags: FlagACK}
	b := s.Marshal(ipA, ipB)
	if _, err := Unmarshal(ipA, netaddr.MakeIPv4(9, 9, 9, 9), b); err != ErrBadChecksum {
		t.Errorf("err = %v, want ErrBadChecksum", err)
	}
}

func TestBGPKeepAliveWireSize(t *testing.T) {
	// A 19-byte BGP KEEPALIVE in a data segment: 32 (TCP+TS) + 19 = 51;
	// with IP (20) and Ethernet (14) that is the 85-byte frame of Fig. 9.
	s := Segment{Flags: FlagACK | FlagPSH, Payload: make([]byte, 19)}
	if got := len(s.Marshal(ipA, ipB)); got != 51 {
		t.Errorf("segment = %d bytes, want 51", got)
	}
	// A pure ACK is 32 bytes => 66 at layer 2.
	ack := Segment{Flags: FlagACK}
	if got := len(ack.Marshal(ipA, ipB)); got != 32 {
		t.Errorf("pure ACK = %d bytes, want 32", got)
	}
}

func TestSeqArithmetic(t *testing.T) {
	f := func(a uint32, delta uint16) bool {
		b := a + uint32(delta)
		if delta == 0 {
			return seqLEQ(a, b) && seqLEQ(b, a) && !seqLT(a, b)
		}
		return seqLT(a, b) && seqLEQ(a, b) && !seqLT(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Wraparound explicitly.
	if !seqLT(0xffffff00, 0x10) {
		t.Error("seqLT should handle wraparound")
	}
}

func TestHandshakeAndData(t *testing.T) {
	w := newWirePair(t)
	var got []byte
	var serverConn *Conn
	w.b.Listen(179, func(c *Conn) {
		serverConn = c
		c.OnData(func(d []byte) { got = append(got, d...) })
	})
	c := w.a.Dial(ipA, ipB, 179)
	var established bool
	c.OnState(func(s State) {
		if s == StateEstablished {
			established = true
		}
	})
	w.sim.RunFor(10 * time.Millisecond)
	if !established {
		t.Fatal("client never established")
	}
	if serverConn == nil || serverConn.State() != StateEstablished {
		t.Fatal("server never established")
	}
	c.Send([]byte("OPEN"))
	c.Send([]byte("KEEPALIVE"))
	w.sim.RunFor(10 * time.Millisecond)
	if string(got) != "OPENKEEPALIVE" {
		t.Errorf("server got %q, want OPENKEEPALIVE", got)
	}
}

func TestDataBeforeEstablishedIsQueued(t *testing.T) {
	w := newWirePair(t)
	var got []byte
	w.b.Listen(179, func(c *Conn) {
		c.OnData(func(d []byte) { got = append(got, d...) })
	})
	c := w.a.Dial(ipA, ipB, 179)
	c.Send([]byte("early")) // before handshake completes
	w.sim.RunFor(20 * time.Millisecond)
	if string(got) != "early" {
		t.Errorf("got %q, want early", got)
	}
}

func TestSegmentationAboveMSS(t *testing.T) {
	w := newWirePair(t)
	var got []byte
	w.b.Listen(179, func(c *Conn) {
		c.OnData(func(d []byte) { got = append(got, d...) })
	})
	c := w.a.Dial(ipA, ipB, 179)
	big := make([]byte, 3*MSS+100)
	for i := range big {
		big[i] = byte(i)
	}
	c.Send(big)
	w.sim.RunFor(50 * time.Millisecond)
	if !bytes.Equal(got, big) {
		t.Fatalf("reassembled %d bytes, want %d (content match: %v)", len(got), len(big), bytes.Equal(got, big))
	}
}

func TestRetransmissionRecoversLoss(t *testing.T) {
	w := newWirePair(t)
	var got []byte
	w.b.Listen(179, func(c *Conn) {
		c.OnData(func(d []byte) { got = append(got, d...) })
	})
	c := w.a.Dial(ipA, ipB, 179)
	w.sim.RunFor(10 * time.Millisecond)
	// Drop the next two data segments from A.
	drops := 2
	w.drop = func(from netaddr.IPv4, seg []byte) bool {
		s, err := Unmarshal(ipA, ipB, seg)
		if err != nil || from != ipA || len(s.Payload) == 0 {
			return false
		}
		if drops > 0 {
			drops--
			return true
		}
		return false
	}
	c.Send([]byte("lost-then-recovered"))
	w.sim.RunFor(5 * time.Second)
	if string(got) != "lost-then-recovered" {
		t.Errorf("got %q after loss, want full data", got)
	}
	if w.a.Stats.Retransmits == 0 {
		t.Error("expected at least one retransmission")
	}
}

func TestSynRetransmission(t *testing.T) {
	w := newWirePair(t)
	accepted := false
	w.b.Listen(179, func(c *Conn) { accepted = true })
	drops := 1
	w.drop = func(from netaddr.IPv4, seg []byte) bool {
		if from == ipA && drops > 0 {
			drops--
			return true
		}
		return false
	}
	c := w.a.Dial(ipA, ipB, 179)
	w.sim.RunFor(2 * time.Second)
	if c.State() != StateEstablished || !accepted {
		t.Errorf("state=%v accepted=%v after SYN loss; handshake should recover", c.State(), accepted)
	}
}

func TestConnectionFailsAfterMaxRetries(t *testing.T) {
	w := newWirePair(t)
	w.b.Listen(179, func(c *Conn) {})
	c := w.a.Dial(ipA, ipB, 179)
	w.sim.RunFor(10 * time.Millisecond)
	if c.State() != StateEstablished {
		t.Fatal("setup failed")
	}
	w.cut = true
	var closed bool
	c.OnState(func(s State) {
		if s == StateClosed {
			closed = true
		}
	})
	c.Send([]byte("doomed"))
	w.sim.RunFor(5 * time.Minute)
	if !closed {
		t.Error("connection did not fail after retransmission exhaustion")
	}
}

func TestCloseSendsRSTAndPeerTearsDown(t *testing.T) {
	w := newWirePair(t)
	var serverConn *Conn
	w.b.Listen(179, func(c *Conn) { serverConn = c })
	c := w.a.Dial(ipA, ipB, 179)
	w.sim.RunFor(10 * time.Millisecond)
	var serverClosed bool
	serverConn.OnState(func(s State) {
		if s == StateClosed {
			serverClosed = true
		}
	})
	c.Close()
	w.sim.RunFor(10 * time.Millisecond)
	if c.State() != StateClosed {
		t.Error("client not closed")
	}
	if !serverClosed {
		t.Error("server did not tear down on RST")
	}
}

func TestNoListenerGetsRST(t *testing.T) {
	w := newWirePair(t)
	c := w.a.Dial(ipA, ipB, 4444) // nothing listening
	var closed bool
	c.OnState(func(s State) {
		if s == StateClosed {
			closed = true
		}
	})
	w.sim.RunFor(time.Second)
	if !closed {
		t.Error("dial to closed port did not get reset")
	}
}

func TestDuplicateDataNotDeliveredTwice(t *testing.T) {
	w := newWirePair(t)
	var got []byte
	w.b.Listen(179, func(c *Conn) {
		c.OnData(func(d []byte) { got = append(got, d...) })
	})
	c := w.a.Dial(ipA, ipB, 179)
	w.sim.RunFor(10 * time.Millisecond)
	// Drop the ACK for the data once so the sender retransmits a segment
	// the receiver already has.
	dropped := false
	w.drop = func(from netaddr.IPv4, seg []byte) bool {
		s, err := Unmarshal(ipB, ipA, seg)
		if err != nil || from != ipB || s.Flags&FlagACK == 0 || dropped {
			return false
		}
		dropped = true
		return true
	}
	c.Send([]byte("once"))
	w.sim.RunFor(5 * time.Second)
	if string(got) != "once" {
		t.Errorf("got %q, want exactly one delivery", got)
	}
}

// TestStreamBuiltAtFirstDraw: an endpoint asks for its ISS stream when it
// opens or accepts a connection, and the streams it is given are built on
// first request, as simnet.Node.Rand builds a node's. An endpoint that only
// listens and answers a stray segment builds none (a fabric's servers never
// connect at all), and the first draw is the one an eagerly built stream
// would have made.
func TestStreamBuiltAtFirstDraw(t *testing.T) {
	w := newWirePair(t)
	built := map[*Endpoint]int{}
	for _, e := range []*Endpoint{w.a, w.b} {
		var rng *rand.Rand
		e.stream = func() *rand.Rand {
			if rng == nil {
				built[e]++
				rng = rand.New(rand.NewSource(5))
			}
			return rng
		}
	}
	w.b.Listen(179, func(*Conn) {})
	stray := Segment{SrcPort: 40000, DstPort: 180, Seq: 9, Flags: FlagACK}
	w.b.Input(ipA, ipB, stray.Marshal(ipA, ipB)) // no listener: answered with a RST, no ISS
	w.sim.RunFor(10 * time.Millisecond)
	if built[w.b] != 0 || built[w.a] != 0 {
		t.Fatalf("streams built before any connection: server %d, client %d", built[w.b], built[w.a])
	}
	c := w.a.Dial(ipA, ipB, 179)
	w.sim.RunFor(10 * time.Millisecond)
	if c.State() != StateEstablished || built[w.a] != 1 || built[w.b] != 1 {
		t.Fatalf("after one connection: state %v, streams built: client %d, server %d; want established, 1, 1",
			c.State(), built[w.a], built[w.b])
	}
	if want := uint32(rand.New(rand.NewSource(5)).Int63()); c.iss != want {
		t.Errorf("client ISS = %d, want the stream's first draw %d", c.iss, want)
	}
	c2 := w.a.Dial(ipA, ipB, 179)
	rng := rand.New(rand.NewSource(5))
	rng.Int63()
	if want := uint32(rng.Int63()); c2.iss != want || built[w.a] != 1 {
		t.Errorf("second client ISS = %d from %d streams built, want the second draw %d from one", c2.iss, built[w.a], want)
	}
}

// TestForkOwnsItsBuffers: a forked connection retransmits the bytes it held
// at the fork, whatever the source sends and is acknowledged meanwhile.
func TestForkOwnsItsBuffers(t *testing.T) {
	w := newWirePair(t)
	w.b.Listen(179, func(*Conn) {})
	c := w.a.Dial(ipA, ipB, 179)
	w.sim.RunFor(10 * time.Millisecond)
	w.cut = true
	c.Send([]byte("held-at-the-fork"))
	w.sim.RunFor(time.Millisecond)

	fk := w.sim.Fork(nil)
	var resent []byte
	na := w.a.Fork(fk, NewEndpoint(fk.Sim(), nil, func(src, dst netaddr.IPv4, seg []byte) {
		if s, err := Unmarshal(src, dst, seg); err == nil {
			resent = append(resent, s.Payload...)
		}
	}))
	nb := w.b.Fork(fk, NewEndpoint(fk.Sim(), nil, func(netaddr.IPv4, netaddr.IPv4, []byte) {}))
	nb.Listen(179, func(*Conn) {})
	copySim, err := fk.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if na.Stats != w.a.Stats {
		t.Errorf("fork's counters %+v, source's %+v", na.Stats, w.a.Stats)
	}

	// The source retransmits, is acknowledged and sends more into the
	// buffer the acknowledgement emptied; then the copy's retransmission
	// timer fires.
	w.cut = false
	w.sim.RunFor(time.Second)
	c.Send([]byte("overwritten-here"))
	w.sim.RunFor(time.Second)
	copySim.RunFor(300 * time.Millisecond)
	if string(resent) != "held-at-the-fork" {
		t.Errorf("the fork retransmitted %q, want the bytes it held at the fork", resent)
	}
}
