package ipstack

import (
	"testing"
	"time"

	"repro/internal/arp"
	"repro/internal/budget"
	"repro/internal/ethernet"
	"repro/internal/icmp"
	"repro/internal/ipv4"
	"repro/internal/netaddr"
	"repro/internal/udp"
)

// rxFrame builds a wire-format Ethernet+IPv4+UDP frame addressed to dstMAC.
func rxFrame(t *testing.T, dstMAC netaddr.MAC, src, dst netaddr.IPv4, payload []byte) []byte {
	t.Helper()
	dg := udp.Datagram{SrcPort: 5555, DstPort: 7777, Payload: payload}
	ip := ipv4.Packet{
		Header:  ipv4.Header{TTL: ipv4.DefaultTTL, Protocol: ipv4.ProtoUDP, Src: src, Dst: dst},
		Payload: dg.Marshal(src, dst),
	}
	f := ethernet.Frame{Dst: dstMAC, Src: netaddr.MAC{0xaa, 0, 0, 0, 0, 1}, EtherType: ethernet.TypeIPv4, Payload: ip.Marshal()}
	return f.Marshal()
}

// pooledCopy draws a pool buffer holding wire: delivery consumes the frame it
// is handed (HandleFrame Puts it or sends it on), so a test that delivers the
// same bytes repeatedly must draw a frame per delivery, as Port.Send's
// callers do.
func (l *lan) pooledCopy(wire []byte) []byte {
	frame := l.sim.Frames().Get(len(wire))
	copy(frame, wire)
	return frame
}

// TestHandleFrameRxAllocs pins the local-delivery RX budget: Ethernet, IPv4
// and UDP parsing all alias the received frame, and the frame goes back to
// the pool when the listener returns, so a delivered datagram allocates
// nothing and leaves the pool where it was. A defensive copy anywhere in the
// demux chain, or a delivery that keeps its buffer, shows up here.
func TestHandleFrameRxAllocs(t *testing.T) {
	l := newLAN(t)
	var delivered int
	l.h2.ListenUDP(7777, func(src, dst netaddr.IPv4, dg udp.Datagram) { delivered++ })
	wire := rxFrame(t, l.h2.Node.Port(1).MAC, l.sub2.Host(9), l.sub2.Host(1), []byte("ka"))
	port := l.h2.Node.Port(1)
	inUse := l.sim.FrameStats().InUse
	allocs, bytes := budget.PerRun(200, func() {
		l.h2.HandleFrame(port, l.pooledCopy(wire))
	})
	if delivered == 0 {
		t.Fatal("test frame never reached the UDP listener")
	}
	if allocs != 0 || bytes != 0 {
		t.Errorf("RX local delivery allocates %d objects and %d B per op, want 0 and 0 (parsers alias the frame, delivery recycles it)", allocs, bytes)
	}
	if got := l.sim.FrameStats().InUse; got != inUse {
		t.Errorf("pool InUse %d after the deliveries, want %d: a delivered UDP frame was not returned", got, inUse)
	}
}

// TestHandleFrameForwardAllocs pins the router forwarding budget: the
// received buffer is sent on as it is, and the event bookkeeping amortizes to
// zero once the simulator freelists warm up, so a forwarded packet allocates
// nothing.
func TestHandleFrameForwardAllocs(t *testing.T) {
	l := newLAN(t)
	// Sink the probe datagrams so h2 consumes them instead of answering
	// port-unreachable inside the timed loop.
	l.h2.ListenUDP(7777, func(src, dst netaddr.IPv4, dg udp.Datagram) {})
	// Prime ARP on the router's h2-side interface so transmit takes the
	// fast path, then drain the warm-up traffic.
	l.h1.SendUDP(l.sub1.Host(1), l.sub2.Host(1), 9, 7, []byte("prime"))
	l.sim.RunFor(10 * time.Millisecond)
	wire := rxFrame(t, l.r.Node.Port(1).MAC, l.sub1.Host(1), l.sub2.Host(1), []byte("fw"))
	port := l.r.Node.Port(1)
	forwarded := l.r.Stats.IPForwarded
	allocs, bytes := budget.PerRun(200, func() {
		l.r.HandleFrame(port, l.pooledCopy(wire))
		// Drain the delivery events so the sim's event freelist recycles
		// instead of growing with the queue.
		for l.sim.Step() {
		}
	})
	if l.r.Stats.IPForwarded == forwarded {
		t.Fatal("test frame was never forwarded")
	}
	if allocs != 0 || bytes != 0 {
		t.Errorf("RX forward allocates %d objects and %d B per op, want 0 and 0 (in-place transit, no frame copy)", allocs, bytes)
	}
}

// TestDroppedFramesReturnToPool drives the drop dispositions that end a
// frame's life inside the stack, and simnet's for a node with no handler:
// each is the last owner, so the pool must end where it started.
func TestDroppedFramesReturnToPool(t *testing.T) {
	l := newLAN(t)
	port := l.h1.Node.Port(1)
	inUse := l.sim.FrameStats().InUse
	check := func(what string) {
		t.Helper()
		if got := l.sim.FrameStats().InUse; got != inUse {
			t.Errorf("%s: pool InUse %d, want %d", what, got, inUse)
		}
	}
	l.h1.HandleFrame(port, l.pooledCopy(make([]byte, ethernet.HeaderLen-1)))
	check("runt frame")
	l.h1.HandleFrame(port, l.pooledCopy(rxFrame(t, netaddr.MAC{2, 0, 0, 0, 0, 9}, l.sub1.Host(9), l.sub1.Host(1), []byte("x"))))
	check("frame for another MAC")
	badICMP := ipv4.Packet{
		Header:  ipv4.Header{TTL: ipv4.DefaultTTL, Protocol: ipv4.ProtoICMP, Src: l.sub1.Host(9), Dst: l.sub1.Host(1)},
		Payload: []byte{icmp.TypeEchoReply, 0, 0xde, 0xad, 0, 1, 0, 1}, // checksum does not verify
	}
	f := ethernet.Frame{Dst: port.MAC, Src: netaddr.MAC{0xaa, 0, 0, 0, 0, 1}, EtherType: ethernet.TypeIPv4, Payload: badICMP.Marshal()}
	l.h1.HandleFrame(port, l.pooledCopy(f.Marshal()))
	check("malformed ICMP delivered")

	// A node with no handler is the last owner of what reaches it.
	bare := l.sim.AddNode("bare")
	spare := l.h1.Node.AddPort()
	l.sim.Connect(spare, bare.AddPort())
	spare.Send(l.pooledCopy(f.Marshal()))
	l.sim.RunFor(time.Millisecond)
	check("frame delivered to a node with no handler")

	// A datagram queued behind ARP whose answer arrives after the interface
	// died: the resolved queue has nowhere to go.
	l.h1.SendUDP(l.sub1.Host(1), l.sub2.Host(1), 9, 7, []byte("queued"))
	if got := l.sim.FrameStats().InUse; got != inUse+1 {
		t.Fatalf("pool InUse %d with one frame parked behind ARP, want %d", got, inUse+1)
	}
	port.Fail()
	gw := l.r.Node.Port(1)
	reply := arp.Packet{Op: arp.OpReply, SenderMAC: gw.MAC, SenderIP: l.sub1.Host(254), TargetMAC: port.MAC, TargetIP: l.sub1.Host(1)}
	f = ethernet.Frame{Dst: port.MAC, Src: gw.MAC, EtherType: ethernet.TypeARP, Payload: reply.Marshal()}
	l.h1.HandleFrame(port, l.pooledCopy(f.Marshal()))
	check("ARP queue resolved onto a dead interface")
}

// icmpReplyBudget delivers wire to port of the stack at, 200 times plus a
// warm-up, and pins what each delivery and the ICMP error it draws cost: the
// reply is composed straight into one pooled frame, its quote copied out of
// the received one, so nothing at all. The frames come back too: the
// received one once the reply is sent, the reply's once h1 has read it.
func icmpReplyBudget(t *testing.T, l *lan, at *Stack, port int, wire []byte, typ byte) {
	t.Helper()
	replies := 0
	l.h1.ListenICMP(func(_ netaddr.IPv4, m icmp.Message) {
		if m.Type == typ {
			replies++
		}
	})
	in := at.Node.Port(port)
	inUse := l.sim.FrameStats().InUse
	allocs, bytes := budget.PerRun(200, func() {
		at.HandleFrame(in, l.pooledCopy(wire))
		l.sim.RunFor(time.Millisecond)
	})
	if replies != 201 {
		t.Fatalf("h1 heard %d ICMP type %d replies, want 201", replies, typ)
	}
	if got := l.sim.FrameStats().InUse; got != inUse {
		t.Errorf("pool InUse %d after the replies, want %d", got, inUse)
	}
	if allocs != 0 || bytes != 0 {
		t.Errorf("an ICMP type %d reply allocates %d objects and %d B, want 0 and 0", typ, allocs, bytes)
	}
}

// TestTimeExceededAllocs pins a router's answer to an expired packet.
func TestTimeExceededAllocs(t *testing.T) {
	l := newLAN(t)
	src, dst := l.sub1.Host(1), l.sub2.Host(1)
	dg := udp.Datagram{SrcPort: 5555, DstPort: 7777, Payload: []byte("probe")}
	ip := ipv4.Packet{
		Header:  ipv4.Header{TTL: 1, Protocol: ipv4.ProtoUDP, Src: src, Dst: dst},
		Payload: dg.Marshal(src, dst),
	}
	f := ethernet.Frame{Dst: l.r.Node.Port(1).MAC, Src: l.h1.Node.Port(1).MAC, EtherType: ethernet.TypeIPv4, Payload: ip.Marshal()}
	icmpReplyBudget(t, l, l.r, 1, f.Marshal(), icmp.TypeTimeExceeded)
}

// TestPortUnreachableAllocs pins a host's answer to a datagram for a port
// nobody listens on, from across the router.
func TestPortUnreachableAllocs(t *testing.T) {
	l := newLAN(t)
	wire := rxFrame(t, l.h2.Node.Port(1).MAC, l.sub1.Host(1), l.sub2.Host(1), []byte("closed"))
	icmpReplyBudget(t, l, l.h2, 1, wire, icmp.TypeDestUnreach)
}
