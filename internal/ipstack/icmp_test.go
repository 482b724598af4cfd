package ipstack

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/icmp"
	"repro/internal/netaddr"
	"repro/internal/simnet"
	"repro/internal/udp"
)

// kept copies what an ICMPHandler keeps of m: the payload is a borrow of
// the delivered frame, which goes back to the pool when the handler
// returns.
func kept(m icmp.Message) icmp.Message {
	m.Payload = bytes.Clone(m.Payload)
	return m
}

func TestEchoRequestAnswered(t *testing.T) {
	l := newLAN(t)
	var got []icmp.Message
	l.h1.ListenICMP(func(src netaddr.IPv4, m icmp.Message) { got = append(got, kept(m)) })
	l.h1.SendICMP(l.sub1.Host(1), l.sub2.Host(1), icmp.EchoRequest(42, 7, []byte("hi")))
	l.sim.RunFor(10 * time.Millisecond)
	if len(got) != 1 || got[0].Type != icmp.TypeEchoReply || got[0].ID != 42 || got[0].Seq != 7 {
		t.Fatalf("echo reply = %+v", got)
	}
	if string(got[0].Payload) != "hi" {
		t.Errorf("payload not echoed: %q", got[0].Payload)
	}
}

func TestTTLExpiryGeneratesTimeExceeded(t *testing.T) {
	l := newLAN(t)
	var got []icmp.Message
	var from netaddr.IPv4
	l.h1.ListenICMP(func(src netaddr.IPv4, m icmp.Message) {
		got = append(got, kept(m))
		from = src
	})
	probe := icmp.EchoRequest(9, 1, nil)
	l.h1.SendIPTTL(l.sub1.Host(1), l.sub2.Host(1), 1, 1, probe.Marshal())
	l.sim.RunFor(10 * time.Millisecond)
	if len(got) != 1 || got[0].Type != icmp.TypeTimeExceeded {
		t.Fatalf("got %+v, want a time-exceeded", got)
	}
	// The router answers from the interface the probe arrived on.
	if from != l.sub1.Host(254) {
		t.Errorf("time-exceeded from %s, want the router's near interface", from)
	}
	if id, seq, ok := icmp.QuotedEcho(got[0]); !ok || id != 9 || seq != 1 {
		t.Errorf("quoted echo = %d,%d,%v", id, seq, ok)
	}
}

func TestProxyARPBridgesRackPorts(t *testing.T) {
	// Two hosts on separate router ports share one /24 (the multi-server
	// rack of a BGP leaf). h1 ARPs for h2 directly; the router must
	// proxy-answer and then forward h1's packets to h2's port.
	sim := simnet.New(21)
	n1, nr, n2 := sim.AddNode("h1"), sim.AddNode("r"), sim.AddNode("h2")
	h1, r, h2 := New(n1), New(nr), New(n2)
	sim.Connect(n1.AddPort(), nr.AddPort())
	sim.Connect(nr.AddPort(), n2.AddPort())
	rack := netaddr.MakePrefix(netaddr.MakeIPv4(192, 168, 11, 0), 24)
	h1.AddIface(n1.Port(1), rack.Host(1), rack)
	r.AddIface(nr.Port(1), rack.Host(254), rack)
	r.AddIface(nr.Port(2), rack.Host(254), rack)
	h2.AddIface(n2.Port(1), rack.Host(2), rack)
	var got int
	h2.ListenUDP(7, func(_, _ netaddr.IPv4, dg udp.Datagram) { got++ })
	for i := 0; i < 3; i++ {
		h1.SendUDP(rack.Host(1), rack.Host(2), 9000+uint16(i), 7, []byte("sibling"))
	}
	sim.RunFor(50 * time.Millisecond)
	if got != 3 {
		t.Fatalf("delivered %d/3 through the proxy-ARP path", got)
	}
	if r.Stats.ARPReplies == 0 {
		t.Error("router never proxy-answered")
	}
}

func TestNoProxyARPForOwnAddressOfRequester(t *testing.T) {
	// The router must never answer an ARP probe for the sender's own
	// address (that would break duplicate-address detection).
	l := newLAN(t)
	before := l.r.Stats.ARPReplies
	// h1 probes for its own IP (gratuitous-style probe).
	req := make([]byte, 28)
	req[1] = 1
	req[2] = 0x08
	req[4], req[5] = 6, 4
	req[7] = 1 // request
	copy(req[8:14], l.h1.Node.Port(1).MAC[:])
	ip := l.sub1.Host(1)
	copy(req[14:18], ip[:])
	copy(req[24:28], ip[:]) // target = own address
	f := frameARP(l.h1.Node.Port(1).MAC, req)
	l.h1.Node.Port(1).Send(f)
	l.sim.RunFor(10 * time.Millisecond)
	if l.r.Stats.ARPReplies != before {
		t.Error("router proxy-answered a duplicate-address probe")
	}
}

func frameARP(src netaddr.MAC, payload []byte) []byte {
	b := make([]byte, 14+len(payload))
	for i := 0; i < 6; i++ {
		b[i] = 0xff
	}
	copy(b[6:12], src[:])
	b[12], b[13] = 0x08, 0x06
	copy(b[14:], payload)
	return b
}
