//go:build invariants

package ipstack

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/icmp"
	"repro/internal/netaddr"
	"repro/internal/simnet/framepool"
	"repro/internal/tcp"
	"repro/internal/udp"
)

// TestRetainedUDPPayloadReadsPoison enforces the UDPHandler borrow: a
// listener that keeps dg.Payload past its return holds a slice of a frame
// the stack has already given back, and under -tags invariants that frame is
// poisoned on Put. The retained bytes must therefore read as Poison — not as
// the packet they once were, and not as the next packet drawn from the same
// pool — so a retaining listener fails loudly here instead of silently
// reading another packet's data in a release build.
func TestRetainedUDPPayloadReadsPoison(t *testing.T) {
	l := newLAN(t)
	var retained []byte
	l.h2.ListenUDP(7777, func(_, _ netaddr.IPv4, dg udp.Datagram) {
		if retained == nil {
			retained = dg.Payload // the bug under test: no copy
		}
	})
	first := bytes.Repeat([]byte{0xA5}, 96)
	l.h1.SendUDP(l.sub1.Host(1), l.sub2.Host(1), 5555, 7777, first)
	l.sim.RunFor(10 * time.Millisecond)
	if len(retained) != len(first) {
		t.Fatalf("listener saw a %d-byte payload, want %d", len(retained), len(first))
	}
	second := bytes.Repeat([]byte{0x5A}, 96)
	l.h1.SendUDP(l.sub1.Host(1), l.sub2.Host(1), 5555, 7777, second)
	l.sim.RunFor(10 * time.Millisecond)
	if want := bytes.Repeat([]byte{framepool.Poison}, len(first)); !bytes.Equal(retained, want) {
		t.Errorf("retained payload reads % x…, want all %#x: the frame was not poisoned on return", retained[:8], framepool.Poison)
	}
}

// TestRetainedTCPDataReadsPoison is the same borrow for TCP: OnData is lent
// the segment payload, and the stack returns the segment's frame once the
// endpoint's Input returns. A connection callback that keeps the slice
// reads Poison after the next segment has come and gone.
func TestRetainedTCPDataReadsPoison(t *testing.T) {
	l := newLAN(t)
	var retained []byte
	l.h2.TCP.Listen(179, func(c *tcp.Conn) {
		c.OnData(func(d []byte) {
			if retained == nil {
				retained = d // the bug under test: no copy
			}
		})
	})
	conn := l.h1.TCP.Dial(l.sub1.Host(1), l.sub2.Host(1), 179)
	first := bytes.Repeat([]byte{0xA5}, 40)
	conn.Send(first)
	l.sim.RunFor(50 * time.Millisecond)
	if len(retained) != len(first) {
		t.Fatalf("OnData saw %d bytes, want %d", len(retained), len(first))
	}
	conn.Send(bytes.Repeat([]byte{0x5A}, 40))
	l.sim.RunFor(50 * time.Millisecond)
	if want := bytes.Repeat([]byte{framepool.Poison}, len(first)); !bytes.Equal(retained, want) {
		t.Errorf("retained segment reads % x…, want all %#x: the frame was not poisoned on return", retained[:8], framepool.Poison)
	}
}

// TestRetainedICMPPayloadReadsPoison: an ICMPHandler borrows m.Payload in
// the same way, so a listener that keeps the echo reply's payload reads
// Poison once the next reply's frame has been returned too.
func TestRetainedICMPPayloadReadsPoison(t *testing.T) {
	l := newLAN(t)
	var retained []byte
	l.h1.ListenICMP(func(_ netaddr.IPv4, m icmp.Message) {
		if retained == nil {
			retained = m.Payload // the bug under test: no copy
		}
	})
	first := bytes.Repeat([]byte{0xA5}, 64)
	l.h1.SendICMP(l.sub1.Host(1), l.sub2.Host(1), icmp.EchoRequest(1, 1, first))
	l.sim.RunFor(10 * time.Millisecond)
	if len(retained) != len(first) {
		t.Fatalf("listener saw a %d-byte payload, want %d", len(retained), len(first))
	}
	l.h1.SendICMP(l.sub1.Host(1), l.sub2.Host(1), icmp.EchoRequest(1, 2, bytes.Repeat([]byte{0x5A}, 64)))
	l.sim.RunFor(10 * time.Millisecond)
	if want := bytes.Repeat([]byte{framepool.Poison}, len(first)); !bytes.Equal(retained, want) {
		t.Errorf("retained payload reads % x…, want all %#x: the frame was not poisoned on return", retained[:8], framepool.Poison)
	}
}
