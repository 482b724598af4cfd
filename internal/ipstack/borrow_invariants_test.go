//go:build invariants

package ipstack

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/netaddr"
	"repro/internal/simnet/framepool"
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
