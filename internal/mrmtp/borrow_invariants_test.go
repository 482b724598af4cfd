//go:build invariants

package mrmtp

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/icmp"
	"repro/internal/netaddr"
	"repro/internal/simnet/framepool"
)

// TestRetainedICMPPayloadReadsPoison enforces the ICMPListener borrow: a
// trace reply addressed to a ToR's gateway is lent to the listeners, and the
// router returns its frame once they have returned. A listener that keeps
// m.Payload holds a slice of a returned frame, which under -tags invariants
// reads Poison once the next reply has come and gone.
func TestRetainedICMPPayloadReadsPoison(t *testing.T) {
	c := newColumn(t)
	c.spine.Cfg.Identity = netaddr.MakeIPv4(10, 255, 0, 2)
	var retained []byte
	replies := 0
	c.tor.ListenICMP(func(_ netaddr.IPv4, m icmp.Message) {
		replies++
		if retained == nil {
			retained = m.Payload // the bug under test: no copy
		}
	})
	probe := udpProbe(c.tor.GatewayIP(), rack(12).Host(1))
	// Encapsulation TTL 1: the probe expires at the spine, which answers
	// time-exceeded to the ToR's gateway.
	c.tor.InjectData(probe, 1)
	c.sim.RunFor(10 * time.Millisecond)
	if replies != 1 || len(retained) == 0 {
		t.Fatalf("listener heard %d replies with a %d-byte payload, want 1 and a quote", replies, len(retained))
	}
	c.tor.InjectData(probe, 1)
	c.sim.RunFor(10 * time.Millisecond)
	if want := bytes.Repeat([]byte{framepool.Poison}, len(retained)); !bytes.Equal(retained, want) {
		t.Errorf("retained quote reads % x…, want all %#x: the frame was not poisoned on return", retained[:8], framepool.Poison)
	}
}
