package mrmtp

import (
	"testing"
	"time"

	"repro/internal/ethernet"
	"repro/internal/ipv4"
	"repro/internal/metrics"
	"repro/internal/netaddr"
	"repro/internal/simnet"
)

// These tests cover the DefaultRoot withdrawal: a device that loses its
// last live uplink has no VID entries naming the remote roots it served by
// hashed up-forwarding, so it withdraws the whole class with LOST{0} and
// restores it with FOUND{0} once an uplink returns.

func TestDefaultRootWithdrawnWhenLastUplinkDies(t *testing.T) {
	c := newColumn(t)
	if c.spine.lostSent.has(DefaultRoot) || c.tor.UnreachableVia(1, DefaultRoot) {
		t.Fatal("up-default withdrawn in steady state")
	}

	// The column spine has a single uplink (port 3 to the top): failing it
	// leaves the spine with no up-path at all.
	c.spine.Node.Port(3).Fail()
	c.runFor(t, 300*time.Millisecond)
	if !c.spine.lostSent.has(DefaultRoot) {
		t.Error("spine did not withdraw its up-default after losing the last uplink")
	}
	if !c.tor.UnreachableVia(1, DefaultRoot) {
		t.Error("tor did not mark the spine's up-default unreachable")
	}
	if !c.tor2.UnreachableVia(1, DefaultRoot) {
		t.Error("tor2 did not mark the spine's up-default unreachable")
	}

	// Traffic for a root only the up-default could serve must now die at
	// the ToR instead of being hashed into the cut-off spine.
	spineRxBefore := c.spine.Stats.DataForwarded + c.spine.Stats.DataDropped
	torDropBefore := c.tor.Stats.DataDropped
	ip := ipv4.Packet{Header: ipv4.Header{Protocol: ipv4.ProtoUDP, TTL: 64,
		Src: rack(11).Host(1), Dst: netaddr.MakeIPv4(192, 168, 99, 1)}}
	f := ethernet.Frame{Dst: netaddr.Broadcast, Src: c.server.Port(1).MAC,
		EtherType: ethernet.TypeIPv4, Payload: ip.Marshal()}
	c.server.Port(1).Send(f.Marshal())
	c.runFor(t, 10*time.Millisecond)
	if c.tor.Stats.DataDropped != torDropBefore+1 {
		t.Errorf("tor dropped %d packets, want %d",
			c.tor.Stats.DataDropped, torDropBefore+1)
	}
	if got := c.spine.Stats.DataForwarded + c.spine.Stats.DataDropped; got != spineRxBefore {
		t.Error("tor hashed traffic into a spine with a withdrawn up-default")
	}
}

func TestDefaultRootRestoredWhenUplinkReturns(t *testing.T) {
	c := newColumn(t)
	c.spine.Node.Port(3).Fail()
	c.runFor(t, 300*time.Millisecond)
	if !c.tor.UnreachableVia(1, DefaultRoot) {
		t.Fatal("withdrawal did not propagate")
	}

	// Restore: the adjacency re-passes Slow-to-Accept (3 hellos), then the
	// spine reevaluates its written-off roots and announces FOUND{0}.
	c.spine.Node.Port(3).Restore()
	c.runFor(t, time.Second)
	if c.spine.lostSent.has(DefaultRoot) {
		t.Error("spine kept its up-default withdrawn after uplink recovery")
	}
	if c.tor.UnreachableVia(1, DefaultRoot) || c.tor2.UnreachableVia(1, DefaultRoot) {
		t.Error("ToRs still mark the spine's up-default unreachable after FOUND")
	}
}

func TestSingleUplinkLossKeepsDefaultRoot(t *testing.T) {
	// A device that still has a live uplink must NOT withdraw: local
	// rehashing over the survivors is the paper's §III.C behavior and
	// needs no dissemination. The standard column spine has one uplink,
	// so build a variant with two tops.
	sim := simnet.New(29)
	log := &metrics.Log{}
	torN := sim.AddNode("tor")
	spineN := sim.AddNode("spine")
	topN := sim.AddNode("top")
	top2N := sim.AddNode("top2")
	sim.Connect(torN.AddPort(), spineN.AddPort())  // spine port 1 (down)
	sim.Connect(spineN.AddPort(), topN.AddPort())  // spine port 2 (up)
	sim.Connect(spineN.AddPort(), top2N.AddPort()) // spine port 3 (up)
	torCfg := DefaultConfig(1, 3)
	torCfg.RackSubnet = rack(11)
	tor := New(torN, torCfg, log)
	spine := New(spineN, DefaultConfig(2, 3), log)
	top := New(topN, DefaultConfig(3, 3), log)
	top2 := New(top2N, DefaultConfig(3, 3), log)
	runFor := func(d time.Duration) { runHeld(t, sim, d, tor, spine, top, top2) }
	sim.Start()
	runFor(2 * time.Second)

	spine.Node.Port(2).Fail()
	runFor(300 * time.Millisecond)
	if spine.lostSent.has(DefaultRoot) {
		t.Error("spine withdrew its up-default while a live uplink remained")
	}
	if tor.UnreachableVia(1, DefaultRoot) {
		t.Error("tor marked the up-default despite a surviving spine uplink")
	}

	// The second uplink going too completes the withdrawal.
	spine.Node.Port(3).Fail()
	runFor(300 * time.Millisecond)
	if !spine.lostSent.has(DefaultRoot) {
		t.Error("spine kept its up-default after the last uplink died")
	}
	if !tor.UnreachableVia(1, DefaultRoot) {
		t.Error("tor did not learn the withdrawal")
	}
}
