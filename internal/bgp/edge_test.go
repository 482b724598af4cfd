package bgp

import (
	"testing"
	"time"

	"repro/internal/ipstack"
	"repro/internal/netaddr"
)

func TestWrongASRejected(t *testing.T) {
	// A neighbor whose OPEN carries an unexpected AS must not establish.
	tn := newTestNet()
	leaf := tn.router("leaf", 64601, rack11)
	spine := tn.router("spine", 64513)
	// Misconfigure: leaf expects 64599 from the spine.
	pa := leaf.stack.Node.AddPort()
	pb := spine.stack.Node.AddPort()
	tn.sim.Connect(pa, pb)
	subnet := netaddr.MakePrefix(netaddr.MakeIPv4(172, 16, 100, 0), 24)
	ia := leaf.stack.AddIface(pa, subnet.Host(2), subnet)
	ib := spine.stack.AddIface(pb, subnet.Host(1), subnet)
	leaf.sp.AddPeer(ia, subnet.Host(1), 64599) // wrong remote-as
	spine.sp.AddPeer(ib, subnet.Host(2), 64601)
	tn.sim.Start()
	tn.sim.RunFor(10 * time.Second)
	if leaf.sp.EstablishedCount() != 0 || spine.sp.EstablishedCount() != 0 {
		t.Errorf("session with mismatched AS established: leaf=%d spine=%d",
			leaf.sp.EstablishedCount(), spine.sp.EstablishedCount())
	}
}

func TestMaxPathsCapsECMP(t *testing.T) {
	// A destination with maxPaths+1 equal paths installs maxPaths of them.
	tn := newTestNet()
	dst := tn.router("dst", 64602, netaddr.MakePrefix(netaddr.MakeIPv4(192, 168, 14, 0), 24))
	src := tn.router("src", 64601)
	for i := 0; i < maxPaths+1; i++ {
		mid := tn.router(string(rune('a'+i)), 64513)
		tn.link(src, mid)
		tn.link(dst, mid)
	}
	tn.sim.Start()
	tn.sim.RunFor(10 * time.Second)
	rack14 := netaddr.MakePrefix(netaddr.MakeIPv4(192, 168, 14, 0), 24)
	r := src.stack.FIB.Get(rack14, ipstack.ProtoBGP)
	if r == nil {
		t.Fatal("no route learned")
	}
	if len(r.NextHops) != maxPaths {
		t.Errorf("installed %d next hops, want maxPaths=%d", len(r.NextHops), maxPaths)
	}
}

func TestCorruptStreamResetsSession(t *testing.T) {
	// Feed garbage into an established session's stream: the FSM must
	// reset rather than wedge, and then recover on its own.
	tn := newTestNet()
	leaf := tn.router("leaf", 64601, rack11)
	spine := tn.router("spine", 64513)
	tn.link(leaf, spine)
	tn.sim.Start()
	tn.sim.RunFor(3 * time.Second)
	p := spine.sp.Peers()[0]
	if p.State != StateEstablished {
		t.Fatal("setup failed")
	}
	resets := spine.sp.Stats.SessionResets
	p.onData(make([]byte, 64)) // zero marker: ErrBadMarker territory
	if spine.sp.Stats.SessionResets != resets+1 {
		t.Error("corrupt stream did not reset the session")
	}
	tn.sim.RunFor(30 * time.Second)
	if spine.sp.EstablishedCount() != 1 {
		t.Error("session never recovered after the reset")
	}
}

func TestHoldTimeZeroDisablesHoldTimer(t *testing.T) {
	tn := newTestNet()
	leaf := tn.router("leaf", 64601, rack11)
	spine := tn.router("spine", 64513)
	leaf.sp.Cfg.Timers.Hold = 0
	spine.sp.Cfg.Timers.Hold = 0
	tn.link(leaf, spine)
	tn.sim.Start()
	tn.sim.RunFor(3 * time.Second)
	if leaf.sp.EstablishedCount() != 1 {
		t.Fatal("setup failed")
	}
	// Kill the link at the leaf side. With hold disabled and no BFD the
	// spine must keep the stale session indefinitely.
	leaf.stack.Node.Port(1).Fail()
	tn.sim.RunFor(30 * time.Second)
	if spine.sp.EstablishedCount() != 1 {
		t.Error("session dropped despite hold timer being disabled")
	}
}

func TestSessionResetClearsAdjRIBIn(t *testing.T) {
	tn := newTestNet()
	leaf := tn.router("leaf", 64601, rack11)
	spine := tn.router("spine", 64513)
	tn.link(leaf, spine)
	tn.sim.Start()
	tn.sim.RunFor(3 * time.Second)
	if len(spine.sp.RIB()) != 1 {
		t.Fatal("setup failed")
	}
	leaf.stack.Node.Port(1).Fail()
	tn.sim.RunFor(10 * time.Second)
	if got := len(spine.sp.RIB()); got != 0 {
		t.Errorf("Adj-RIB-In still holds %d prefixes after session death", got)
	}
}
