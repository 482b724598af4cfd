package bgp

import (
	"testing"
	"time"

	"repro/internal/ipstack"
	"repro/internal/metrics"
	"repro/internal/netaddr"
	"repro/internal/simnet"
)

// rtr bundles a node, stack and speaker for tests.
type rtr struct {
	stack *ipstack.Stack
	sp    *Speaker
}

type testNet struct {
	sim     *simnet.Sim
	log     *metrics.Log
	routers map[string]*rtr
	linkSeq byte
}

func newTestNet() *testNet {
	return &testNet{sim: simnet.New(11), log: &metrics.Log{}, routers: make(map[string]*rtr)}
}

func (tn *testNet) router(name string, asn uint16, networks ...netaddr.Prefix) *rtr {
	node := tn.sim.AddNode(name)
	stack := ipstack.New(node)
	cfg := Config{
		ASN:      asn,
		RouterID: netaddr.MakeIPv4(10, 0, byte(len(tn.routers)), 1),
		Timers:   DefaultTimers(),
		Networks: networks,
	}
	r := &rtr{stack: stack, sp: New(stack, cfg, tn.log)}
	tn.routers[name] = r
	// Leaves install their rack subnet as a connected-style route so the
	// FIB has something to forward to; tests don't attach servers.
	tn.routers[name] = r
	return r
}

// link wires a /24 between two routers and declares the BGP peering both
// ways. a gets .2, b gets .1 (b plays the upper tier).
func (tn *testNet) link(a, b *rtr) {
	pa := a.stack.Node.AddPort()
	pb := b.stack.Node.AddPort()
	tn.sim.Connect(pa, pb)
	subnet := netaddr.MakePrefix(netaddr.MakeIPv4(172, 16, tn.linkSeq, 0), 24)
	tn.linkSeq++
	ia := a.stack.AddIface(pa, subnet.Host(2), subnet)
	ib := b.stack.AddIface(pb, subnet.Host(1), subnet)
	a.sp.AddPeer(ia, subnet.Host(1), b.sp.Cfg.ASN)
	b.sp.AddPeer(ib, subnet.Host(2), a.sp.Cfg.ASN)
}

var rack11 = netaddr.MakePrefix(netaddr.MakeIPv4(192, 168, 11, 0), 24)

// offered returns the AS paths the speaker's peers offer for prefix, in
// peer order.
func offered(sp *Speaker, prefix netaddr.Prefix) [][]uint16 {
	var out [][]uint16
	if rt := sp.find(prefix); rt != nil {
		for _, path := range rt.paths {
			if path != nil {
				out = append(out, path)
			}
		}
	}
	return out
}

func TestSessionEstablishment(t *testing.T) {
	tn := newTestNet()
	leaf := tn.router("leaf", 64601, rack11)
	spine := tn.router("spine", 64513)
	tn.link(leaf, spine)
	tn.sim.Start()
	tn.sim.RunFor(2 * time.Second)
	if leaf.sp.EstablishedCount() != 1 || spine.sp.EstablishedCount() != 1 {
		t.Fatalf("sessions: leaf=%d spine=%d, want 1/1", leaf.sp.EstablishedCount(), spine.sp.EstablishedCount())
	}
	// The spine must have learned and installed the rack prefix.
	r := spine.stack.FIB.Get(rack11, ipstack.ProtoBGP)
	if r == nil {
		t.Fatal("spine did not install 192.168.11.0/24")
	}
	if len(r.NextHops) != 1 || r.NextHops[0].Via != leaf.stack.Iface(1).IP {
		t.Errorf("next hop = %+v, want via leaf", r.NextHops)
	}
}

func TestASPathGrowsPerTier(t *testing.T) {
	tn := newTestNet()
	leaf := tn.router("leaf", 64601, rack11)
	spine := tn.router("spine", 64513)
	top := tn.router("top", 64512)
	tn.link(leaf, spine)
	tn.link(spine, top)
	tn.sim.Start()
	tn.sim.RunFor(3 * time.Second)
	entries := offered(top.sp, rack11)
	if len(entries) != 1 {
		t.Fatalf("top Adj-RIB-In entries = %d, want 1", len(entries))
	}
	for _, path := range entries {
		if len(path) != 2 || path[0] != 64513 || path[1] != 64601 {
			t.Errorf("AS path at top = %v, want [64513 64601]", path)
		}
	}
}

func TestSenderSideLoopSuppression(t *testing.T) {
	tn := newTestNet()
	leaf := tn.router("leaf", 64601, rack11)
	spine := tn.router("spine", 64513)
	top := tn.router("top", 64512)
	tn.link(leaf, spine)
	tn.link(spine, top)
	tn.sim.Start()
	tn.sim.RunFor(3 * time.Second)
	// The top spine must not re-advertise the prefix back toward the
	// spine (its AS is on the path), so the spine keeps exactly one path.
	if got := len(offered(spine.sp, rack11)); got != 1 {
		t.Errorf("spine has %d paths for the rack prefix, want 1 (no echo from top)", got)
	}
	// And the leaf must never learn its own prefix.
	if len(offered(leaf.sp, rack11)) != 0 {
		t.Error("leaf learned its own prefix back")
	}
}

// diamond builds src -- {s1, s2} -- dst and returns the four routers.
func diamond(tn *testNet) (src, s1, s2, dst *rtr) {
	// Both spines share an ASN, like same-pod spines in the paper's
	// Listing 1 plan; this is what prevents leaf-transit detours.
	src = tn.router("src", 64601, rack11)
	s1 = tn.router("s1", 64513)
	s2 = tn.router("s2", 64513)
	rack14 := netaddr.MakePrefix(netaddr.MakeIPv4(192, 168, 14, 0), 24)
	dst = tn.router("dst", 64602, rack14)
	tn.link(src, s1)
	tn.link(src, s2)
	tn.link(dst, s1)
	tn.link(dst, s2)
	return
}

func TestECMPInstallsMultipath(t *testing.T) {
	tn := newTestNet()
	src, _, _, _ := diamond(tn)
	tn.sim.Start()
	tn.sim.RunFor(5 * time.Second)
	rack14 := netaddr.MakePrefix(netaddr.MakeIPv4(192, 168, 14, 0), 24)
	r := src.stack.FIB.Get(rack14, ipstack.ProtoBGP)
	if r == nil {
		t.Fatal("src did not learn 192.168.14.0/24")
	}
	if len(r.NextHops) != 2 {
		t.Fatalf("next hops = %d, want 2 (ECMP)", len(r.NextHops))
	}
}

func TestLocalPortDownFailsOverImmediately(t *testing.T) {
	tn := newTestNet()
	src, _, _, _ := diamond(tn)
	tn.sim.Start()
	tn.sim.RunFor(5 * time.Second)
	rack14 := netaddr.MakePrefix(netaddr.MakeIPv4(192, 168, 14, 0), 24)
	// Fail src's own uplink to s1: fast-external-failover must drop the
	// session and shrink the ECMP group without waiting for hold time.
	src.stack.Node.Port(1).Fail()
	tn.sim.RunFor(50 * time.Millisecond)
	r := src.stack.FIB.Get(rack14, ipstack.ProtoBGP)
	if r == nil || len(r.NextHops) != 1 {
		t.Fatalf("after local port down: route = %+v, want single surviving next hop", r)
	}
}

func TestRemoteFailureDetectedByHoldTimer(t *testing.T) {
	tn := newTestNet()
	src, s1, _, dst := diamond(tn)
	tn.sim.Start()
	tn.sim.RunFor(5 * time.Second)
	// Fail s1's port toward dst (dst side keeps carrier): s1 must hold
	// the stale session for the hold time before withdrawing.
	var port *simnet.Port
	for _, p := range s1.sp.Peers() {
		if p.RemoteAS == 64602 {
			port = p.Iface.Port
		}
	}
	_ = dst
	failAt := tn.sim.Now()
	// Fail the *remote* side: dst's interface toward s1 (so s1 is unaware).
	dstPort := port.Peer()
	dstPort.Fail()
	tn.sim.RunFor(500 * time.Millisecond)
	rack14 := netaddr.MakePrefix(netaddr.MakeIPv4(192, 168, 14, 0), 24)
	if r := s1.stack.FIB.Get(rack14, ipstack.ProtoBGP); r == nil {
		t.Fatal("s1 withdrew before its hold timer could have expired")
	}
	tn.sim.RunFor(4 * time.Second)
	if r := s1.stack.FIB.Get(rack14, ipstack.ProtoBGP); r != nil {
		t.Fatalf("s1 still has the route %v after hold expiry (failure at %v)", r, failAt)
	}
	// src must have been told to drop the path via s1.
	r := src.stack.FIB.Get(rack14, ipstack.ProtoBGP)
	if r == nil || len(r.NextHops) != 1 {
		t.Fatalf("src route after withdrawal = %+v, want 1 next hop via s2", r)
	}
}

func TestWithdrawalsPropagate(t *testing.T) {
	tn := newTestNet()
	leaf := tn.router("leaf", 64601, rack11)
	spine := tn.router("spine", 64513)
	top := tn.router("top", 64512)
	tn.link(leaf, spine)
	tn.link(spine, top)
	tn.sim.Start()
	tn.sim.RunFor(3 * time.Second)
	if top.stack.FIB.Get(rack11, ipstack.ProtoBGP) == nil {
		t.Fatal("setup: top lacks the prefix")
	}
	// Kill the leaf's only uplink (leaf side): spine hold-times out, then
	// withdraws from top.
	leaf.stack.Node.Port(1).Fail()
	tn.sim.RunFor(5 * time.Second)
	if top.stack.FIB.Get(rack11, ipstack.ProtoBGP) != nil {
		t.Error("withdrawal did not reach the top spine")
	}
	if spine.stack.FIB.Get(rack11, ipstack.ProtoBGP) != nil {
		t.Error("spine kept the dead route")
	}
}

func TestKeepalivesFlow(t *testing.T) {
	tn := newTestNet()
	leaf := tn.router("leaf", 64601, rack11)
	spine := tn.router("spine", 64513)
	tn.link(leaf, spine)
	tn.sim.Start()
	tn.sim.RunFor(10 * time.Second)
	// ~1/s for ~10s on each side, plus the handshake keepalive.
	if leaf.sp.Stats.KeepalivesSent < 8 || spine.sp.Stats.KeepalivesSent < 8 {
		t.Errorf("keepalives sent: leaf=%d spine=%d, want >=8",
			leaf.sp.Stats.KeepalivesSent, spine.sp.Stats.KeepalivesSent)
	}
	if leaf.sp.EstablishedCount() != 1 {
		t.Error("session flapped during idle keepalive exchange")
	}
}

func TestSessionReestablishesAfterRestore(t *testing.T) {
	tn := newTestNet()
	leaf := tn.router("leaf", 64601, rack11)
	spine := tn.router("spine", 64513)
	tn.link(leaf, spine)
	tn.sim.Start()
	tn.sim.RunFor(2 * time.Second)
	leaf.stack.Node.Port(1).Fail()
	tn.sim.RunFor(10 * time.Second)
	if spine.stack.FIB.Get(rack11, ipstack.ProtoBGP) != nil {
		t.Fatal("route survived the outage")
	}
	leaf.stack.Node.Port(1).Restore()
	tn.sim.RunFor(15 * time.Second)
	if leaf.sp.EstablishedCount() != 1 {
		t.Fatal("session did not come back after restore")
	}
	if spine.stack.FIB.Get(rack11, ipstack.ProtoBGP) == nil {
		t.Error("route not re-learned after restore")
	}
}

func TestControlMessagesRecorded(t *testing.T) {
	tn := newTestNet()
	leaf := tn.router("leaf", 64601, rack11)
	spine := tn.router("spine", 64513)
	tn.link(leaf, spine)
	tn.sim.Start()
	tn.sim.RunFor(2 * time.Second)
	a := tn.log.Analyze(0)
	if a.ControlMessages == 0 || a.ControlBytes == 0 {
		t.Errorf("no control messages recorded: %+v", a)
	}
	// Every UPDATE costs at least header+L2 overhead on the wire.
	if a.ControlBytes < a.ControlMessages*(HeaderLen+L2Overhead) {
		t.Errorf("control bytes %d too small for %d messages", a.ControlBytes, a.ControlMessages)
	}
}

func TestMRAIBatchesUpdates(t *testing.T) {
	// With a large MRAI, a second change during the interval must not
	// produce an immediate second UPDATE.
	tn := newTestNet()
	leaf := tn.router("leaf", 64601, rack11)
	spine := tn.router("spine", 64513)
	tn.link(leaf, spine)
	leaf.sp.Cfg.Timers.MRAI = 30 * time.Second
	spine.sp.Cfg.Timers.MRAI = 30 * time.Second
	tn.sim.Start()
	// Let the initial table sync's MRAI window drain first.
	tn.sim.RunFor(31 * time.Second)
	sent := leaf.sp.Stats.UpdatesSent
	// Trigger a change: add a second local network and re-advertise.
	rack12 := netaddr.MakePrefix(netaddr.MakeIPv4(192, 168, 12, 0), 24)
	leaf.sp.Cfg.Networks = append(leaf.sp.Cfg.Networks, rack12)
	for _, p := range leaf.sp.Peers() {
		p.queueAdvertise(rack12)
	}
	tn.sim.RunFor(time.Second)
	first := leaf.sp.Stats.UpdatesSent
	if first == sent {
		t.Fatal("first change was not sent promptly")
	}
	rack13 := netaddr.MakePrefix(netaddr.MakeIPv4(192, 168, 13, 0), 24)
	leaf.sp.Cfg.Networks = append(leaf.sp.Cfg.Networks, rack13)
	for _, p := range leaf.sp.Peers() {
		p.queueAdvertise(rack13)
	}
	tn.sim.RunFor(5 * time.Second) // well under the 30s MRAI
	if leaf.sp.Stats.UpdatesSent != first {
		t.Errorf("second change escaped MRAI pacing: %d -> %d", first, leaf.sp.Stats.UpdatesSent)
	}
	tn.sim.RunFor(30 * time.Second)
	if leaf.sp.Stats.UpdatesSent == first {
		t.Error("queued change never flushed after MRAI expiry")
	}
}

// TestRIBInPrefixOrder: RIB, and RenderRIB with it, lists prefixes by
// address and then mask length. 10.1.0.0/16 and 10.1.0.0/24 share an
// address, so an order by address alone left them in whatever order the
// table was walked; on fifty fresh speakers, learned in either order, the
// /16 must come first every time.
func TestRIBInPrefixOrder(t *testing.T) {
	wide, narrow := prefix(10, 1, 0, 0, 16), prefix(10, 1, 0, 0, 24)
	for i := 0; i < 50; i++ {
		tn := newTestNet()
		spine := tn.router("spine", 64513)
		tn.link(tn.router("leaf", 64601), spine)
		nlri := []netaddr.Prefix{narrow, wide}
		if i%2 == 1 {
			nlri[0], nlri[1] = nlri[1], nlri[0]
		}
		p := spine.sp.Peers()[0]
		spine.sp.handleUpdate(p, Update{ASPath: []uint16{64601}, NextHop: p.Neighbor, NLRI: nlri})
		if got := spine.sp.RIB(); len(got) != 2 || got[0] != wide || got[1] != narrow {
			t.Fatalf("speaker %d: RIB() = %v, want [%v %v]", i, got, wide, narrow)
		}
	}
}
