package ipstack

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/arp"
	"repro/internal/ethernet"
	"repro/internal/ipv4"
	"repro/internal/netaddr"
	"repro/internal/simnet"
	"repro/internal/tcp"
	"repro/internal/udp"
)

// lan builds: h1 --- r --- h2 with /24 link subnets, static routes on the
// hosts and connected routes on the router.
type lan struct {
	sim        *simnet.Sim
	h1, r, h2  *Stack
	sub1, sub2 netaddr.Prefix
}

func newLAN(t *testing.T) *lan {
	t.Helper()
	l := &lan{sim: simnet.New(3)}
	n1, nr, n2 := l.sim.AddNode("h1"), l.sim.AddNode("r"), l.sim.AddNode("h2")
	l.h1, l.r, l.h2 = New(n1), New(nr), New(n2)
	l.sim.Connect(n1.AddPort(), nr.AddPort())
	l.sim.Connect(nr.AddPort(), n2.AddPort())
	l.sub1 = netaddr.MakePrefix(netaddr.MakeIPv4(10, 0, 1, 0), 24)
	l.sub2 = netaddr.MakePrefix(netaddr.MakeIPv4(10, 0, 2, 0), 24)
	if1 := l.h1.AddIface(n1.Port(1), l.sub1.Host(1), l.sub1)
	l.r.AddIface(nr.Port(1), l.sub1.Host(254), l.sub1)
	l.r.AddIface(nr.Port(2), l.sub2.Host(254), l.sub2)
	if2 := l.h2.AddIface(n2.Port(1), l.sub2.Host(1), l.sub2)
	l.h1.AddDefaultRoute(l.sub1.Host(254), if1)
	l.h2.AddDefaultRoute(l.sub2.Host(254), if2)
	return l
}

func TestUDPAcrossRouter(t *testing.T) {
	l := newLAN(t)
	var got []byte
	var gotSrc netaddr.IPv4
	l.h2.ListenUDP(7777, func(src, dst netaddr.IPv4, dg udp.Datagram) {
		got = append([]byte(nil), dg.Payload...)
		gotSrc = src
	})
	l.h1.SendUDP(l.sub1.Host(1), l.sub2.Host(1), 5555, 7777, []byte("ping"))
	l.sim.RunFor(10 * time.Millisecond)
	if string(got) != "ping" {
		t.Fatalf("h2 got %q, want ping", got)
	}
	if gotSrc != l.sub1.Host(1) {
		t.Errorf("src = %s, want %s", gotSrc, l.sub1.Host(1))
	}
	if l.r.Stats.IPForwarded == 0 {
		t.Error("router forwarded nothing")
	}
	if l.h1.Stats.ARPRequests == 0 || l.r.Stats.ARPReplies == 0 {
		t.Error("ARP resolution did not happen")
	}
}

func TestARPQueueDrainsWithoutLoss(t *testing.T) {
	// Multiple packets sent before resolution completes must all arrive.
	l := newLAN(t)
	var count int
	l.h2.ListenUDP(7, func(src, dst netaddr.IPv4, dg udp.Datagram) { count++ })
	for i := 0; i < 5; i++ {
		l.h1.SendUDP(l.sub1.Host(1), l.sub2.Host(1), 9, 7, []byte{byte(i)})
	}
	l.sim.RunFor(10 * time.Millisecond)
	if count != 5 {
		t.Errorf("delivered %d datagrams, want 5", count)
	}
}

// TestForkRefusesHeldFrames: a frame awaiting ARP resolution is not settled
// state, so the stack holding one makes a fork fail; once it drained, the
// same stacks fork.
func TestForkRefusesHeldFrames(t *testing.T) {
	l := newLAN(t)
	fork := func() error {
		fk := l.sim.Fork(nil)
		for _, s := range []*Stack{l.h1, l.r, l.h2} {
			s.Fork(fk, nil)
		}
		_, err := fk.Finish()
		return err
	}
	l.h1.SendUDP(l.sub1.Host(1), l.sub2.Host(1), 9, 7, []byte("held"))
	if err := fork(); err == nil || !strings.Contains(err.Error(), "ARP") {
		t.Fatalf("fork with a frame awaiting ARP: err = %v, want a refusal", err)
	}
	l.sim.RunFor(10 * time.Millisecond)
	if err := fork(); err != nil {
		t.Fatalf("fork after the frame drained: %v", err)
	}
}

func TestTCPOverStack(t *testing.T) {
	l := newLAN(t)
	var got []byte
	l.h2.TCP.Listen(179, func(c *tcp.Conn) {
		c.OnData(func(d []byte) { got = append(got, d...) })
	})
	conn := l.h1.TCP.Dial(l.sub1.Host(1), l.sub2.Host(1), 179)
	conn.Send([]byte("BGP OPEN"))
	l.sim.RunFor(50 * time.Millisecond)
	if conn.State() != tcp.StateEstablished {
		t.Fatalf("conn state = %v, want established (across a router with ARP)", conn.State())
	}
	if string(got) != "BGP OPEN" {
		t.Errorf("server got %q", got)
	}
}

func TestNoRouteCounted(t *testing.T) {
	l := newLAN(t)
	l.r.SendIPTTL(l.sub1.Host(254), netaddr.MakeIPv4(99, 99, 99, 99), ipv4.ProtoUDP, ipv4.DefaultTTL, []byte("x"))
	l.sim.RunFor(time.Millisecond)
	if l.r.Stats.NoRoute != 1 {
		t.Errorf("NoRoute = %d, want 1", l.r.Stats.NoRoute)
	}
}

func TestTTLExpiry(t *testing.T) {
	// Two routers pointing default routes at each other loop a packet
	// until TTL dies.
	sim := simnet.New(4)
	na, nb := sim.AddNode("a"), sim.AddNode("b")
	sa, sb := New(na), New(nb)
	sim.Connect(na.AddPort(), nb.AddPort())
	sub := netaddr.MakePrefix(netaddr.MakeIPv4(10, 9, 0, 0), 24)
	ia := sa.AddIface(na.Port(1), sub.Host(1), sub)
	ib := sb.AddIface(nb.Port(1), sub.Host(2), sub)
	sa.AddDefaultRoute(sub.Host(2), ia)
	sb.AddDefaultRoute(sub.Host(1), ib)
	sa.SendIPTTL(sub.Host(1), netaddr.MakeIPv4(99, 0, 0, 1), ipv4.ProtoUDP, ipv4.DefaultTTL, []byte("loop"))
	sim.RunFor(time.Second)
	if sa.Stats.TTLExpired+sb.Stats.TTLExpired != 1 {
		t.Errorf("TTL expiries = %d, want exactly 1", sa.Stats.TTLExpired+sb.Stats.TTLExpired)
	}
}

func TestDownIfaceBlackholes(t *testing.T) {
	l := newLAN(t)
	// Prime ARP.
	l.h1.SendUDP(l.sub1.Host(1), l.sub2.Host(1), 9, 7, []byte("prime"))
	l.sim.RunFor(10 * time.Millisecond)
	l.r.Node.Port(2).Fail()
	l.sim.RunFor(10 * time.Millisecond)
	before := l.r.Stats.BlackholedTx + l.r.Stats.NoRoute
	l.h1.SendUDP(l.sub1.Host(1), l.sub2.Host(1), 9, 7, []byte("lost"))
	l.sim.RunFor(10 * time.Millisecond)
	if l.r.Stats.BlackholedTx+l.r.Stats.NoRoute == before {
		t.Error("packet through dead interface not accounted")
	}
}

// TestBlackholedTxReclaimsFrame runs transmit's dead-egress reclaim, the one
// frame-pool site no end-to-end path reaches: FIB.Lookup already withholds
// next hops whose interface is down, so routeOut (transmit's only caller)
// counts NoRoute instead. The test resolves ARP, downs the egress, and hands
// transmit the stale next hop directly; under -tags invariants a second Put
// of the frame there would trip the pool's double-Put assertion.
func TestBlackholedTxReclaimsFrame(t *testing.T) {
	l := newLAN(t)
	l.h1.SendUDP(l.sub1.Host(1), l.sub2.Host(1), 9, 7, []byte("prime"))
	l.sim.RunFor(10 * time.Millisecond)
	gw := l.sub1.Host(254)
	if _, ok := l.h1.arpTable[gw]; !ok {
		t.Fatal("gateway ARP entry not resolved")
	}
	egress := l.h1.ifaces[1]
	egress.Port.Fail()
	l.sim.RunFor(10 * time.Millisecond)

	before := l.sim.FrameStats()
	_, frame := l.h1.newIPFrame(l.sub1.Host(1), l.sub2.Host(1), ipv4.ProtoUDP, ipv4.DefaultTTL, 8)
	l.h1.transmit(egress, gw, frame)
	after := l.sim.FrameStats()
	if l.h1.Stats.BlackholedTx != 1 {
		t.Errorf("BlackholedTx = %d, want 1", l.h1.Stats.BlackholedTx)
	}
	if got := after.Returned - before.Returned; got != 1 {
		t.Errorf("pool Returned grew by %d, want 1", got)
	}
	if after.InUse != before.InUse {
		t.Errorf("pool InUse %d -> %d, want unchanged (the frame was reclaimed)", before.InUse, after.InUse)
	}
}

// TestBlackholedTxCountsARPQueue: frames queued behind ARP whose answer
// arrives after the interface it was learnt on died are dropped by
// flushARPPending, and each counts in BlackholedTx as a frame sent toward a
// dead port does.
func TestBlackholedTxCountsARPQueue(t *testing.T) {
	l := newLAN(t)
	for range 3 {
		l.h1.SendUDP(l.sub1.Host(1), l.sub2.Host(1), 9, 7, []byte("queued"))
	}
	port := l.h1.Node.Port(1)
	port.Fail()
	before := l.sim.FrameStats()
	gw := l.r.Node.Port(1)
	reply := arp.Packet{Op: arp.OpReply, SenderMAC: gw.MAC, SenderIP: l.sub1.Host(254), TargetMAC: port.MAC, TargetIP: l.sub1.Host(1)}
	f := ethernet.Frame{Dst: port.MAC, Src: gw.MAC, EtherType: ethernet.TypeARP, Payload: reply.Marshal()}
	l.h1.HandleFrame(port, l.pooledCopy(f.Marshal()))
	after := l.sim.FrameStats()
	if l.h1.Stats.BlackholedTx != 3 {
		t.Errorf("BlackholedTx = %d, want 3", l.h1.Stats.BlackholedTx)
	}
	if got := after.InUse - before.InUse; got != -3 {
		t.Errorf("pool InUse moved by %d, want -3 (the queue reclaimed, the ARP frame drawn and returned)", got)
	}
}

func TestPortDownCallback(t *testing.T) {
	l := newLAN(t)
	var downs []int
	l.r.OnPortDown = func(p *simnet.Port) { downs = append(downs, p.Index) }
	l.r.Node.Port(1).Fail()
	l.sim.RunFor(10 * time.Millisecond)
	if len(downs) != 1 || downs[0] != 1 {
		t.Errorf("downs = %v, want [1]", downs)
	}
}

func TestFIBReplaceRemove(t *testing.T) {
	var f FIB
	ifc := &Iface{Port: &simnet.Port{Index: 1}}
	p := netaddr.MakePrefix(netaddr.MakeIPv4(192, 168, 11, 0), 24)
	f.Replace(Route{Prefix: p, NextHops: []NextHop{{Iface: ifc}}, Proto: ProtoBGP, Metric: 20})
	f.Replace(Route{Prefix: p, NextHops: []NextHop{{Iface: ifc}, {Iface: ifc}}, Proto: ProtoBGP, Metric: 20})
	if f.Len() != 1 {
		t.Fatalf("Replace duplicated: len=%d", f.Len())
	}
	if got := f.Get(p, ProtoBGP); got == nil || len(got.NextHops) != 2 {
		t.Fatal("Get did not see replacement")
	}
	if !f.Remove(p, ProtoBGP) || f.Len() != 0 {
		t.Fatal("Remove failed")
	}
	if f.Remove(p, ProtoBGP) {
		t.Error("second Remove reported success")
	}
}

func TestFIBLongestPrefixMatch(t *testing.T) {
	var f FIB
	up := &Iface{Port: &simnet.Port{Index: 1}}
	ifc24 := &Iface{Port: &simnet.Port{Index: 2}}
	// Fabricate port state: zero-value ports report down, so flip with a
	// real node.
	sim := simnet.New(1)
	n := sim.AddNode("x")
	up.Port = n.AddPort()
	ifc24.Port = n.AddPort()
	f.Replace(Route{Prefix: netaddr.Prefix{}, NextHops: []NextHop{{Iface: up}}, Proto: ProtoStatic, Metric: 100})
	f.Replace(Route{Prefix: netaddr.MakePrefix(netaddr.MakeIPv4(192, 168, 11, 0), 24), NextHops: []NextHop{{Iface: ifc24}}, Proto: ProtoBGP, Metric: 20})
	r, ok := f.Lookup(netaddr.MakeIPv4(192, 168, 11, 5))
	if !ok || r.Prefix.Bits != 24 {
		t.Errorf("LPM chose %v, want the /24", r.Prefix)
	}
	r, ok = f.Lookup(netaddr.MakeIPv4(8, 8, 8, 8))
	if !ok || r.Prefix.Bits != 0 {
		t.Errorf("default lookup chose %v", r.Prefix)
	}
}

func TestFIBDeadNexthopFiltering(t *testing.T) {
	sim := simnet.New(1)
	n := sim.AddNode("x")
	i1 := &Iface{Port: n.AddPort()}
	i2 := &Iface{Port: n.AddPort()}
	var f FIB
	p := netaddr.MakePrefix(netaddr.MakeIPv4(192, 168, 14, 0), 24)
	f.Replace(Route{Prefix: p, NextHops: []NextHop{{Iface: i1}, {Iface: i2}}, Proto: ProtoBGP, Metric: 20})
	r, ok := f.Lookup(p.Host(1))
	if !ok || len(r.NextHops) != 2 {
		t.Fatalf("want 2 live next hops, got %v %v", r.NextHops, ok)
	}
	i1.Port.Fail()
	r, ok = f.Lookup(p.Host(1))
	if !ok || len(r.NextHops) != 1 || r.NextHops[0].Iface != i2 {
		t.Fatalf("dead next hop not filtered: %v", r.NextHops)
	}
	i2.Port.Fail()
	if _, ok := f.Lookup(p.Host(1)); ok {
		t.Error("route with all next hops dead still resolves")
	}
}

func TestECMPPickDeterministicAndBalanced(t *testing.T) {
	sim := simnet.New(1)
	n := sim.AddNode("x")
	i1 := &Iface{Port: n.AddPort()}
	i2 := &Iface{Port: n.AddPort()}
	r := Route{NextHops: []NextHop{{Iface: i1}, {Iface: i2}}}
	counts := map[int]int{}
	for port := 0; port < 1000; port++ {
		k := FlowKey{
			Src: netaddr.MakeIPv4(192, 168, 11, 1), Dst: netaddr.MakeIPv4(192, 168, 14, 1),
			Proto: ipv4.ProtoUDP, SrcPort: uint16(port), DstPort: 7,
		}
		nh := oraclePick(r, k)
		if again := oraclePick(r, k); again != nh {
			t.Fatal("Pick not deterministic for a flow")
		}
		counts[nh.Iface.Port.Index]++
	}
	if counts[1] < 300 || counts[2] < 300 {
		t.Errorf("ECMP badly imbalanced: %v", counts)
	}
}

func TestFlowKeyHashProperty(t *testing.T) {
	f := func(a, b FlowKey) bool {
		if a == b {
			return a.Hash() == b.Hash()
		}
		return true // different keys may collide; only equal keys must agree
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFIBRenderListing3Style(t *testing.T) {
	sim := simnet.New(1)
	n := sim.AddNode("x")
	eth1 := &Iface{Port: n.AddPort(), IP: netaddr.MakeIPv4(172, 16, 0, 2)}
	eth2 := &Iface{Port: n.AddPort(), IP: netaddr.MakeIPv4(172, 16, 8, 2)}
	var f FIB
	f.Replace(Route{
		Prefix:   netaddr.MakePrefix(netaddr.MakeIPv4(172, 16, 0, 0), 24),
		NextHops: []NextHop{{Iface: eth1}}, Proto: ProtoKernel,
	})
	f.Replace(Route{
		Prefix: netaddr.MakePrefix(netaddr.MakeIPv4(192, 168, 2, 0), 24),
		NextHops: []NextHop{
			{Via: netaddr.MakeIPv4(172, 16, 0, 1), Iface: eth1},
			{Via: netaddr.MakeIPv4(172, 16, 8, 1), Iface: eth2},
		},
		Proto: ProtoBGP, Metric: 20,
	})
	out := f.Render()
	for _, want := range []string{
		"172.16.0.0/24 dev eth1 proto kernel scope link src 172.16.0.2",
		"192.168.2.0/24 proto bgp metric 20",
		"nexthop via 172.16.0.1 dev eth1 weight 1",
		"nexthop via 172.16.8.1 dev eth2 weight 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
}
