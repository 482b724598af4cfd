package ipstack

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/arp"
	"repro/internal/ethernet"
	"repro/internal/ipv4"
	"repro/internal/netaddr"
	"repro/internal/simnet"
	"repro/internal/udp"
)

// oraclePick is the ECMP rule the next-hop memo keeps: a flow takes the live
// next hop at its hash modulo their count (Route.Pick before the memo).
func oraclePick(r Route, k FlowKey) NextHop {
	return r.NextHops[int(k.Hash())%len(r.NextHops)]
}

// oracleRouteOut is routeOut before the memo: a FIB lookup, the flow's pick
// and transmit's neighbour rule for every packet, nothing kept between
// packets.
func oracleRouteOut(s *Stack, h ipv4.Header, frame []byte) {
	r, ok := s.FIB.Lookup(h.Dst)
	if !ok {
		s.Stats.NoRoute++
		s.frames.Put(frame)
		return
	}
	nh := r.NextHops[0]
	if len(r.NextHops) > 1 {
		nh = oraclePick(r, flowKeyOf(h, frame[ethernet.HeaderLen:]))
	}
	gw := nh.Via
	if gw.IsZero() {
		gw = h.Dst
	}
	e, ok := s.arpTable[gw]
	if !ok {
		s.arpPending[gw] = append(s.arpPending[gw], frame)
		asked := false
		for _, cand := range s.ifaceList {
			if cand.Subnet.Contains(gw) && cand.Usable() {
				s.sendARPRequest(cand, gw)
				asked = true
			}
		}
		if !asked && nh.Iface.Usable() {
			s.sendARPRequest(nh.Iface, gw)
		}
		return
	}
	out := e.ifc
	if out == nil || !out.Usable() {
		out = nh.Iface
	}
	if !out.Usable() {
		s.Stats.BlackholedTx++
		s.frames.Put(frame)
		return
	}
	ethernet.PutHeader(frame, e.mac, out.Port.MAC, ethernet.TypeIPv4)
	out.Port.Send(frame)
}

// sink is a node that records, in one log per rig, every frame reaching it
// and which of the router's ports sent it, then returns the frame.
type sink struct {
	rig  *memoRig
	from int
}

func (k *sink) Start()                {}
func (k *sink) PortDown(*simnet.Port) {}
func (k *sink) PortUp(*simnet.Port)   {}
func (k *sink) HandleFrame(_ *simnet.Port, frame []byte) {
	k.rig.log = append(k.rig.log, fmt.Sprintf("eth%d %x", k.from, frame))
	k.rig.sim.Frames().Put(frame)
}

// memoRig is a router whose every port leads to a sink. Two rigs built from
// one seed and driven through the same steps differ only in how the router
// routes what it sends and forwards: through its memo, or through
// oracleRouteOut, which leaves the memo cold.
type memoRig struct {
	sim    *simnet.Sim
	r      *Stack
	oracle bool
	log    []string
}

// memoPrefixes are the prefixes the steps install and remove: nested, so
// longest-prefix match and the fall-through of a dead more-specific route
// both come up.
var memoPrefixes = []netaddr.Prefix{
	netaddr.MakePrefix(netaddr.MakeIPv4(10, 1, 0, 0), 16),
	netaddr.MakePrefix(netaddr.MakeIPv4(10, 1, 1, 0), 24),
	netaddr.MakePrefix(netaddr.MakeIPv4(10, 1, 2, 0), 24),
	netaddr.MakePrefix(netaddr.MakeIPv4(10, 2, 0, 0), 24),
	{},
}

// memoDsts are the remote destinations the steps send and forward toward:
// one under each route (some under two), and one nothing but the default
// covers.
var memoDsts = []netaddr.IPv4{
	netaddr.MakeIPv4(10, 1, 1, 5), netaddr.MakeIPv4(10, 1, 1, 6),
	netaddr.MakeIPv4(10, 1, 2, 9), netaddr.MakeIPv4(10, 1, 3, 1),
	netaddr.MakeIPv4(10, 2, 0, 7), netaddr.MakeIPv4(8, 8, 8, 8),
}

func linkSubnet(n int) netaddr.Prefix {
	return netaddr.MakePrefix(netaddr.MakeIPv4(172, 16, byte(n), 0), 24)
}

func newMemoRig(seed int64, oracle bool) *memoRig {
	g := &memoRig{sim: simnet.New(seed), oracle: oracle}
	g.r = New(g.sim.AddNode("r"))
	g.r.ListenUDP(7, func(_, _ netaddr.IPv4, _ udp.Datagram) {})
	for n := 1; n <= 3; n++ {
		g.addIface(linkSubnet(n))
	}
	return g
}

// addIface gives the router one more port, wired to a new sink, addressed
// in subnet.
func (g *memoRig) addIface(subnet netaddr.Prefix) {
	node := g.sim.AddNode(fmt.Sprintf("sink%d", len(g.r.ifaceList)+1))
	p := g.r.Node.AddPort()
	node.Handler = &sink{rig: g, from: p.Index}
	g.sim.Connect(p, node.AddPort())
	g.r.AddIface(p, subnet.Host(1), subnet)
}

// neighbours lists every address the router may hold an ARP entry for: two
// gateways on each link subnet and the remote destinations, which a route
// with no gateway resolves directly.
func (g *memoRig) neighbours() []netaddr.IPv4 {
	var out []netaddr.IPv4
	for _, ifc := range g.r.ifaceList {
		out = append(out, ifc.Subnet.Host(2), ifc.Subnet.Host(3))
	}
	return append(out, memoDsts...)
}

// dsts lists the addresses a packet goes toward: the remote destinations,
// the neighbours and the router's own addresses.
func (g *memoRig) dsts() []netaddr.IPv4 {
	out := g.neighbours()
	for _, ifc := range g.r.ifaceList {
		out = append(out, ifc.IP)
	}
	return out
}

// step draws one step from rng and applies it.
func (g *memoRig) step(rng *rand.Rand) string {
	r := g.r
	ifcs := r.ifaceList
	pick := func(xs []netaddr.IPv4) netaddr.IPv4 { return xs[rng.Intn(len(xs))] }
	switch op := rng.Intn(10); op {
	case 0, 1: // install an ECMP group over a random subset of interfaces
		p := memoPrefixes[rng.Intn(len(memoPrefixes))]
		route := Route{Prefix: p, Proto: []string{ProtoBGP, ProtoStatic}[rng.Intn(2)], Metric: 10 * (1 + rng.Intn(2))}
		for _, i := range rng.Perm(len(ifcs))[:1+rng.Intn(min(3, len(ifcs)))] {
			via := ifcs[i].Subnet.Host(uint32(2 + rng.Intn(2)))
			if rng.Intn(4) == 0 {
				via = netaddr.IPv4{} // no gateway: the destination is resolved
			}
			route.NextHops = append(route.NextHops, NextHop{Via: via, Iface: ifcs[i]})
		}
		r.FIB.Replace(route)
		return fmt.Sprintf("replace %v", route)
	case 2:
		p := memoPrefixes[rng.Intn(len(memoPrefixes))]
		proto := []string{ProtoBGP, ProtoStatic}[rng.Intn(2)]
		r.FIB.Remove(p, proto)
		return fmt.Sprintf("remove %s %s", p, proto)
	case 3: // carrier flip
		p := ifcs[rng.Intn(len(ifcs))].Port
		if p.Up() {
			p.Fail()
		} else {
			p.Restore()
		}
		return fmt.Sprintf("flip eth%d", p.Index)
	case 4: // a neighbour announces itself, on any port, with one of three MACs
		in := ifcs[rng.Intn(len(ifcs))]
		pkt := arp.Packet{
			Op:        []uint16{arp.OpReply, arp.OpRequest}[rng.Intn(2)],
			SenderMAC: netaddr.MAC{0x02, 0xee, 0, 0, 0, byte(rng.Intn(3))}, SenderIP: pick(g.neighbours()),
			TargetMAC: in.Port.MAC, TargetIP: in.IP,
		}
		f := ethernet.Frame{Dst: in.Port.MAC, Src: pkt.SenderMAC, EtherType: ethernet.TypeARP, Payload: pkt.Marshal()}
		r.HandleFrame(in.Port, g.pooled(f.Marshal()))
		return fmt.Sprintf("arp eth%d %v", in.Port.Index, pkt)
	case 5: // a new link subnet, or one more port on an existing one (a rack)
		if len(ifcs) >= 6 {
			return "addiface skipped"
		}
		subnet := linkSubnet(len(ifcs) + 1)
		if rng.Intn(2) == 0 {
			subnet = ifcs[rng.Intn(len(ifcs))].Subnet
		}
		g.addIface(subnet)
		return fmt.Sprintf("addiface %s", subnet)
	case 6, 7: // originate
		src, dst := ifcs[0].IP, pick(g.dsts())
		sport := uint16(1000 + rng.Intn(64))
		if g.oracle {
			h, frame := r.newIPFrame(src, dst, ipv4.ProtoUDP, ipv4.DefaultTTL, udp.HeaderLen+4)
			dgm := frame[ethernet.HeaderLen+ipv4.HeaderLen:]
			clear(dgm[udp.HeaderLen:])
			dg := udp.Datagram{SrcPort: sport, DstPort: 7}
			dg.PutHeader(src, dst, dgm)
			oracleRouteOut(r, h, frame)
		} else {
			r.SendUDP(src, dst, sport, 7, make([]byte, 4))
		}
		return fmt.Sprintf("send %s:%d", dst, sport)
	default: // forward a packet arriving on a random port
		in := ifcs[rng.Intn(len(ifcs))].Port
		src, dst := pick(memoDsts), pick(g.dsts())
		dg := udp.Datagram{SrcPort: uint16(2000 + rng.Intn(64)), DstPort: 7, Payload: make([]byte, 4)}
		ip := ipv4.Packet{Header: ipv4.Header{TTL: byte(2 + rng.Intn(8)), Protocol: ipv4.ProtoUDP, Src: src, Dst: dst}, Payload: dg.Marshal(src, dst)}
		f := ethernet.Frame{Dst: in.MAC, Src: netaddr.MAC{0x02, 0xaa, 0, 0, 0, 1}, EtherType: ethernet.TypeIPv4, Payload: ip.Marshal()}
		frame := g.pooled(f.Marshal())
		if g.oracle {
			oracleHandleIPv4(r, frame)
		} else {
			r.HandleFrame(in, frame)
		}
		return fmt.Sprintf("forward eth%d %s->%s:%d", in.Index, src, dst, dg.SrcPort)
	}
}

// pooled draws a pool buffer holding wire, as a frame off the wire is.
func (g *memoRig) pooled(wire []byte) []byte {
	frame := g.sim.Frames().Get(len(wire))
	copy(frame, wire)
	return frame
}

// oracleHandleIPv4 is handleIPv4 before the memo, for the well-formed UDP
// packets with a TTL above 1 that the steps forward.
func oracleHandleIPv4(s *Stack, frame []byte) {
	payload := frame[ethernet.HeaderLen:]
	pkt, _ := ipv4.Unmarshal(payload)
	if s.IsLocal(pkt.Header.Dst) {
		s.deliver(pkt, payload)
		s.frames.Put(frame)
		return
	}
	_ = ipv4.Forward(payload)
	s.Stats.IPForwarded++
	oracleRouteOut(s, pkt.Header, frame)
}

// state is what the two rigs must agree on after every step: the router's
// counters, every port's counters, the frame pool's and what reached the
// sinks.
func (g *memoRig) state() string {
	ports := make([]simnet.PortCounters, 0, len(g.r.Node.Ports))
	for _, p := range g.r.Node.Ports[1:] {
		ports = append(ports, p.Counters)
	}
	return fmt.Sprintf("stats %+v\nports %+v\npool %+v\nsinks heard %d frames", g.r.Stats, ports, g.sim.FrameStats(), len(g.log))
}

// TestNextHopMemoMatchesOracle drives a router through seeded random
// sequences of route installs and removals, carrier flips, ARP learning
// (new neighbours, changed MACs, the same address on another port) and new
// interfaces, interleaved with packets it originates and forwards, and holds
// it to a twin that routes every packet through oracleRouteOut. After every
// step the frames on the wire (egress port, destination MAC, every byte),
// the stack's and ports' counters and the pool's counts must be equal, and
// the twin's memo must still be cold.
func TestNextHopMemoMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		memo, oracle := newMemoRig(seed, false), newMemoRig(seed, true)
		rngM, rngO := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		var trail []string
		for i := 0; i < 400; i++ {
			trail = append(trail, memo.step(rngM))
			oracle.step(rngO)
			memo.sim.RunFor(time.Millisecond)
			oracle.sim.RunFor(time.Millisecond)
			if got, want := memo.state(), oracle.state(); got != want || !slices.Equal(memo.log, oracle.log) {
				n := 0 // frames both sinks heard alike
				for n < min(len(memo.log), len(oracle.log)) && memo.log[n] == oracle.log[n] {
					n++
				}
				t.Fatalf("seed %d, step %d (%s), after:\n  %s\nmemo:\n%s\n%q\noracle:\n%s\n%q",
					seed, i, trail[i], trail[max(0, i-5):i], got, memo.log[n:], want, oracle.log[n:])
			}
		}
		for _, e := range oracle.r.memo {
			if e.stamp != 0 {
				t.Fatalf("seed %d: the oracle's memo was filled (%+v): a step routed through the stack", seed, e)
			}
		}
	}
}
