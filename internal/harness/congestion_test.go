package harness

import (
	"testing"
	"time"

	"repro/internal/netaddr"
	"repro/internal/topology"
	"repro/internal/trafficgen"
	"repro/internal/udp"
)

func TestIntraRackSwitching(t *testing.T) {
	// Two servers behind one ToR talk through the ToR's local switching
	// path (proxy-ARP + gateway forwarding) — no fabric, no encapsulation
	// (paper §III.D handles only inter-rack traffic; intra-rack stays in
	// the IP world). Both protocol stacks must support it.
	for _, proto := range []Protocol{ProtoMRMTP, ProtoBGP} {
		spec := topology.TwoPodSpec()
		spec.ServersPerLeaf = 2
		f, err := Build(DefaultOptions(spec, proto, 61))
		if err != nil {
			t.Fatal(err)
		}
		if err := f.WarmUp(WarmupTime); err != nil {
			t.Fatal(err)
		}
		s1, d1, _ := f.ServerStack(11, 1)
		s2, d2, _ := f.ServerStack(11, 2)
		var got int
		s2.ListenUDP(7, func(_, _ netaddr.IPv4, dg udp.Datagram) { got++ })
		uplinkBefore := f.Sim.Node("L-1-1").Port(1).Counters.TxFrames +
			f.Sim.Node("L-1-1").Port(2).Counters.TxFrames
		for i := 0; i < 10; i++ {
			s1.SendUDP(d1.IP, d2.IP, 9800+uint16(i), 7, []byte("same rack"))
		}
		f.Sim.RunFor(100 * time.Millisecond)
		if got != 10 {
			t.Fatalf("%v: intra-rack delivered %d/10", proto, got)
		}
		uplinkAfter := f.Sim.Node("L-1-1").Port(1).Counters.TxFrames +
			f.Sim.Node("L-1-1").Port(2).Counters.TxFrames
		// Allow the odd hello/keepalive, but no data may leave the rack.
		if uplinkAfter-uplinkBefore > 6 {
			t.Errorf("%v: intra-rack traffic leaked onto %d uplink frames", proto, uplinkAfter-uplinkBefore)
		}
	}
}

func TestMultiServerRackAcrossFabric(t *testing.T) {
	// Both servers of one rack talk to both servers of a remote rack.
	spec := topology.TwoPodSpec()
	spec.ServersPerLeaf = 2
	for _, proto := range []Protocol{ProtoMRMTP, ProtoBGP} {
		f, err := Build(DefaultOptions(spec, proto, 62))
		if err != nil {
			t.Fatal(err)
		}
		if err := f.WarmUp(WarmupTime); err != nil {
			t.Fatal(err)
		}
		var got int
		for _, dstN := range []int{1, 2} {
			dst, _, _ := f.ServerStack(14, dstN)
			dst.ListenUDP(7, func(_, _ netaddr.IPv4, dg udp.Datagram) { got++ })
		}
		for _, srcN := range []int{1, 2} {
			src, srcDev, _ := f.ServerStack(11, srcN)
			for _, dstN := range []int{1, 2} {
				_, dstDev, _ := f.ServerStack(14, dstN)
				src.SendUDP(srcDev.IP, dstDev.IP, 9900+uint16(srcN*2+dstN), 7, []byte("x"))
			}
		}
		f.Sim.RunFor(100 * time.Millisecond)
		if got != 4 {
			t.Fatalf("%v: delivered %d/4 across multi-server racks", proto, got)
		}
	}
}

// setFabricBandwidth applies a rate limit to every router-router link,
// leaving rack links ideal so the bottleneck is the fabric.
func setFabricBandwidth(f *Fabric, bps int64, queue int) {
	for _, link := range f.Sim.Links() {
		// Rack links carry a server on one side.
		if f.Topo.Devices[link.A.Node.Name].Tier == topology.TierServer || f.Topo.Devices[link.B.Node.Name].Tier == topology.TierServer {
			continue
		}
		link.SetBandwidth(bps, queue)
	}
}

func TestCongestionLoadBalancingUsesBothPlanes(t *testing.T) {
	// Oversubscription: 32 flows of one 1000 B packet per 1.2 ms offer
	// ≈ 213 Mb/s (≈ 26 700 pkt/s) from one rack into 8 Mb/s fabric links.
	// One plane carries at most 1000 pkt/s, so the rack's two uplinks bound
	// goodput at 16 Mb/s — about 7 % of the offer, whatever the protocol.
	// Delivering more than a single plane could is proof the hash spreads
	// load over both, under both protocols (paper §III.C's stated purpose).
	const (
		flows          = 32
		duration       = 3 * time.Second
		singlePlaneCap = 3100 // 1000 pkt/s × 3 s + slack
	)
	for _, proto := range []Protocol{ProtoMRMTP, ProtoBGP} {
		f, err := warm(DefaultOptions(topology.TwoPodSpec(), proto, 63))
		if err != nil {
			t.Fatal(err)
		}
		setFabricBandwidth(f, 8_000_000, 64)
		src, srcDev, err := f.ServerStack(11, 1)
		if err != nil {
			t.Fatal(err)
		}
		dst, dstDev, err := f.ServerStack(14, 1)
		if err != nil {
			t.Fatal(err)
		}
		var senders []*trafficgen.Sender
		var receivers []*trafficgen.Receiver
		for i := 0; i < flows; i++ {
			cfg := trafficgen.DefaultConfig(srcDev.IP, dstDev.IP)
			cfg.SrcPort = 42000 + uint16(i)
			cfg.DstPort = 47000 + uint16(i)
			cfg.Interval = 1200 * time.Microsecond
			cfg.Size = 1000
			receivers = append(receivers, trafficgen.NewReceiver(dst, cfg.DstPort))
			s := trafficgen.NewSender(src, cfg)
			senders = append(senders, s)
			s.Start()
		}
		f.Sim.RunFor(duration)
		var offered, delivered, overflow uint64
		for i, s := range senders {
			s.Stop()
			rep := receivers[i].Report(s)
			offered += rep.Sent
			delivered += rep.Received
		}
		for _, link := range f.Sim.Links() {
			overflow += link.Stats(link.A).Overflows + link.Stats(link.B).Overflows
		}
		t.Logf("%v: offered %d, delivered %d packets, %d tail-dropped", proto, offered, delivered, overflow)
		if delivered <= singlePlaneCap {
			t.Errorf("%v: delivered %d packets <= single-plane capacity %d; load balancing is not using both planes",
				proto, delivered, singlePlaneCap)
		}
		if delivered > 2*singlePlaneCap {
			t.Errorf("%v: delivered %d packets, more than two 8 Mb/s planes can carry", proto, delivered)
		}
		if overflow == 0 {
			t.Errorf("%v: a 13x oversubscription tail-dropped nothing", proto)
		}
	}
}

func TestCongestionQueueOverflowCounted(t *testing.T) {
	f, err := Build(DefaultOptions(topology.TwoPodSpec(), ProtoMRMTP, 64))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.WarmUp(WarmupTime); err != nil {
		t.Fatal(err)
	}
	setFabricBandwidth(f, 1_000_000, 8) // 1 Mb/s, tiny queues
	src, srcDev, _ := f.ServerStack(11, 1)
	_, dstDev, _ := f.ServerStack(14, 1)
	cfg := trafficgen.DefaultConfig(srcDev.IP, dstDev.IP)
	cfg.Interval = 500 * time.Microsecond // 16 Mb/s offered
	cfg.Size = 1000
	trafficgen.NewSender(src, cfg).Start()
	f.Sim.RunFor(2 * time.Second)
	var overflowed uint64
	for _, link := range f.Sim.Links() {
		overflowed += link.Stats(link.A).Overflows + link.Stats(link.B).Overflows
	}
	if overflowed == 0 {
		t.Error("16x oversubscription with 8-frame queues overflowed nothing")
	}
}
