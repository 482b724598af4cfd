package mrmtp

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/flowhash"
	"repro/internal/ipv4"
	"repro/internal/netaddr"
	"repro/internal/simnet"
	"repro/internal/udp"
)

func simNew() *simnet.Sim { return simnet.New(17) }

const benchWarm = 2 * time.Second

func BenchmarkMessageMarshalUpdate(b *testing.B) {
	m := Message{Type: TypeUpdate, Sub: UpdateLost, Roots: []byte{11, 12}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = m.Marshal()
	}
}

func BenchmarkMessageParseAdvertise(b *testing.B) {
	m := Message{Type: TypeAdvertise, Tier: 2, VIDs: []VID{{11, 1}, {12, 1}}}
	wire := mustWire(b, m)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseMessage(wire); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkForwardDataDown(b *testing.B) {
	// The spine data-plane hot path: VID-table hit, forward toward root.
	bc := newBenchColumn(b)
	ip := ipv4.Packet{Header: ipv4.Header{Protocol: ipv4.ProtoUDP, TTL: 64,
		Src: rack(12).Host(1), Dst: rack(11).Host(1)}}
	wire := ip.Marshal()
	payload := MarshalData(12, 11, DataTTL, wire)
	key := flowhash.FromIPPacket(wire)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bc.spine.forwardData(bc.spine.newFrame(payload), 11, key)
	}
}

func BenchmarkForwardDataUpHash(b *testing.B) {
	// The ToR data-plane hot path: no table entry, hashed uplink pick.
	bc := newBenchColumn(b)
	ip := ipv4.Packet{Header: ipv4.Header{Protocol: ipv4.ProtoUDP, TTL: 64,
		Src: rack(11).Host(1), Dst: rack(12).Host(1)}}
	wire := ip.Marshal()
	payload := MarshalData(11, 12, DataTTL, wire)
	key := flowhash.FromIPPacket(wire)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bc.tor.forwardData(bc.tor.newFrame(payload), 12, key)
	}
}

// TestForwardDataAllocs pins the fabric data plane's allocation budget:
// forwarding sends the frame it was handed, so once the pool and the event
// freelist are warm a hop allocates nothing. A per-hop copy or a leaked
// buffer shows up here as an allocation per op.
func TestForwardDataAllocs(t *testing.T) {
	bc := newBenchColumn(t)
	ip := ipv4.Packet{Header: ipv4.Header{Protocol: ipv4.ProtoUDP, TTL: 64,
		Src: rack(12).Host(1), Dst: rack(11).Host(1)}}
	wire := ip.Marshal()
	payload := MarshalData(12, 11, DataTTL, wire)
	key := flowhash.FromIPPacket(wire)
	allocs, bytes := budget.PerRun(200, func() {
		bc.spine.forwardData(bc.spine.newFrame(payload), 11, key)
		// Run past the link latency so the ToR consumes the frame and the
		// buffer and its event record recycle instead of queueing.
		bc.sim.RunFor(300 * time.Microsecond)
	})
	if allocs != 0 || bytes != 0 {
		t.Errorf("forwardData allocates %d objects and %d B per op, want 0 and 0 (the frame travels on in its own buffer)", allocs, bytes)
	}
}

// TestIngressIPAllocs pins the ToR ingress budget: encapsulation decrements
// the TTL in the received packet in place and composes Ethernet + MR-MTP +
// IP into one pooled frame, so the path costs only the test's own packet.
func TestIngressIPAllocs(t *testing.T) {
	bc := newBenchColumn(t)
	// Rack 13 does not exist: the packet rides tor → spine → top and dies
	// there, so every buffer the path draws comes back within the run.
	ip := ipv4.Packet{Header: ipv4.Header{Protocol: ipv4.ProtoUDP, TTL: 64,
		Src: rack(11).Host(1), Dst: rack(13).Host(1)}}
	forwarded := bc.tor.Stats.DataForwarded
	allocs, bytes := budget.PerRun(200, func() {
		// Marshal inside the loop (counted): ingressIP mutates the TTL of
		// the packet it was handed.
		bc.tor.ingressIP(ip.Marshal())
		bc.sim.RunFor(300 * time.Microsecond)
	})
	if bc.tor.Stats.DataForwarded == forwarded {
		t.Fatal("test packet never entered the fabric")
	}
	if allocs != 1 || bytes != 24 {
		t.Errorf("ingressIP allocates %d objects and %d B per op, want 1 and 24 (the test's 20-byte packet in its size class; one pooled frame, no second copy)", allocs, bytes)
	}
}

// newBenchColumn reuses the test fabric for benchmarks and alloc tests.
func newBenchColumn(b testing.TB) *column {
	b.Helper()
	// The column helper takes *testing.T; rebuild inline.
	c := &column{sim: simNew()}
	torN := c.sim.AddNode("tor")
	tor2N := c.sim.AddNode("tor2")
	spineN := c.sim.AddNode("spine")
	topN := c.sim.AddNode("top")
	c.server = c.sim.AddNode("server")
	c.sim.Connect(torN.AddPort(), spineN.AddPort())
	c.sim.Connect(tor2N.AddPort(), spineN.AddPort())
	c.sim.Connect(spineN.AddPort(), topN.AddPort())
	c.sim.Connect(torN.AddPort(), c.server.AddPort())
	torCfg := DefaultConfig(1, 3)
	torCfg.ServerPort = 2
	torCfg.RackSubnet = rack(11)
	c.tor = New(torN, torCfg, nil)
	tor2Cfg := DefaultConfig(1, 3)
	tor2Cfg.ServerPort = 2
	tor2Cfg.RackSubnet = rack(12)
	c.tor2 = New(tor2N, tor2Cfg, nil)
	c.spine = New(spineN, DefaultConfig(2, 3), nil)
	c.top = New(topN, DefaultConfig(3, 3), nil)
	// The rack server is resolved and consumes what it is sent, so a
	// delivered packet takes deliverToRack's fast path and its buffer comes
	// back to the pool, as it would from a host stack.
	c.tor.arpCache[rack(11).Host(1)] = arpEntry{mac: c.server.Port(1).MAC, port: 2}
	c.server.Handler = handlerFunc(func(_ *simnet.Port, raw []byte) { c.sim.Frames().Put(raw) })
	c.sim.Start()
	c.sim.RunFor(benchWarm)
	return c
}

// TestHelloKeepAliveAllocs pins the MR-MTP keep-alive budget: the paper's
// 1-byte raw-Ethernet hello (15 bytes at L2, Fig. 9) costs only the
// outbound frame buffer; event bookkeeping amortizes to zero once the
// simulator freelists warm up.
func TestHelloKeepAliveAllocs(t *testing.T) {
	bc := newBenchColumn(t)
	adj := bc.tor.adj(1) // fabric uplink toward the spine
	if adj == nil || adj.state != adjUp {
		t.Fatal("uplink adjacency not up after warm-up")
	}
	hello := []byte{TypeHello}
	allocs, bytes := budget.PerRun(200, func() {
		bc.tor.sendOn(adj, hello)
		// Run past the link latency so the delivery fires and its event
		// record recycles instead of queueing. (A full drain would never
		// return: the hello timers re-arm forever.)
		bc.sim.RunFor(300 * time.Microsecond)
	})
	if allocs != 0 || bytes != 0 {
		t.Errorf("hello keep-alive allocates %d objects and %d B per op, want 0 and 0 (pooled frame, recycled by the receiver)", allocs, bytes)
	}
}

// TestAdvertiseReceiveAllocs pins the periodic re-ADVERTISE at zero: the
// receiver compares it in place with the one it stored, finds it unchanged,
// and returns the frame to the pool. Both directions of a warm column are
// measured: a spine hearing its ToR (one VID, a tree it already joined) and
// the top hearing the spine (two).
func TestAdvertiseReceiveAllocs(t *testing.T) {
	bc := newBenchColumn(t)
	for _, tc := range []struct {
		from *Router
		port int
		to   *adjacency
	}{
		{bc.tor, 1, bc.spine.adj(1)},
		{bc.spine, 3, bc.top.adj(1)},
	} {
		before := fmt.Sprint(tc.to.advertised)
		if len(tc.to.advertised) == 0 {
			t.Fatalf("%s: nothing advertised after warm-up", tc.from.Node.Name)
		}
		allocs, bytes := budget.PerRun(200, func() {
			tc.from.sendAdvertise(tc.from.adj(tc.port))
			bc.sim.RunFor(300 * time.Microsecond)
		})
		if allocs != 0 || bytes != 0 {
			t.Errorf("an unchanged ADVERTISE from %s allocates %d objects and %d B per op, want 0 and 0", tc.from.Node.Name, allocs, bytes)
		}
		if got := fmt.Sprint(tc.to.advertised); got != before {
			t.Errorf("%s's ADVERTISE changed its neighbor's record: %s, was %s", tc.from.Node.Name, got, before)
		}
	}
}

// udpProbe is a path-trace probe from src to dst in wire format: an IP
// packet carrying an empty UDP datagram to the trace port.
func udpProbe(src, dst netaddr.IPv4) []byte {
	dg := udp.Datagram{SrcPort: 33501, DstPort: 33434}
	probe := ipv4.Packet{
		Header:  ipv4.Header{TTL: ipv4.DefaultTTL, Protocol: ipv4.ProtoUDP, Src: src, Dst: dst},
		Payload: dg.Marshal(src, dst),
	}
	return probe.Marshal()
}

// TestTraceReplyAllocs pins what a spine's answer to an expired probe costs:
// three fresh slices — the 28-byte ICMP quote (32 B), the marshalled 36-byte
// message (48 B) and the 56-byte IP packet originate builds around it
// (64 B) — and one pooled fabric frame, which comes back when the server
// behind the ToR consumes the reply. The measured figure, with no slack:
// composing the reply in the pooled frame would bring it to zero.
func TestTraceReplyAllocs(t *testing.T) {
	bc := newBenchColumn(t)
	bc.spine.Cfg.Identity = netaddr.MakeIPv4(10, 255, 0, 2)
	wire := udpProbe(rack(11).Host(1), rack(12).Host(1))
	h := DataHeader{TTL: 1, SrcRoot: 11, DstRoot: 12}
	replies := bc.spine.Stats.TraceReplies
	allocs, bytes := budget.PerRun(200, func() {
		bc.spine.sendTraceReply(h, wire)
		bc.sim.RunFor(300 * time.Microsecond)
	})
	if got := bc.spine.Stats.TraceReplies - replies; got != 201 {
		t.Fatalf("spine sent %d trace replies, want 201", got)
	}
	if allocs != 3 || bytes != 144 {
		t.Errorf("a trace reply allocates %d objects and %d B, want 3 and 32 + 48 + 64", allocs, bytes)
	}
}
