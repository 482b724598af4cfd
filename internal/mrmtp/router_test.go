package mrmtp

import (
	"strings"
	"testing"
	"time"

	"repro/internal/ethernet"
	"repro/internal/ipv4"
	"repro/internal/metrics"
	"repro/internal/netaddr"
	"repro/internal/simnet"
)

// column builds the minimal three-tier column of the paper's Fig. 2:
//
//	server -- tor(11) -- spine -- top
//
// with a second ToR (12) on the spine so the spine has two trees.
type column struct {
	sim    *simnet.Sim
	log    *metrics.Log
	tor    *Router // L, VID 11
	tor2   *Router // VID 12
	spine  *Router
	top    *Router
	server *simnet.Node
}

func rack(vid byte) netaddr.Prefix {
	return netaddr.MakePrefix(netaddr.MakeIPv4(192, 168, vid, 0), 24)
}

func newColumn(t *testing.T) *column {
	t.Helper()
	c := &column{sim: simnet.New(13), log: &metrics.Log{}}
	torN := c.sim.AddNode("tor")
	tor2N := c.sim.AddNode("tor2")
	spineN := c.sim.AddNode("spine")
	topN := c.sim.AddNode("top")
	c.server = c.sim.AddNode("server")

	// tor: port1 uplink to spine, port2 rack.
	c.sim.Connect(torN.AddPort(), spineN.AddPort())  // spine port1 (down)
	c.sim.Connect(tor2N.AddPort(), spineN.AddPort()) // spine port2 (down)
	c.sim.Connect(spineN.AddPort(), topN.AddPort())  // spine port3 (up), top port1
	c.sim.Connect(torN.AddPort(), c.server.AddPort())

	torCfg := DefaultConfig(1, 3)
	torCfg.ServerPort = 2
	torCfg.RackSubnet = rack(11)
	c.tor = New(torN, torCfg, c.log)
	tor2Cfg := DefaultConfig(1, 3)
	tor2Cfg.ServerPort = 2
	tor2Cfg.RackSubnet = rack(12)
	c.tor2 = New(tor2N, tor2Cfg, c.log)
	c.spine = New(spineN, DefaultConfig(2, 3), c.log)
	c.top = New(topN, DefaultConfig(3, 3), c.log)
	c.sim.Start()
	c.sim.RunFor(2 * time.Second)
	return c
}

func TestColumnTreeFormation(t *testing.T) {
	c := newColumn(t)
	// The suffix is the port the JOIN arrived on at the *parent* (each
	// ToR's port 1), per §III.B.
	wantSpine := []string{"11.1", "12.1"}
	if got := c.spine.VIDs(); !equalStrings(got, wantSpine) {
		t.Errorf("spine VIDs = %v, want %v", got, wantSpine)
	}
	// The top's JOIN arrives on spine port 3: 11.1.3, 12.1.3.
	wantTop := []string{"11.1.3", "12.1.3"}
	if got := c.top.VIDs(); !equalStrings(got, wantTop) {
		t.Errorf("top VIDs = %v, want %v", got, wantTop)
	}
	if c.spine.TableSize() != 2 || c.top.TableSize() != 2 {
		t.Errorf("table sizes: spine=%d top=%d", c.spine.TableSize(), c.top.TableSize())
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestNeighborStates(t *testing.T) {
	c := newColumn(t)
	if got := c.tor.NeighborState(1); got != "up" {
		t.Errorf("tor uplink state = %s, want up", got)
	}
	if got := c.tor.NeighborState(2); got != "none" {
		t.Errorf("rack port adjacency state = %s, want none (no fabric adjacency)", got)
	}
	c.tor.Node.Port(1).Fail()
	c.sim.RunFor(50 * time.Millisecond)
	if got := c.tor.NeighborState(1); got != "failed" {
		t.Errorf("after local carrier loss: %s, want failed", got)
	}
	c.sim.RunFor(200 * time.Millisecond)
	if got := c.spine.NeighborState(1); got != "failed" {
		t.Errorf("spine after dead timer: %s, want failed", got)
	}
}

func TestQuickToDetectTiming(t *testing.T) {
	// The spine must declare the ToR dead within DeadInterval (plus hello
	// phase), i.e. after missing a *single* hello — 3x faster than a
	// typical 3-missed-hellos protocol.
	c := newColumn(t)
	before := c.spine.Stats.NeighborsLost
	c.tor.Node.Port(1).Fail()
	c.sim.RunFor(110 * time.Millisecond) // DeadInterval + margin
	if c.spine.Stats.NeighborsLost != before+1 {
		t.Errorf("spine did not detect within one dead interval")
	}
}

func TestSlowToAcceptCountsConsecutiveHellos(t *testing.T) {
	c := newColumn(t)
	c.tor.Node.Port(1).Fail()
	c.sim.RunFor(500 * time.Millisecond)
	c.tor.Node.Port(1).Restore()
	// After at most two hello intervals the spine must still distrust
	// the ToR (3 consecutive hellos needed).
	c.sim.RunFor(70 * time.Millisecond)
	if got := c.spine.NeighborState(1); got != "failed" {
		t.Errorf("spine accepted neighbor after %s, violating Slow-to-Accept", got)
	}
	c.sim.RunFor(500 * time.Millisecond)
	if got := c.spine.NeighborState(1); got != "up" {
		t.Errorf("spine never re-accepted the neighbor: %s", got)
	}
	// The tree must have re-formed.
	if got := c.spine.VIDs(); !equalStrings(got, []string{"11.1", "12.1"}) {
		t.Errorf("spine VIDs after recovery = %v", got)
	}
}

func TestFlappingInterfaceStaysDampened(t *testing.T) {
	// A link that drops every other hello must never be re-accepted:
	// Slow-to-Accept requires three *consecutive* keep-alives.
	c := newColumn(t)
	port := c.tor.Node.Port(1)
	port.Fail()
	c.sim.RunFor(300 * time.Millisecond)
	for i := 0; i < 20; i++ {
		port.Restore()
		c.sim.RunFor(60 * time.Millisecond) // one hello gets through
		port.Fail()
		c.sim.RunFor(150 * time.Millisecond) // then a gap
	}
	if got := c.spine.NeighborState(1); got != "failed" {
		t.Errorf("flapping neighbor state = %s, want failed (dampened)", got)
	}
}

func TestLostUpdateRemovesVIDs(t *testing.T) {
	c := newColumn(t)
	// Kill the ToR-spine link at the ToR side; the spine detects via dead
	// timer and must tell the top spine, which loses tree 11 entirely.
	c.tor.Node.Port(1).Fail()
	c.runFor(t, 300*time.Millisecond)
	if got := c.spine.VIDs(); !equalStrings(got, []string{"12.1"}) {
		t.Errorf("spine VIDs = %v, want [12.1]", got)
	}
	if got := c.top.VIDs(); !equalStrings(got, []string{"12.1.3"}) {
		t.Errorf("top VIDs = %v, want [12.1.3]", got)
	}
	if c.spine.Stats.UpdatesSent == 0 {
		t.Error("spine never sent a LOST update")
	}
}

func TestDataTTLExpires(t *testing.T) {
	// A data frame whose TTL runs out must be dropped, not forwarded.
	c := newColumn(t)
	ip := ipv4.Packet{Header: ipv4.Header{Protocol: ipv4.ProtoUDP, TTL: 64,
		Src: rack(12).Host(1), Dst: rack(11).Host(1)}}
	payload := MarshalData(12, 11, 1, ip.Marshal()) // TTL 1: expires here
	f := ethernet.Frame{Dst: netaddr.Broadcast, Src: c.top.Node.Port(1).MAC,
		EtherType: ethernet.TypeMRMTP, Payload: payload}
	before := c.spine.Stats.DataDropped
	c.top.Node.Port(1).Send(f.Marshal())
	c.sim.RunFor(10 * time.Millisecond)
	if c.spine.Stats.DataDropped != before+1 {
		t.Errorf("TTL-expired frame not dropped (dropped=%d)", c.spine.Stats.DataDropped)
	}
}

func TestUnknownRootDroppedAtTop(t *testing.T) {
	// The top tier has no default up-path: traffic for an unknown VID
	// must be dropped there (paper §III.D: top spines must have an entry).
	c := newColumn(t)
	ip := ipv4.Packet{Header: ipv4.Header{Protocol: ipv4.ProtoUDP, TTL: 64,
		Src: rack(11).Host(1), Dst: netaddr.MakeIPv4(192, 168, 99, 1)}}
	payload := MarshalData(11, 99, DataTTL, ip.Marshal())
	f := ethernet.Frame{Dst: netaddr.Broadcast, Src: c.spine.Node.Port(3).MAC,
		EtherType: ethernet.TypeMRMTP, Payload: payload}
	before := c.top.Stats.DataDropped
	c.spine.Node.Port(3).Send(f.Marshal())
	c.sim.RunFor(10 * time.Millisecond)
	if c.top.Stats.DataDropped != before+1 {
		t.Error("top spine forwarded a packet for an unknown root")
	}
}

func TestDownstreamRootNeverChasedUp(t *testing.T) {
	// After the spine loses tree 11, a packet for root 11 must not be
	// hashed upward (the root is downstream; sending it up would loop).
	c := newColumn(t)
	c.tor.Node.Port(1).Fail()
	c.sim.RunFor(300 * time.Millisecond)
	ip := ipv4.Packet{Header: ipv4.Header{Protocol: ipv4.ProtoUDP, TTL: 64,
		Src: rack(12).Host(1), Dst: rack(11).Host(1)}}
	payload := MarshalData(12, 11, DataTTL, ip.Marshal())
	f := ethernet.Frame{Dst: netaddr.Broadcast, Src: c.tor2.Node.Port(1).MAC,
		EtherType: ethernet.TypeMRMTP, Payload: payload}
	beforeDropped := c.spine.Stats.DataDropped
	beforeTopRx := c.top.Stats.DataForwarded + c.top.Stats.DataDropped
	c.tor2.Node.Port(1).Send(f.Marshal())
	c.sim.RunFor(10 * time.Millisecond)
	if c.spine.Stats.DataDropped != beforeDropped+1 {
		t.Error("spine did not drop traffic for an unreachable downstream root")
	}
	if c.top.Stats.DataForwarded+c.top.Stats.DataDropped != beforeTopRx {
		t.Error("spine leaked downstream-root traffic upward")
	}
}

func TestRackARPAndDelivery(t *testing.T) {
	// The ToR answers ARP for the gateway and resolves servers on demand.
	c := newColumn(t)
	type rxEvent struct {
		ethertype uint16
		payload   []byte
	}
	var events []rxEvent
	c.server.Handler = handlerFunc(func(p *simnet.Port, raw []byte) {
		f, err := ethernet.Unmarshal(raw)
		if err != nil {
			return
		}
		events = append(events, rxEvent{f.EtherType, append([]byte(nil), f.Payload...)})
	})
	// Encapsulated packet arrives for an unresolved server: ToR must ARP.
	ip := ipv4.Packet{Header: ipv4.Header{Protocol: ipv4.ProtoUDP, TTL: 64,
		Src: rack(12).Host(1), Dst: rack(11).Host(1)}}
	data := MarshalData(12, 11, DataTTL, ip.Marshal())
	f := ethernet.Frame{Dst: netaddr.Broadcast, Src: c.spine.Node.Port(1).MAC,
		EtherType: ethernet.TypeMRMTP, Payload: data}
	c.spine.Node.Port(1).Send(f.Marshal())
	c.sim.RunFor(10 * time.Millisecond)
	if len(events) != 1 || events[0].ethertype != ethernet.TypeARP {
		t.Fatalf("expected an ARP request at the server, got %d events", len(events))
	}
	// Server replies; the queued packet must then be delivered as IPv4.
	req, err := arpUnmarshal(events[0].payload)
	if err != nil {
		t.Fatal(err)
	}
	reply := arpReply(c.server.Port(1).MAC, rack(11).Host(1), req.SenderMAC, req.SenderIP)
	c.server.Port(1).Send(reply)
	c.sim.RunFor(10 * time.Millisecond)
	if len(events) != 2 || events[1].ethertype != ethernet.TypeIPv4 {
		t.Fatalf("queued packet not delivered after ARP reply: %d events", len(events))
	}
	if c.tor.Stats.DataDelivered != 1 {
		t.Errorf("DataDelivered = %d, want 1", c.tor.Stats.DataDelivered)
	}
}

func TestRenderVIDTable(t *testing.T) {
	c := newColumn(t)
	out := c.spine.RenderVIDTable()
	if !strings.Contains(out, "eth1\t11.1") || !strings.Contains(out, "eth2\t12.1") {
		t.Errorf("RenderVIDTable:\n%s", out)
	}
}

func TestHelloSuppressionByControlTraffic(t *testing.T) {
	// During tree formation (lots of control traffic), explicit hellos
	// stay rare; on an idle link they run at the hello rate.
	c := newColumn(t)
	start := c.tor.Stats.HellosSent
	c.sim.RunFor(time.Second)
	perSec := c.tor.Stats.HellosSent - start
	// One fabric port, 50ms interval: ~20/s.
	if perSec < 15 || perSec > 25 {
		t.Errorf("idle hello rate = %d/s, want ~20", perSec)
	}
}

// handlerFunc adapts a function to simnet.Handler for test servers.
type handlerFunc func(p *simnet.Port, frame []byte)

func (h handlerFunc) Start()                               {}
func (h handlerFunc) HandleFrame(p *simnet.Port, f []byte) { h(p, f) }
func (h handlerFunc) PortDown(p *simnet.Port)              {}
func (h handlerFunc) PortUp(p *simnet.Port)                {}

// Minimal ARP helpers so this package's tests need not import internal/arp
// wholesale logic.
func arpUnmarshal(b []byte) (struct {
	SenderMAC netaddr.MAC
	SenderIP  netaddr.IPv4
}, error) {
	var out struct {
		SenderMAC netaddr.MAC
		SenderIP  netaddr.IPv4
	}
	if len(b) < 28 {
		return out, ErrMalformed
	}
	copy(out.SenderMAC[:], b[8:14])
	copy(out.SenderIP[:], b[14:18])
	return out, nil
}

func arpReply(srcMAC netaddr.MAC, srcIP netaddr.IPv4, dstMAC netaddr.MAC, dstIP netaddr.IPv4) []byte {
	b := make([]byte, 28)
	b[1] = 1
	b[2] = 0x08
	b[4], b[5] = 6, 4
	b[7] = 2 // reply
	copy(b[8:14], srcMAC[:])
	copy(b[14:18], srcIP[:])
	copy(b[18:24], dstMAC[:])
	copy(b[24:28], dstIP[:])
	f := ethernet.Frame{Dst: dstMAC, Src: srcMAC, EtherType: ethernet.TypeARP, Payload: b}
	return f.Marshal()
}
