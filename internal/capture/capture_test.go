package capture

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/arp"
	"repro/internal/bfd"
	"repro/internal/bgp"
	"repro/internal/ethernet"
	"repro/internal/ipv4"
	"repro/internal/netaddr"
	"repro/internal/simnet"
	"repro/internal/tcp"
	"repro/internal/udp"
)

var (
	srcIP = netaddr.MakeIPv4(172, 16, 0, 2)
	dstIP = netaddr.MakeIPv4(172, 16, 0, 1)
)

func ethFrame(etherType uint16, payload []byte) []byte {
	f := ethernet.Frame{Dst: netaddr.Broadcast, EtherType: etherType, Payload: payload}
	return f.Marshal()
}

func ipFrame(proto byte, transport []byte) []byte {
	p := ipv4.Packet{Header: ipv4.Header{Protocol: proto, Src: srcIP, Dst: dstIP, TTL: 64}, Payload: transport}
	return ethFrame(ethernet.TypeIPv4, p.Marshal())
}

func TestClassifyMRMTP(t *testing.T) {
	cases := map[byte]Class{
		0x06: ClassMTPHello,
		0x07: ClassMTPUpdate,
		0x08: ClassMTPData,
		0x01: ClassMTPTree,
		0x03: ClassMTPTree,
	}
	for b, want := range cases {
		if got := Classify(ethFrame(ethernet.TypeMRMTP, []byte{b, 0, 0})); got != want {
			t.Errorf("type %#02x classified %s, want %s", b, got, want)
		}
	}
}

func TestClassifyARP(t *testing.T) {
	pkt := arp.Packet{Op: arp.OpRequest}
	if got := Classify(ethFrame(ethernet.TypeARP, pkt.Marshal())); got != ClassARP {
		t.Errorf("got %s, want arp", got)
	}
}

func TestClassifyBFD(t *testing.T) {
	cp := bfd.ControlPacket{State: bfd.StateUp, DetectMult: 3, MyDisc: 1}
	dg := udp.Datagram{SrcPort: 49152, DstPort: udp.PortBFDControl, Payload: cp.Marshal()}
	raw := ipFrame(ipv4.ProtoUDP, dg.Marshal(srcIP, dstIP))
	if got := Classify(raw); got != ClassBFD {
		t.Errorf("got %s, want bfd", got)
	}
	if len(raw) != 66 {
		t.Errorf("BFD frame = %d bytes, want 66 (Fig. 9)", len(raw))
	}
}

func TestClassifyBGP(t *testing.T) {
	mk := func(payload []byte) []byte {
		seg := tcp.Segment{SrcPort: 179, DstPort: 49999, Flags: tcp.FlagACK | tcp.FlagPSH, Payload: payload}
		return ipFrame(ipv4.ProtoTCP, seg.Marshal(srcIP, dstIP))
	}
	ka := mk(bgp.MarshalKeepalive())
	if got := Classify(ka); got != ClassBGPKeepalive {
		t.Errorf("keepalive classified %s", got)
	}
	if len(ka) != 85 {
		t.Errorf("BGP keepalive frame = %d bytes, want 85 (Fig. 9)", len(ka))
	}
	upd := mk(bgp.MarshalUpdate(bgp.Update{Withdrawn: []netaddr.Prefix{netaddr.MakePrefix(netaddr.MakeIPv4(192, 168, 11, 0), 24)}}))
	if got := Classify(upd); got != ClassBGPUpdate {
		t.Errorf("update classified %s", got)
	}
	open := mk(bgp.MarshalOpen(bgp.Open{Version: 4, AS: 64512}))
	if got := Classify(open); got != ClassBGPOther {
		t.Errorf("open classified %s", got)
	}
	ackSeg := tcp.Segment{SrcPort: 49999, DstPort: 179, Flags: tcp.FlagACK}
	ack := ipFrame(ipv4.ProtoTCP, ackSeg.Marshal(srcIP, dstIP))
	if got := Classify(ack); got != ClassTCPAck {
		t.Errorf("pure ack classified %s", got)
	}
	if len(ack) != 66 {
		t.Errorf("pure ACK frame = %d bytes, want 66", len(ack))
	}
}

func TestClassifyGarbage(t *testing.T) {
	if got := Classify([]byte{1, 2, 3}); got != ClassOther {
		t.Errorf("short frame classified %s", got)
	}
	if got := Classify(ethFrame(0x1234, []byte{1})); got != ClassOther {
		t.Errorf("unknown ethertype classified %s", got)
	}
}

func TestTapAndSummary(t *testing.T) {
	sim := simnet.New(1)
	a, b := sim.AddNode("a"), sim.AddNode("b")
	link := sim.Connect(a.AddPort(), b.AddPort())
	var c Capture
	c.Tap(link)
	hello := ethFrame(ethernet.TypeMRMTP, []byte{0x06})
	sim.After(time.Millisecond, func() { a.Port(1).Send(hello) })
	sim.After(2*time.Millisecond, func() { b.Port(1).Send(hello) })
	sim.RunFor(10 * time.Millisecond)
	if len(c.Frames) != 2 {
		t.Fatalf("captured %d frames, want 2", len(c.Frames))
	}
	if c.Frames[0].From != "a:eth1" {
		t.Errorf("From = %s", c.Frames[0].From)
	}
	sum := c.Summary(0, 10*time.Millisecond)
	if sum[ClassMTPHello].Count != 2 || sum[ClassMTPHello].Bytes != 2*len(hello) {
		t.Errorf("summary = %+v", sum)
	}
	// Window filtering.
	if got := c.Summary(0, 1500*time.Microsecond)[ClassMTPHello].Count; got != 1 {
		t.Errorf("windowed count = %d, want 1", got)
	}
}

// recycler is a receiver that returns every frame to the simulation's pool,
// as the protocol handlers do once they have read it.
type recycler struct{ sim *simnet.Sim }

func (recycler) Start()                                 {}
func (r recycler) HandleFrame(_ *simnet.Port, f []byte) { r.sim.Frames().Put(f) }
func (recycler) PortDown(*simnet.Port)                  {}
func (recycler) PortUp(*simnet.Port)                    {}

// TestTapCopiesPooledFrame sends two frames in one pooled buffer, recycled
// between them: the first capture must still hold the first frame's bytes.
func TestTapCopiesPooledFrame(t *testing.T) {
	sim := simnet.New(1)
	a, b := sim.AddNode("a"), sim.AddNode("b")
	b.Handler = recycler{sim}
	var c Capture
	c.Tap(sim.Connect(a.AddPort(), b.AddPort()))
	first, second := ethFrame(ethernet.TypeMRMTP, []byte{0x06}), ethFrame(ethernet.TypeMRMTP, []byte{0x07})
	for i, want := range [][]byte{first, second} {
		sim.After(time.Duration(i+1)*time.Millisecond, func() {
			buf := sim.Frames().Get(len(want))
			copy(buf, want)
			a.Port(1).Send(buf)
		})
	}
	sim.RunFor(10 * time.Millisecond)
	if c.Count() != 2 {
		t.Fatalf("captured %d frames, want 2", c.Count())
	}
	if !bytes.Equal(c.Frames[0].Raw, first) || !bytes.Equal(c.Frames[1].Raw, second) {
		t.Errorf("captured % x then % x, want % x then % x", c.Frames[0].Raw, c.Frames[1].Raw, first, second)
	}
}

func TestRender(t *testing.T) {
	out := Render(map[Class]ClassStats{
		ClassMTPHello: {Count: 10, Bytes: 150},
		ClassBFD:      {Count: 5, Bytes: 330},
	})
	if !strings.Contains(out, "mrmtp-hello") || !strings.Contains(out, "330") {
		t.Errorf("Render output incomplete:\n%s", out)
	}
	// Larger byte count first.
	if strings.Index(out, "bfd") > strings.Index(out, "mrmtp-hello") {
		t.Error("Render not sorted by bytes")
	}
}
