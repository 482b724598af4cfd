package trafficgen

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/ipstack"
	"repro/internal/netaddr"
	"repro/internal/simnet"
)

// wire builds sender-host --- router --- receiver-host.
type wire struct {
	sim      *simnet.Sim
	src, dst *ipstack.Stack
	router   *ipstack.Stack
	srcIP    netaddr.IPv4
	dstIP    netaddr.IPv4
}

func newWire(t *testing.T) *wire {
	t.Helper()
	w := &wire{sim: simnet.New(9)}
	a, r, b := w.sim.AddNode("a"), w.sim.AddNode("r"), w.sim.AddNode("b")
	w.src, w.router, w.dst = ipstack.New(a), ipstack.New(r), ipstack.New(b)
	w.sim.Connect(a.AddPort(), r.AddPort())
	w.sim.Connect(r.AddPort(), b.AddPort())
	s1 := netaddr.MakePrefix(netaddr.MakeIPv4(10, 1, 0, 0), 24)
	s2 := netaddr.MakePrefix(netaddr.MakeIPv4(10, 2, 0, 0), 24)
	i1 := w.src.AddIface(a.Port(1), s1.Host(1), s1)
	w.router.AddIface(r.Port(1), s1.Host(254), s1)
	w.router.AddIface(r.Port(2), s2.Host(254), s2)
	i2 := w.dst.AddIface(b.Port(1), s2.Host(1), s2)
	w.src.AddDefaultRoute(s1.Host(254), i1)
	w.dst.AddDefaultRoute(s2.Host(254), i2)
	w.srcIP, w.dstIP = s1.Host(1), s2.Host(1)
	return w
}

func TestLosslessPath(t *testing.T) {
	w := newWire(t)
	cfg := DefaultConfig(w.srcIP, w.dstIP)
	s := NewSender(w.src, cfg)
	r := NewReceiver(w.dst, cfg.DstPort)
	s.Start()
	w.sim.RunFor(3 * time.Second)
	s.Stop()
	w.sim.RunFor(100 * time.Millisecond)
	rep := r.Report(s)
	if rep.Sent == 0 || rep.Lost != 0 || rep.Duplicated != 0 || rep.OutOfOrder != 0 {
		t.Fatalf("lossless path report: %+v", rep)
	}
	// ~333 pps for 3 s.
	if rep.Sent < 900 || rep.Sent > 1100 {
		t.Errorf("sent %d packets in 3s at 3ms interval, want ~1000", rep.Sent)
	}
}

func TestLossWindowCounted(t *testing.T) {
	w := newWire(t)
	cfg := DefaultConfig(w.srcIP, w.dstIP)
	s := NewSender(w.src, cfg)
	r := NewReceiver(w.dst, cfg.DstPort)
	s.Start()
	w.sim.RunFor(time.Second)
	// Black-hole the path for ~300ms by failing the router's egress.
	w.router.Node.Port(2).Fail()
	w.sim.RunFor(300 * time.Millisecond)
	w.router.Node.Port(2).Restore()
	w.sim.RunFor(time.Second)
	s.Stop()
	w.sim.RunFor(100 * time.Millisecond)
	rep := r.Report(s)
	// ≈ 300ms × 333pps = ~100 packets.
	if rep.Lost < 80 || rep.Lost > 120 {
		t.Errorf("lost %d packets across a 300ms outage, want ~100", rep.Lost)
	}
}

func TestDuplicateDetection(t *testing.T) {
	var r Receiver
	pkt := func(seq uint64) []byte {
		b := make([]byte, headerLen)
		binary.BigEndian.PutUint32(b, Magic)
		binary.BigEndian.PutUint64(b[4:], seq)
		return b
	}
	r.packet(pkt(0))
	r.packet(pkt(1))
	r.packet(pkt(1)) // dup
	r.packet(pkt(3))
	r.packet(pkt(2)) // out of order
	if r.received != 4 {
		t.Errorf("received = %d, want 4", r.received)
	}
	if r.duplicates != 1 {
		t.Errorf("duplicates = %d, want 1", r.duplicates)
	}
	if r.outOfOrder != 1 {
		t.Errorf("outOfOrder = %d, want 1", r.outOfOrder)
	}
}

func TestReorderedDeliveryAccounting(t *testing.T) {
	// A fixed delivery permutation with duplicates interleaved: every
	// class of packet must land in exactly one counter. Sequence 1 and 2
	// are each delivered twice; the late copies arrive after higher
	// sequences, which must count them as duplicates, not out-of-order.
	var r Receiver
	pkt := func(seq uint64) []byte {
		b := make([]byte, headerLen)
		binary.BigEndian.PutUint32(b, Magic)
		binary.BigEndian.PutUint64(b[4:], seq)
		return b
	}
	for _, seq := range []uint64{0, 2, 1, 1, 4, 3, 5, 2} {
		r.packet(pkt(seq))
	}
	if r.received != 6 {
		t.Errorf("received = %d, want 6 unique", r.received)
	}
	if r.duplicates != 2 {
		t.Errorf("duplicates = %d, want 2 (late copies of 1 and 2)", r.duplicates)
	}
	// First deliveries below the running max: 1 (after 2) and 3 (after 4).
	if r.outOfOrder != 2 {
		t.Errorf("outOfOrder = %d, want 2", r.outOfOrder)
	}
	s := &Sender{sent: 6}
	rep := r.Report(s)
	if rep.Lost != 0 {
		t.Errorf("Lost = %d, want 0: every sequence was delivered", rep.Lost)
	}
}

func TestShuffledDeliveryProperty(t *testing.T) {
	// Deliver every sequence of a run exactly once in random order: the
	// analyzer must count each first delivery, report zero duplicates and
	// loss, and flag exactly the arrivals that undercut the running max.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(200)
		perm := rng.Perm(n)
		var r Receiver
		wantOOO := uint64(0)
		max := -1
		for _, seq := range perm {
			b := make([]byte, headerLen)
			binary.BigEndian.PutUint32(b, Magic)
			binary.BigEndian.PutUint64(b[4:], uint64(seq))
			r.packet(b)
			if seq < max {
				wantOOO++
			} else {
				max = seq
			}
		}
		if r.received != uint64(n) || r.duplicates != 0 {
			t.Fatalf("n=%d: received=%d duplicates=%d", n, r.received, r.duplicates)
		}
		if r.outOfOrder != wantOOO {
			t.Fatalf("n=%d perm=%v: outOfOrder=%d, want %d", n, perm, r.outOfOrder, wantOOO)
		}
		if rep := r.Report(&Sender{sent: uint64(n)}); rep.Lost != 0 {
			t.Fatalf("n=%d: Lost=%d, want 0", n, rep.Lost)
		}
	}
}

func TestNonGeneratorTrafficIgnored(t *testing.T) {
	var r Receiver
	r.packet([]byte("not a generator packet"))
	r.packet([]byte{1, 2})
	if r.received != 0 {
		t.Errorf("received = %d, want 0", r.received)
	}
}

func TestReportLostNeverNegative(t *testing.T) {
	// If the analyzer somehow sees more than sent (e.g. duplicates of a
	// short run), Lost must clamp at zero.
	var r Receiver
	r.received = 10
	s := &Sender{sent: 5}
	if rep := r.Report(s); rep.Lost != 0 {
		t.Errorf("Lost = %d, want 0", rep.Lost)
	}
}

func TestPayloadPadding(t *testing.T) {
	w := newWire(t)
	cfg := DefaultConfig(w.srcIP, w.dstIP)
	cfg.Size = 4 // below the header floor
	s := NewSender(w.src, cfg)
	if s.cfg.Size != headerLen {
		t.Errorf("size = %d, want clamped to %d", s.cfg.Size, headerLen)
	}
}

// TestProbeFlowAllocs pins the steady state of a flow: a packet sent,
// routed, received and accounted costs no allocation. The payload is the
// sender's one buffer (SendUDP copies it into a pooled frame) and the
// receiver's bitset, 1024 sequence numbers to start with, is not outgrown
// inside the measured window.
func TestProbeFlowAllocs(t *testing.T) {
	w := newWire(t)
	cfg := DefaultConfig(w.srcIP, w.dstIP)
	s := NewSender(w.src, cfg)
	r := NewReceiver(w.dst, cfg.DstPort)
	s.Start()
	w.sim.RunFor(time.Second) // ARP resolved, pools and rings grown
	before := s.Sent()
	if allocs, bytes := budget.PerRun(50, func() { w.sim.RunFor(10 * cfg.Interval) }); allocs != 0 || bytes != 0 {
		t.Errorf("ten packets end to end allocate %d objects and %d B, want 0 and 0", allocs, bytes)
	}
	if sent := s.Sent() - before; sent != 510 {
		t.Errorf("measured window carried %d packets, want 510", sent)
	}
	if rep := r.Report(s); rep.Lost > 1 || rep.Duplicated != 0 { // the last one may be in flight
		t.Errorf("report %+v", rep)
	}
}

// TestMissingBeyondWhatArrived scans windows that end past the highest
// sequence received, and past the bitset: those packets are missing.
func TestMissingBeyondWhatArrived(t *testing.T) {
	var r Receiver
	pkt := func(seq uint64) []byte {
		b := make([]byte, headerLen)
		binary.BigEndian.PutUint32(b, Magic)
		binary.BigEndian.PutUint64(b[4:], seq)
		return b
	}
	for _, seq := range []uint64{0, 1, 5, 63, 64, 2000} {
		r.packet(pkt(seq))
	}
	for _, tc := range []struct{ from, to, total, longest uint64 }{
		{0, 6, 3, 3},
		{60, 70, 8, 5},
		{1990, 2010, 19, 10},
		{5000, 5100, 100, 100}, // wholly past the bitset
		{3, 3, 0, 0},
	} {
		if total, longest := r.Missing(tc.from, tc.to); total != tc.total || longest != tc.longest {
			t.Errorf("Missing(%d, %d) = %d, %d; want %d, %d", tc.from, tc.to, total, longest, tc.total, tc.longest)
		}
	}
	r.packet(pkt(maxSeq)) // a corrupted sequence number must not size the bitset
	r.packet(pkt(1 << 63))
	if r.received != 6 || len(r.seen) > 64 {
		t.Errorf("received = %d with %d bitset words after two absurd sequence numbers", r.received, len(r.seen))
	}
}
