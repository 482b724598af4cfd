package simnet

import (
	"testing"
	"time"

	"repro/internal/budget"
)

func TestSerializationDelay(t *testing.T) {
	s := New(1)
	a, b := s.AddNode("a"), s.AddNode("b")
	h := &echoHandler{}
	b.Handler = h
	var arrived []time.Duration
	h.onRx = func(*Port, []byte) { arrived = append(arrived, s.Now()) }
	link := s.ConnectLatency(a.AddPort(), b.AddPort(), 100*time.Microsecond)
	link.SetBandwidth(8_000_000, 0) // 8 Mb/s: a 1000-byte frame takes 1ms
	a.Port(1).Send(make([]byte, 1000))
	s.RunFor(10 * time.Millisecond)
	if len(arrived) != 1 {
		t.Fatalf("arrived %d frames", len(arrived))
	}
	// 1ms serialization + 100µs propagation.
	if arrived[0] != 1100*time.Microsecond {
		t.Errorf("arrival at %v, want 1.1ms", arrived[0])
	}
}

func TestQueueingBehindEarlierFrames(t *testing.T) {
	s := New(1)
	a, b := s.AddNode("a"), s.AddNode("b")
	h := &echoHandler{}
	b.Handler = h
	var arrived []time.Duration
	h.onRx = func(*Port, []byte) { arrived = append(arrived, s.Now()) }
	link := s.ConnectLatency(a.AddPort(), b.AddPort(), 0)
	link.SetBandwidth(8_000_000, 0)
	for i := 0; i < 3; i++ {
		a.Port(1).Send(make([]byte, 1000)) // 1ms each, back to back
	}
	s.RunFor(10 * time.Millisecond)
	want := []time.Duration{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond}
	if len(arrived) != 3 {
		t.Fatalf("arrived %d frames", len(arrived))
	}
	for i := range want {
		if arrived[i] != want[i] {
			t.Errorf("frame %d at %v, want %v", i, arrived[i], want[i])
		}
	}
}

func TestThroughputCap(t *testing.T) {
	// Offer 2x the link rate for one second; delivered bytes must match
	// the configured bandwidth, not the offered load.
	s := New(1)
	a, b := s.AddNode("a"), s.AddNode("b")
	h := &echoHandler{}
	b.Handler = h
	link := s.ConnectLatency(a.AddPort(), b.AddPort(), 0)
	link.SetBandwidth(8_000_000, 0) // 1 MB/s
	var offered func()
	frame := make([]byte, 1000)
	offered = func() {
		a.Port(1).Send(frame)
		a.Port(1).Send(frame) // 2x rate
		s.After(time.Millisecond, offered)
	}
	offered()
	s.RunFor(time.Second)
	got := b.Port(1).Counters.RxBytes
	if got < 990_000 || got > 1_010_000 {
		t.Errorf("delivered %d bytes in 1s over a 1MB/s link", got)
	}
}

func TestQueueOverflowTailDrops(t *testing.T) {
	s := New(1)
	a, b := s.AddNode("a"), s.AddNode("b")
	b.Handler = &echoHandler{}
	link := s.ConnectLatency(a.AddPort(), b.AddPort(), 0)
	link.SetBandwidth(8_000_000, 4) // at most 4 frames queued
	for i := 0; i < 10; i++ {
		a.Port(1).Send(make([]byte, 1000))
	}
	s.RunFor(time.Second)
	if got := link.Stats(a.Port(1)).Overflows; got != 6 {
		t.Errorf("overflowed = %d, want 6 (10 offered, 4 queue slots)", got)
	}
	if got := b.Port(1).Counters.RxFrames; got != 4 {
		t.Errorf("delivered = %d, want 4", got)
	}
}

func TestLinkStatsPerDirection(t *testing.T) {
	// Overflow one direction only; the per-direction stats must attribute
	// every drop to the congested sender while the reverse direction and
	// the link-wide total stay consistent.
	s := New(1)
	a, b := s.AddNode("a"), s.AddNode("b")
	a.Handler = &echoHandler{}
	b.Handler = &echoHandler{}
	link := s.ConnectLatency(a.AddPort(), b.AddPort(), 0)
	link.SetBandwidth(8_000_000, 4)
	for i := 0; i < 10; i++ {
		a.Port(1).Send(make([]byte, 1000)) // 6 of these tail-drop
	}
	b.Port(1).Send(make([]byte, 1000)) // reverse direction, no congestion

	mid := link.Stats(a.Port(1))
	if mid.Queued == 0 {
		t.Error("forward direction shows an empty queue while frames are serializing")
	}

	s.RunFor(time.Second)
	fwd := link.Stats(a.Port(1))
	rev := link.Stats(b.Port(1))
	if fwd.Overflows != 6 {
		t.Errorf("forward overflows = %d, want 6", fwd.Overflows)
	}
	if fwd.OverflowBytes != 6000 {
		t.Errorf("forward overflow bytes = %d, want 6000", fwd.OverflowBytes)
	}
	if rev.Overflows != 0 || rev.OverflowBytes != 0 {
		t.Errorf("reverse direction counted overflows: %+v", rev)
	}
	if fwd.Queued != 0 || rev.Queued != 0 {
		t.Errorf("queues not drained: fwd=%d rev=%d", fwd.Queued, rev.Queued)
	}
	if got := link.Bandwidth(); got != 8_000_000 {
		t.Errorf("Bandwidth() = %d, want 8000000", got)
	}
}

func TestZeroBandwidthIsIdeal(t *testing.T) {
	// Default links have no serialization delay: delivery at exactly the
	// propagation latency regardless of frame size.
	s := New(1)
	a, b := s.AddNode("a"), s.AddNode("b")
	h := &echoHandler{}
	b.Handler = h
	var at time.Duration
	h.onRx = func(*Port, []byte) { at = s.Now() }
	s.ConnectLatency(a.AddPort(), b.AddPort(), 250*time.Microsecond)
	a.Port(1).Send(make([]byte, 9000))
	s.RunFor(time.Millisecond)
	if at != 250*time.Microsecond {
		t.Errorf("ideal link delivered at %v", at)
	}
}

func TestFluidResidualSerialization(t *testing.T) {
	// Reserving half the direction for the fluid engine doubles the
	// packet serialization time; the reverse direction is untouched.
	s := New(1)
	a, b := s.AddNode("a"), s.AddNode("b")
	h := &echoHandler{}
	b.Handler = h
	var arrived []time.Duration
	h.onRx = func(*Port, []byte) { arrived = append(arrived, s.Now()) }
	link := s.ConnectLatency(a.AddPort(), b.AddPort(), 100*time.Microsecond)
	link.SetBandwidth(8_000_000, 0)
	link.SetFluidLoad(a.Port(1), 4_000_000, 0) // residual 4 Mb/s: 1000B takes 2ms
	a.Port(1).Send(make([]byte, 1000))
	s.RunFor(10 * time.Millisecond)
	if len(arrived) != 1 || arrived[0] != 2100*time.Microsecond {
		t.Fatalf("arrived %v, want one frame at 2.1ms", arrived)
	}
	if got := link.Stats(a.Port(1)).FluidBps; got != 4_000_000 {
		t.Errorf("Stats FluidBps = %d, want 4M", got)
	}
	if got := link.Stats(b.Port(1)).FluidBps; got != 0 {
		t.Errorf("reverse-direction FluidBps = %d, want 0", got)
	}
}

func TestFluidLoadFloorKeepsPacketsTrickling(t *testing.T) {
	// A reservation covering the whole link must not freeze the packet
	// path: the serializer floors at 1/128th of capacity.
	s := New(1)
	a, b := s.AddNode("a"), s.AddNode("b")
	h := &echoHandler{}
	b.Handler = h
	delivered := 0
	h.onRx = func(*Port, []byte) { delivered++ }
	link := s.ConnectLatency(a.AddPort(), b.AddPort(), 0)
	link.SetBandwidth(128_000_000, 0)
	link.SetFluidLoad(a.Port(1), 128_000_000, 0) // floor: 1 Mb/s residual
	a.Port(1).Send(make([]byte, 1000))           // 8ms at the floor
	s.RunFor(10 * time.Millisecond)
	if delivered != 1 {
		t.Fatalf("delivered %d frames through a fully reserved link, want 1", delivered)
	}
}

func TestFluidBytesIntegration(t *testing.T) {
	// Bytes carried by the reservation integrate exactly over the
	// piecewise-constant rate segments.
	s := New(1)
	a, b := s.AddNode("a"), s.AddNode("b")
	link := s.ConnectLatency(a.AddPort(), b.AddPort(), 0)
	link.SetBandwidth(8_000_000, 0)
	from := a.Port(1)
	link.SetFluidLoad(from, 8_000_000, 0)                    // 1 MB/s
	link.SetFluidLoad(from, 4_000_000, 100*time.Millisecond) // 100 KB so far
	if got := link.FluidBytes(from, 300*time.Millisecond); got != 200_000 {
		t.Fatalf("FluidBytes(300ms) = %d, want 200000", got)
	}
	// Reads are idempotent and monotone.
	if got := link.FluidBytes(from, 300*time.Millisecond); got != 200_000 {
		t.Fatalf("second read = %d, want 200000", got)
	}
	link.SetFluidLoad(from, 0, 500*time.Millisecond)
	if got := link.FluidBytes(from, time.Second); got != 300_000 {
		t.Fatalf("FluidBytes(1s) = %d, want 300000", got)
	}
	if got := link.Stats(from).FluidBps; got != 0 {
		t.Fatalf("FluidBps = %d, want 0", got)
	}
}

// poolSink is the last owner of every frame it receives.
type poolSink struct {
	sim *Sim
	rx  int
}

func (h *poolSink) Start()         {}
func (h *poolSink) PortDown(*Port) {}
func (h *poolSink) PortUp(*Port)   {}
func (h *poolSink) HandleFrame(_ *Port, f []byte) {
	h.rx++
	h.sim.Frames().Put(f)
}

// TestShapedSendAllocs pins the shaped-link budget: with a standing backlog
// a Send and the delivery it eventually causes touch only the direction's
// two rings, and a tail drop touches nothing, so neither allocates once the
// rings and the frame pool are warm.
func TestShapedSendAllocs(t *testing.T) {
	s := New(1)
	a, b := s.AddNode("a"), s.AddNode("b")
	sink := &poolSink{sim: s}
	b.Handler = sink
	link := s.ConnectLatency(a.AddPort(), b.AddPort(), 10*time.Microsecond)
	link.SetBandwidth(1_000_000_000, 64) // a 1250-byte frame takes 10 µs
	port := a.Port(1)
	send := func() { port.Send(s.Frames().Get(1250)) }

	for i := 0; i < 32; i++ {
		send()
	}
	step := func() {
		send()
		s.RunFor(10 * time.Microsecond) // one frame leaves, one arrives
	}
	for i := 0; i < 100; i++ {
		step()
	}
	if q := link.Stats(port).Queued; q != 32 {
		t.Fatalf("standing backlog is %d frames, want 32", q)
	}
	rx := sink.rx
	if allocs, bytes := budget.PerRun(200, step); allocs != 0 || bytes != 0 {
		t.Errorf("Send + delivery behind a backlog allocates %d objects and %d B per op, want 0 and 0", allocs, bytes)
	}
	if sink.rx-rx < 200 {
		t.Fatalf("only %d deliveries in 200 steps", sink.rx-rx)
	}

	for link.Stats(port).Queued < 64 {
		send()
	}
	drops := link.Stats(port).Overflows
	if allocs, bytes := budget.PerRun(200, send); allocs != 0 || bytes != 0 {
		t.Errorf("tail drop allocates %d objects and %d B per op, want 0 and 0", allocs, bytes)
	}
	if got := link.Stats(port).Overflows - drops; got < 200 {
		t.Fatalf("only %d tail drops in 200 sends into a full queue", got)
	}
}
