package simnet

import (
	"fmt"
	"testing"
	"time"
)

func BenchmarkEventLoop(b *testing.B) {
	// Raw scheduling throughput: the ceiling on everything the
	// experiments can simulate per wall-clock second.
	s := New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(time.Microsecond, func() {})
		s.Step()
	}
}

func BenchmarkFrameDelivery(b *testing.B) {
	s := New(1)
	na, nb := s.AddNode("a"), s.AddNode("b")
	h := &echoHandler{}
	nb.Handler = h
	s.Connect(na.AddPort(), nb.AddPort())
	frame := make([]byte, 85) // a BGP keepalive's worth
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		na.Port(1).Send(frame)
		s.Step()
		h.frames = h.frames[:0]
	}
}

func BenchmarkTimerResetChurn(b *testing.B) {
	// Dead-timer re-arming is the hottest timer pattern in the fabric
	// (every received frame resets a timer).
	s := New(1)
	t := s.After(time.Millisecond, func() {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Reset(time.Millisecond)
		if i%1024 == 1023 {
			// Drain the cancelled events like a real run would.
			s.RunFor(2 * time.Millisecond)
			t = s.After(time.Millisecond, func() {})
		}
	}
}

func BenchmarkMixedHorizon(b *testing.B) {
	// A control-plane fabric's two horizons at once: N hello timers that
	// re-arm themselves every 50 ms, spread evenly over the period, and
	// frames due 100 µs out. One iteration is 100 µs of it: a frame sent and
	// delivered, and N/500 timers fired and re-armed.
	for _, n := range []int{500, 8000} {
		b.Run(fmt.Sprintf("timers=%d", n), func(b *testing.B) {
			s := New(1)
			x, y := s.AddNode("x"), s.AddNode("y")
			y.Handler = &poolSink{sim: s}
			s.ConnectLatency(x.AddPort(), y.AddPort(), 100*time.Microsecond)
			const hello = 50 * time.Millisecond
			for i := 0; i < n; i++ {
				var tm *Timer
				tm = s.After(hello*time.Duration(i)/time.Duration(n), func() { tm.Reset(hello) })
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x.Port(1).Send(s.Frames().Get(85))
				s.RunFor(100 * time.Microsecond)
			}
		})
	}
}

func BenchmarkShapedLinkBacklog(b *testing.B) {
	// The packet engine's regime: 16 shaped directions, each with a 64-deep
	// standing backlog. One iteration sends a frame and dispatches a delivery.
	s := New(1)
	var ports []*Port
	for i := 0; i < 8; i++ {
		x, y := s.AddNode(fmt.Sprintf("x%d", i)), s.AddNode(fmt.Sprintf("y%d", i))
		x.Handler, y.Handler = &poolSink{sim: s}, &poolSink{sim: s}
		l := s.ConnectLatency(x.AddPort(), y.AddPort(), 10*time.Microsecond)
		l.SetBandwidth(1_000_000_000, 128)
		ports = append(ports, x.Port(1), y.Port(1))
	}
	for i := 0; i < 64*len(ports); i++ {
		ports[i%len(ports)].Send(s.Frames().Get(1250))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ports[i%len(ports)].Send(s.Frames().Get(1250))
		s.Step()
	}
}

func BenchmarkLockstepBurst(b *testing.B) {
	// A fabric's hellos in lockstep: every port has a timer that fires at
	// the same instant every 50 ms and sends one frame. Every period turns
	// one calendar bin of a timer per port into the near run and puts every
	// direction on the wire for one instant. One iteration is one period:
	// two dispatches per port, reported per event. The small shape is 512
	// one-port nodes paired off by links; the large one 576 nodes of four
	// ports, each linked to the next two nodes round a ring: the 2 304
	// directions of a 24-PoD fabric, four to a destination node.
	const hello = 50 * time.Millisecond
	for _, tc := range []struct{ nodes, ports int }{{512, 1}, {576, 4}} {
		b.Run(fmt.Sprintf("dirs=%d", tc.nodes*tc.ports), func(b *testing.B) {
			s := New(1)
			var ports []*Port
			if tc.ports == 1 {
				for i := 0; i < tc.nodes; i += 2 {
					x, y := s.AddNode(fmt.Sprintf("x%d", i)), s.AddNode(fmt.Sprintf("y%d", i))
					x.Handler, y.Handler = &poolSink{sim: s}, &poolSink{sim: s}
					px, py := x.AddPort(), y.AddPort()
					s.ConnectLatency(px, py, 100*time.Microsecond)
					ports = append(ports, px, py)
				}
			} else {
				nodes := make([]*Node, tc.nodes)
				for i := range nodes {
					nodes[i] = s.AddNode(fmt.Sprintf("n%d", i))
					nodes[i].Handler = &poolSink{sim: s}
				}
				for k := 1; k <= tc.ports/2; k++ {
					for i, n := range nodes {
						px, py := n.AddPort(), nodes[(i+k)%len(nodes)].AddPort()
						s.ConnectLatency(px, py, 100*time.Microsecond)
						ports = append(ports, px, py)
					}
				}
			}
			for _, p := range ports {
				var tm *Timer
				tm = s.After(hello, func() {
					p.Send(s.Frames().Get(85))
					tm.Reset(hello)
				})
			}
			s.RunFor(hello)
			start := s.Events()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.RunFor(hello)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(s.Events()-start), "ns/event")
		})
	}
}
