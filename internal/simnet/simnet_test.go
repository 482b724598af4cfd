package simnet

import (
	"testing"
	"testing/quick"
	"time"
)

// echoHandler records frames and port events for assertions.
type echoHandler struct {
	frames []string
	downs  []int
	ups    []int
	onRx   func(p *Port, frame []byte)
}

func (h *echoHandler) Start()           {}
func (h *echoHandler) PortDown(p *Port) { h.downs = append(h.downs, p.Index) }
func (h *echoHandler) PortUp(p *Port)   { h.ups = append(h.ups, p.Index) }
func (h *echoHandler) HandleFrame(p *Port, f []byte) {
	h.frames = append(h.frames, string(f))
	if h.onRx != nil {
		h.onRx(p, f)
	}
}

func pair(t *testing.T) (*Sim, *Node, *Node, *echoHandler, *echoHandler) {
	t.Helper()
	s := New(1)
	a := s.AddNode("a")
	b := s.AddNode("b")
	ha, hb := &echoHandler{}, &echoHandler{}
	a.Handler, b.Handler = ha, hb
	s.Connect(a.AddPort(), b.AddPort())
	return s, a, b, ha, hb
}

func TestFrameDelivery(t *testing.T) {
	s, a, _, _, hb := pair(t)
	a.Port(1).Send([]byte("hello"))
	s.RunFor(time.Millisecond)
	if len(hb.frames) != 1 || hb.frames[0] != "hello" {
		t.Fatalf("frames = %q, want [hello]", hb.frames)
	}
	if got := a.Port(1).Counters.TxFrames; got != 1 {
		t.Errorf("TxFrames = %d, want 1", got)
	}
}

func TestDeliveryLatency(t *testing.T) {
	s := New(1)
	a, b := s.AddNode("a"), s.AddNode("b")
	hb := &echoHandler{}
	b.Handler = hb
	var arrived time.Duration
	hb.onRx = func(*Port, []byte) { arrived = s.Now() }
	s.ConnectLatency(a.AddPort(), b.AddPort(), 250*time.Microsecond)
	a.Port(1).Send([]byte("x"))
	s.RunFor(time.Millisecond)
	if arrived != 250*time.Microsecond {
		t.Errorf("arrival at %v, want 250µs", arrived)
	}
}

func TestEventOrderingFIFOAtSameTime(t *testing.T) {
	s := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(time.Millisecond, func() { order = append(order, i) })
	}
	s.RunFor(2 * time.Millisecond)
	for i, v := range order {
		if v != i {
			t.Fatalf("events at same timestamp fired out of order: %v", order)
		}
	}
}

func TestEventOrderingByTime(t *testing.T) {
	// Property: regardless of scheduling order, callbacks fire in
	// non-decreasing time order.
	f := func(delays []uint16) bool {
		s := New(1)
		var fired []time.Duration
		for _, d := range delays {
			s.After(time.Duration(d)*time.Microsecond, func() { fired = append(fired, s.Now()) })
		}
		s.RunFor(time.Second)
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(delays)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTimerStop(t *testing.T) {
	s := New(1)
	fired := false
	tm := s.After(time.Millisecond, func() { fired = true })
	if !tm.Stop() {
		t.Error("Stop() = false on pending timer")
	}
	if tm.Stop() {
		t.Error("second Stop() = true")
	}
	s.RunFor(10 * time.Millisecond)
	if fired {
		t.Error("stopped timer fired")
	}
}

func TestTimerReset(t *testing.T) {
	s := New(1)
	var firedAt time.Duration
	tm := s.After(time.Millisecond, func() { firedAt = s.Now() })
	s.RunFor(500 * time.Microsecond)
	tm.Reset(2 * time.Millisecond) // now fires at 2.5ms
	s.RunFor(10 * time.Millisecond)
	if firedAt != 2500*time.Microsecond {
		t.Errorf("fired at %v, want 2.5ms", firedAt)
	}
}

func TestTimerResetRepeated(t *testing.T) {
	s := New(1)
	count := 0
	tm := s.After(time.Millisecond, func() { count++ })
	for i := 0; i < 5; i++ {
		tm.Reset(time.Millisecond)
	}
	s.RunFor(10 * time.Millisecond)
	if count != 1 {
		t.Errorf("timer fired %d times after repeated Reset, want 1", count)
	}
}

func TestPortFailLocalNotificationOnly(t *testing.T) {
	s, a, _, ha, hb := pair(t)
	a.Port(1).Fail()
	s.RunFor(10 * time.Millisecond)
	if len(ha.downs) != 1 || ha.downs[0] != 1 {
		t.Errorf("local node downs = %v, want [1]", ha.downs)
	}
	if len(hb.downs) != 0 {
		t.Errorf("peer got PortDown %v; the paper's failure model keeps the peer unaware", hb.downs)
	}
}

func TestFailedPortDropsTxAndRx(t *testing.T) {
	s, a, b, _, hb := pair(t)
	a.Port(1).Fail()
	s.RunFor(10 * time.Millisecond)
	a.Port(1).Send([]byte("into the void"))
	b.Port(1).Send([]byte("to a dead port"))
	s.RunFor(10 * time.Millisecond)
	if len(hb.frames) != 0 {
		t.Errorf("frames delivered from failed port: %v", hb.frames)
	}
	if a.Port(1).Counters.TxDropped != 1 {
		t.Errorf("TxDropped = %d, want 1", a.Port(1).Counters.TxDropped)
	}
	if a.Port(1).Counters.RxDropped != 1 {
		t.Errorf("RxDropped = %d, want 1", a.Port(1).Counters.RxDropped)
	}
}

func TestFrameInFlightLostOnFailure(t *testing.T) {
	s, a, b, _, hb := pair(t)
	a.Port(1).Send([]byte("racing the failure"))
	b.Port(1).Fail() // frame is in flight; receiving port dies first
	s.RunFor(10 * time.Millisecond)
	if len(hb.frames) != 0 {
		t.Errorf("in-flight frame delivered to failed port: %v", hb.frames)
	}
}

func TestRestore(t *testing.T) {
	s, a, _, ha, hb := pair(t)
	a.Port(1).Fail()
	s.RunFor(10 * time.Millisecond)
	a.Port(1).Restore()
	s.RunFor(10 * time.Millisecond)
	if len(ha.ups) != 1 {
		t.Errorf("ups = %v, want one PortUp", ha.ups)
	}
	a.Port(1).Send([]byte("back"))
	s.RunFor(10 * time.Millisecond)
	if len(hb.frames) != 1 {
		t.Errorf("restored port did not deliver: %v", hb.frames)
	}
}

func TestLinkTap(t *testing.T) {
	s, a, b, _, _ := pair(t)
	var taps int
	var bytes int
	a.Port(1).Link.Tap(func(at time.Duration, from *Port, frame []byte) {
		taps++
		bytes += len(frame)
	})
	a.Port(1).Send([]byte("one"))
	b.Port(1).Send([]byte("two2"))
	s.RunFor(time.Millisecond)
	if taps != 2 || bytes != 7 {
		t.Errorf("taps=%d bytes=%d, want 2 and 7", taps, bytes)
	}
}

func TestDuplicateNodePanics(t *testing.T) {
	s := New(1)
	s.AddNode("x")
	defer func() {
		if recover() == nil {
			t.Error("duplicate AddNode did not panic")
		}
	}()
	s.AddNode("x")
}

func TestDoubleWirePanics(t *testing.T) {
	s := New(1)
	a, b, c := s.AddNode("a"), s.AddNode("b"), s.AddNode("c")
	pa := a.AddPort()
	s.Connect(pa, b.AddPort())
	defer func() {
		if recover() == nil {
			t.Error("wiring an already-wired port did not panic")
		}
	}()
	s.Connect(pa, c.AddPort())
}

func TestSchedulePastPanics(t *testing.T) {
	s := New(1)
	s.After(time.Millisecond, func() {})
	s.RunFor(time.Millisecond)
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past did not panic")
		}
	}()
	s.At(0, func() {})
}

func TestRunUntilAdvancesClock(t *testing.T) {
	s := New(1)
	s.RunUntil(3 * time.Second)
	if s.Now() != 3*time.Second {
		t.Errorf("Now = %v, want 3s", s.Now())
	}
}

func TestPortNamesAndPeers(t *testing.T) {
	_, a, b, _, _ := pair(t)
	if got, want := a.Port(1).Name(), "a:eth1"; got != want {
		t.Errorf("Name = %q, want %q", got, want)
	}
	if a.Port(1).Peer() != b.Port(1) {
		t.Error("Peer mismatch")
	}
	if b.Port(1).Peer() != a.Port(1) {
		t.Error("Peer mismatch from the far end")
	}
}

func TestUniqueMACs(t *testing.T) {
	s := New(1)
	seen := make(map[string]bool)
	for i := 0; i < 4; i++ {
		n := s.AddNode(string(rune('a' + i)))
		for j := 0; j < 8; j++ {
			mac := n.AddPort().MAC.String()
			if seen[mac] {
				t.Fatalf("duplicate MAC %s", mac)
			}
			seen[mac] = true
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []string {
		s := New(42)
		a, b := s.AddNode("a"), s.AddNode("b")
		ha, hb := &echoHandler{}, &echoHandler{}
		a.Handler, b.Handler = ha, hb
		s.Connect(a.AddPort(), b.AddPort())
		for i := 0; i < 50; i++ {
			d := time.Duration(s.Rand().Intn(1000)) * time.Microsecond
			msg := []byte{byte(i)}
			s.After(d, func() { a.Port(1).Send(msg) })
		}
		s.RunFor(time.Second)
		return hb.frames
	}
	r1, r2 := run(), run()
	if len(r1) != len(r2) {
		t.Fatalf("nondeterministic run lengths: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("nondeterministic delivery order at %d", i)
		}
	}
}

// TestZeroLatencyLinkDeliversSameInstantInOrder pins the total event order
// on a zero-latency link: everything happens at one instant, so delivery
// order is decided by the (node, class, transmit-counter) key alone — frames
// in send order per direction, and the lower-ranked node's arrivals first.
func TestZeroLatencyLinkDeliversSameInstantInOrder(t *testing.T) {
	s := New(1)
	a, b := s.AddNode("a"), s.AddNode("b")
	ha, hb := &echoHandler{}, &echoHandler{}
	a.Handler, b.Handler = ha, hb
	s.ConnectLatency(a.AddPort(), b.AddPort(), 0)
	var order []string
	ha.onRx = func(_ *Port, f []byte) { order = append(order, "a<-"+string(f)) }
	hb.onRx = func(p *Port, f []byte) {
		order = append(order, "b<-"+string(f))
		p.Send(append([]byte(nil), f...)) // bounce once
	}
	a.Port(1).Send([]byte("1"))
	a.Port(1).Send([]byte("2"))
	s.RunUntil(0)
	if s.Now() != 0 {
		t.Errorf("clock moved to %v over a zero-latency exchange", s.Now())
	}
	// b bounces "1" before "2" reaches it: a (rank 0) sorts ahead of b
	// (rank 1) within the instant.
	want := []string{"b<-1", "a<-1", "b<-2", "a<-2"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}
