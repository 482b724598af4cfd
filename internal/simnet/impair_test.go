package simnet

import (
	"bytes"
	"testing"
	"time"
)

// TestImpairAsymmetricLoss checks that a LossRate impairment on one
// direction blackholes only that direction and books the drops on the
// right per-direction counter.
func TestImpairAsymmetricLoss(t *testing.T) {
	s, a, b, ha, hb := pair(t)
	link := a.Port(1).Link
	link.Impair(a.Port(1), Impairment{LossRate: 1})

	a.Port(1).Send([]byte("to-b"))
	b.Port(1).Send([]byte("to-a"))
	s.RunFor(time.Millisecond)

	if len(hb.frames) != 0 {
		t.Errorf("impaired direction delivered %q, want nothing", hb.frames)
	}
	if len(ha.frames) != 1 || ha.frames[0] != "to-a" {
		t.Errorf("clean reverse direction got %q, want [to-a]", ha.frames)
	}
	if got := link.Stats(a.Port(1)).Lost; got != 1 {
		t.Errorf("Stats(a).Lost = %d, want 1", got)
	}
	if got := link.Stats(b.Port(1)).Lost; got != 0 {
		t.Errorf("Stats(b).Lost = %d, want 0", got)
	}
}

// TestImpairCorruption checks that CorruptRate flips exactly one byte of
// the delivered frame and counts it per direction.
func TestImpairCorruption(t *testing.T) {
	s, a, b, ha, hb := pair(t)
	link := a.Port(1).Link
	link.Impair(a.Port(1), Impairment{CorruptRate: 1})

	orig := []byte{0x10, 0x20, 0x30, 0x40}
	a.Port(1).Send(append([]byte(nil), orig...))
	b.Port(1).Send(append([]byte(nil), orig...))
	s.RunFor(time.Millisecond)

	if len(hb.frames) != 1 {
		t.Fatalf("corrupted direction delivered %d frames, want 1", len(hb.frames))
	}
	diff := 0
	got := []byte(hb.frames[0])
	for i := range orig {
		if got[i] != orig[i] {
			diff++
			if got[i] != orig[i]^0xFF {
				t.Errorf("byte %d = %#x, want %#x (single-bit-error model flips the whole byte)", i, got[i], orig[i]^0xFF)
			}
		}
	}
	if diff != 1 {
		t.Errorf("%d bytes differ, want exactly 1 (got % x, sent % x)", diff, got, orig)
	}
	if len(ha.frames) != 1 || !bytes.Equal([]byte(ha.frames[0]), orig) {
		t.Errorf("clean reverse direction got %q, want pristine frame", ha.frames)
	}
	if got := link.Stats(a.Port(1)).Corrupted; got != 1 {
		t.Errorf("Stats(a).Corrupted = %d, want 1", got)
	}
	if got := link.Stats(b.Port(1)).Corrupted; got != 0 {
		t.Errorf("Stats(b).Corrupted = %d, want 0", got)
	}
}

// TestImpairExtraLatency checks the deterministic delay component: arrival
// is link latency plus ExtraLatency exactly.
func TestImpairExtraLatency(t *testing.T) {
	s, a, _, _, hb := pair(t)
	link := a.Port(1).Link
	link.Impair(a.Port(1), Impairment{ExtraLatency: 2 * time.Millisecond})

	var arrived time.Duration
	hb.onRx = func(*Port, []byte) { arrived = s.Now() }
	a.Port(1).Send([]byte("x"))
	s.RunFor(10 * time.Millisecond)

	want := link.Latency + 2*time.Millisecond
	if arrived != want {
		t.Errorf("arrival at %v, want %v", arrived, want)
	}
}

// TestImpairJitterBoundsAndDeterminism checks that jitter delays each frame
// by a value in [0, Jitter) and that the same seed reproduces the same
// arrival times.
func TestImpairJitterBoundsAndDeterminism(t *testing.T) {
	run := func(seed int64) []time.Duration {
		s := New(seed)
		a, b := s.AddNode("a"), s.AddNode("b")
		hb := &echoHandler{}
		b.Handler = hb
		link := s.Connect(a.AddPort(), b.AddPort())
		link.Impair(a.Port(1), Impairment{Jitter: time.Millisecond})
		var arrivals []time.Duration
		hb.onRx = func(*Port, []byte) { arrivals = append(arrivals, s.Now()) }
		for i := 0; i < 32; i++ {
			at := time.Duration(i) * 2 * time.Millisecond
			s.At(at, func() { a.Port(1).Send([]byte("j")) })
		}
		s.RunFor(100 * time.Millisecond)
		if len(arrivals) != 32 {
			t.Fatalf("delivered %d frames, want 32", len(arrivals))
		}
		for i, at := range arrivals {
			base := time.Duration(i)*2*time.Millisecond + s.DefaultLatency
			if at < base || at >= base+time.Millisecond {
				t.Errorf("frame %d arrived at %v, want in [%v, %v)", i, at, base, base+time.Millisecond)
			}
		}
		return arrivals
	}
	first, second := run(42), run(42)
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("same seed diverged: frame %d arrived at %v then %v", i, first[i], second[i])
		}
	}
}

// TestImpairDownAndClear checks that Down blackholes a direction while the
// ports stay administratively up, and that the zero Impairment restores a
// clean wire.
func TestImpairDownAndClear(t *testing.T) {
	s, a, b, ha, hb := pair(t)
	link := a.Port(1).Link
	link.Impair(a.Port(1), Impairment{Down: true})

	if got := link.Impaired(a.Port(1)); !got.Down {
		t.Errorf("Impaired(a) = %+v, want Down", got)
	}
	a.Port(1).Send([]byte("eaten"))
	b.Port(1).Send([]byte("reverse"))
	s.RunFor(time.Millisecond)
	if len(hb.frames) != 0 {
		t.Errorf("one-way down direction delivered %q", hb.frames)
	}
	if len(ha.frames) != 1 {
		t.Errorf("reverse direction got %q, want [reverse]", ha.frames)
	}
	// Neither endpoint saw a carrier event: the ports are still up.
	if len(ha.downs)+len(hb.downs) != 0 {
		t.Errorf("one-way Down raised port events: a=%v b=%v", ha.downs, hb.downs)
	}
	if got := link.Stats(a.Port(1)).Lost; got != 1 {
		t.Errorf("Stats(a).Lost = %d, want 1", got)
	}

	link.Impair(a.Port(1), Impairment{})
	a.Port(1).Send([]byte("healed"))
	s.RunFor(time.Millisecond)
	if len(hb.frames) != 1 || hb.frames[0] != "healed" {
		t.Errorf("after clearing got %q, want [healed]", hb.frames)
	}
}

// TestCarrierFaultOneSided checks the one-way fiber-cut model: only the
// local handler hears PortDown, the port stays administratively up so its
// transmitter keeps working, and CarrierRestore reports recovery.
func TestCarrierFaultOneSided(t *testing.T) {
	s, _, b, ha, hb := pair(t)

	b.Port(1).CarrierFault()
	s.RunFor(LocalDetectDelay + time.Millisecond)
	if len(hb.downs) != 1 {
		t.Fatalf("victim downs = %v, want one PortDown", hb.downs)
	}
	if len(ha.downs) != 0 {
		t.Errorf("peer downs = %v, want none (one-way fault)", ha.downs)
	}
	// The victim's transmitter still works: frames b->a deliver.
	b.Port(1).Send([]byte("still-talking"))
	s.RunFor(time.Millisecond)
	if len(ha.frames) != 1 || ha.frames[0] != "still-talking" {
		t.Errorf("victim TX after carrier fault got %q, want [still-talking]", ha.frames)
	}

	b.Port(1).CarrierRestore()
	s.RunFor(LocalDetectDelay + time.Millisecond)
	if len(hb.ups) != 1 {
		t.Errorf("victim ups = %v, want one PortUp", hb.ups)
	}
	if len(ha.ups) != 0 {
		t.Errorf("peer ups = %v, want none", ha.ups)
	}
}

// TestCarrierFaultOnDownPort checks that a port that is administratively
// down reports neither carrier loss nor carrier recovery.
func TestCarrierFaultOnDownPort(t *testing.T) {
	s, _, b, _, hb := pair(t)
	b.Port(1).Fail()
	s.RunFor(LocalDetectDelay + time.Millisecond)
	hb.downs, hb.ups = nil, nil

	b.Port(1).CarrierFault()
	b.Port(1).CarrierRestore()
	s.RunFor(LocalDetectDelay + time.Millisecond)
	if len(hb.downs) != 0 || len(hb.ups) != 0 {
		t.Errorf("admin-down port reported carrier events: downs=%v ups=%v", hb.downs, hb.ups)
	}
}

// TestImpairPreservesCleanRNGOrder checks the determinism contract behind
// the impaired flag: installing and clearing an impairment on one link must
// not shift the RNG draw sequence of unrelated clean-link traffic.
func TestImpairPreservesCleanRNGOrder(t *testing.T) {
	run := func(touchImpairment bool) []string {
		s := New(7)
		a, b := s.AddNode("a"), s.AddNode("b")
		ha, hb := &echoHandler{}, &echoHandler{}
		a.Handler, b.Handler = ha, hb
		link := s.Connect(a.AddPort(), b.AddPort())
		// A lossy link makes delivery depend on the RNG stream.
		link.Impair(a.Port(1), Impairment{LossRate: 0.5})
		link.Impair(b.Port(1), Impairment{LossRate: 0.5})
		if touchImpairment {
			other := s.Connect(a.AddPort(), b.AddPort())
			other.Impair(a.Port(2), Impairment{LossRate: 0.9, CorruptRate: 0.9, Jitter: time.Millisecond})
			other.Impair(a.Port(2), Impairment{})
		}
		for i := 0; i < 64; i++ {
			at := time.Duration(i) * time.Millisecond
			s.At(at, func() {
				// Interleaved traffic over the second (clean, previously
				// impaired) link must not consume RNG draws.
				if touchImpairment {
					a.Port(2).Send([]byte("noise"))
				}
				a.Port(1).Send([]byte{byte(i)})
			})
		}
		s.RunFor(200 * time.Millisecond)
		var survivors []string
		for _, f := range hb.frames {
			if f != "noise" {
				survivors = append(survivors, f)
			}
		}
		return survivors
	}
	clean, touched := run(false), run(true)
	if len(clean) != len(touched) {
		t.Fatalf("survivor count changed: %d vs %d", len(clean), len(touched))
	}
	for i := range clean {
		if clean[i] != touched[i] {
			t.Fatalf("survivor %d differs: %q vs %q", i, clean[i], touched[i])
		}
	}
}

// TestLossInstalledMidRunSparesFramesInFlight installs total loss on a live
// link from a control event while a ping-pong is running: loss is decided at
// transmit time, so the frame already in flight keeps its arrival time and
// only later sends are dropped.
func TestLossInstalledMidRunSparesFramesInFlight(t *testing.T) {
	s := New(5)
	a, b := s.AddNode("a"), s.AddNode("b")
	ha, hb := &echoHandler{}, &echoHandler{}
	a.Handler, b.Handler = ha, hb
	link := s.ConnectLatency(a.AddPort(), b.AddPort(), 50*time.Microsecond)
	var arrivals []time.Duration
	bounce := func(p *Port, f []byte) {
		arrivals = append(arrivals, s.Now())
		p.Send(append([]byte(nil), f...))
	}
	ha.onRx, hb.onRx = bounce, bounce

	a.Port(1).Send([]byte("p"))
	s.At(120*time.Microsecond, func() {
		link.Impair(a.Port(1), Impairment{LossRate: 1})
		link.Impair(b.Port(1), Impairment{LossRate: 1})
	})
	s.RunUntil(time.Millisecond)

	// Sent at 0, 50µs and 100µs (the last in flight when loss lands at
	// 120µs); the bounce at 150µs is the first transmit under loss.
	want := []time.Duration{50 * time.Microsecond, 100 * time.Microsecond, 150 * time.Microsecond}
	if len(arrivals) != len(want) {
		t.Fatalf("arrivals = %v, want %v", arrivals, want)
	}
	for i := range want {
		if arrivals[i] != want[i] {
			t.Fatalf("arrivals = %v, want %v", arrivals, want)
		}
	}
	if got := link.Stats(a.Port(1)).Lost + link.Stats(b.Port(1)).Lost; got != 1 {
		t.Errorf("frames lost = %d, want 1 (the bounce sent at 150µs)", got)
	}
}
