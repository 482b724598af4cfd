package simnet

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// forkNode is a test component: a handler that logs what it receives and a
// burst of timers, all due at one instant, that log, draw from the node's
// stream and transmit. Their order at that instant is their seq alone.
type forkNode struct {
	node   *Node
	log    *[]string
	timers []*Timer
}

func (h *forkNode) logf(format string, args ...any) {
	*h.log = append(*h.log, fmt.Sprintf("%v %s ", h.node.Sim.Now(), h.node.Name)+fmt.Sprintf(format, args...))
}

func (h *forkNode) Start() {
	for i := range 6 {
		h.timers = append(h.timers, h.node.Sim.After(3*time.Millisecond, h.fire(i)))
	}
}

func (h *forkNode) fire(i int) func() {
	return func() {
		draw := h.node.Rand().Intn(1000)
		h.logf("timer %d draw %d", i, draw)
		frame := h.node.Sim.Frames().Get(64)
		frame[0], frame[1] = byte(i), byte(draw)
		h.node.Port(1).Send(frame)
		h.timers[i].Reset(time.Duration(1+draw%5) * time.Millisecond)
	}
}

func (h *forkNode) HandleFrame(p *Port, frame []byte) {
	h.logf("rx %s %x", p.Name(), frame[:4])
	p.Node.Sim.Frames().Put(frame)
}
func (h *forkNode) PortDown(p *Port) { h.logf("down %s", p.Name()) }
func (h *forkNode) PortUp(p *Port)   { h.logf("up %s", p.Name()) }

// forkScenario is two nodes on a shaped, lossy, jittery link, run until
// frames are in flight and queued and timers are pending.
func forkScenario(t *testing.T, log *[]string) (*Sim, []*forkNode) {
	t.Helper()
	s := New(9)
	var hs []*forkNode
	for _, name := range []string{"a", "b"} {
		n := s.AddNode(name)
		n.AddPort()
		h := &forkNode{node: n, log: log}
		n.Handler = h
		hs = append(hs, h)
	}
	l := s.Connect(hs[0].node.Port(1), hs[1].node.Port(1))
	l.SetBandwidth(2_000_000, 3)
	l.Impair(l.A, Impairment{LossRate: 0.2, Jitter: 300 * time.Microsecond})
	s.Start()
	s.RunUntil(3*time.Millisecond + 100*time.Microsecond)
	return s, hs
}

// forkComponents copies the test components onto fk, claiming their
// timers in reverse order: the order of claims must not be the order of
// dispatch.
func forkComponents(fk *Forker, hs []*forkNode, log *[]string) {
	for _, h := range hs {
		nh := &forkNode{node: fk.Node(h.node), log: log, timers: make([]*Timer, len(h.timers))}
		for i := len(h.timers) - 1; i >= 0; i-- {
			nh.timers[i] = fk.Timer(h.timers[i], nil, func() func() { return nh.fire(i) })
		}
		nh.node.Handler = nh
	}
}

func TestForkRunsAsTheSource(t *testing.T) {
	var srcLog, forkLog []string
	src, hs := forkScenario(t, &srcLog)
	if got := src.links[0].dirA.fly.n + src.links[0].dirB.fly.n; got == 0 {
		t.Fatal("scenario has no frame in flight at the fork")
	}
	if got := src.links[0].Stats(src.links[0].A).Queued; got == 0 {
		t.Fatal("scenario has an empty egress queue at the fork")
	}
	fk := src.Fork(nil)
	forkComponents(fk, hs, &forkLog)
	dst, err := fk.Finish()
	if err != nil {
		t.Fatal(err)
	}
	at := len(srcLog)
	src.RunFor(40 * time.Millisecond)
	dst.RunFor(40 * time.Millisecond)
	if got, want := strings.Join(forkLog, "\n"), strings.Join(srcLog[at:], "\n"); got != want {
		t.Errorf("fork ran\n%s\nsource ran\n%s", got, want)
	}
	if src.Events() != dst.Events() || src.Now() != dst.Now() {
		t.Errorf("fork: %d events at %v, source %d at %v", dst.Events(), dst.Now(), src.Events(), src.Now())
	}
	if a, b := src.FrameStats(), dst.FrameStats(); a != b {
		t.Errorf("fork's frame pool %+v, source's %+v", b, a)
	}
	for i, l := range src.links {
		dl := dst.links[i]
		for _, from := range []*Port{l.A, l.B} {
			dfrom := dl.A
			if from == l.B {
				dfrom = dl.B
			}
			if a, b := l.Stats(from), dl.Stats(dfrom); a != b {
				t.Errorf("%s: fork's direction %+v, source's %+v", from.Name(), b, a)
			}
			if a, b := l.Rand(from).Int63(), dl.Rand(dfrom).Int63(); a != b {
				t.Errorf("%s: direction stream's next draw %d on the fork, %d on the source", from.Name(), b, a)
			}
		}
	}
	for i, n := range src.nodeOrder {
		if a, b := n.Rand().Int63(), dst.nodeOrder[i].Rand().Int63(); a != b {
			t.Errorf("%s: node stream's next draw %d on the fork, %d on the source", n.Name, b, a)
		}
	}
	if a, b := src.Rand().Int63(), dst.Rand().Int63(); a != b {
		t.Errorf("sim stream's next draw %d on the fork, %d on the source", b, a)
	}
}

// TestForkIntoReleasedRunsAsTheSource: a fork written into a simulation
// that ran on past a fork of its own — other frames in flight and queued,
// other timers pending, its streams further along — runs exactly as the
// source, as a fork into new memory does.
func TestForkIntoReleasedRunsAsTheSource(t *testing.T) {
	var srcLog, oldLog, forkLog []string
	src, hs := forkScenario(t, &srcLog)
	old, oldHs := forkScenario(t, &oldLog)
	old.RunFor(7 * time.Millisecond)
	for _, n := range old.nodeOrder {
		n.Rand().Int63()
	}
	old.links[0].Rand(old.links[0].B).Int63()
	old.Release()

	fk := src.Fork(old)
	forkComponents(fk, hs, &forkLog)
	dst, err := fk.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if dst != old {
		t.Fatal("the fork did not write into the simulation it was given")
	}
	for _, h := range oldHs {
		for i, tm := range h.timers {
			if tm.pending() {
				t.Errorf("%s: timer %d of the released simulation's component is still pending", h.node.Name, i)
			}
		}
	}
	at := len(srcLog)
	src.RunFor(40 * time.Millisecond)
	dst.RunFor(40 * time.Millisecond)
	if got, want := strings.Join(forkLog, "\n"), strings.Join(srcLog[at:], "\n"); got != want {
		t.Errorf("fork ran\n%s\nsource ran\n%s", got, want)
	}
	if src.Events() != dst.Events() || src.Now() != dst.Now() || src.FrameStats() != dst.FrameStats() {
		t.Errorf("fork: %d events at %v, pool %+v; source %d at %v, pool %+v", dst.Events(), dst.Now(), dst.FrameStats(), src.Events(), src.Now(), src.FrameStats())
	}
	for i, n := range src.nodeOrder {
		if a, b := n.Rand().Int63(), dst.nodeOrder[i].Rand().Int63(); a != b {
			t.Errorf("%s: node stream's next draw %d on the fork, %d on the source", n.Name, b, a)
		}
	}
	for i, l := range src.links {
		if a, b := l.Rand(l.B).Int63(), dst.links[i].Rand(dst.links[i].B).Int63(); a != b {
			t.Errorf("direction stream's next draw %d on the fork, %d on the source", b, a)
		}
	}
}

// TestForkRefusesDoubleClaim: a pending timer two components claim would
// fire twice on the copy, so Finish refuses it.
func TestForkRefusesDoubleClaim(t *testing.T) {
	var log []string
	src, hs := forkScenario(t, &log)
	fk := src.Fork(nil)
	forkComponents(fk, hs, &log)
	fk.Timer(hs[0].timers[2], nil, func() func() { return func() {} })
	if _, err := fk.Finish(); err == nil || !strings.Contains(err.Error(), "claimed twice") {
		t.Errorf("Finish with a timer claimed twice: err = %v", err)
	}
}

// TestForkCopiesFramesInFlight: the fork's frames in flight are its own, so
// a write to the source's buffers after the fork reaches only the source.
func TestForkCopiesFramesInFlight(t *testing.T) {
	var srcLog, forkLog []string
	src, hs := forkScenario(t, &srcLog)
	fk := src.Fork(nil)
	forkComponents(fk, hs, &forkLog)
	dst, err := fk.Finish()
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range src.links {
		for _, d := range []*dirState{&l.dirA, &l.dirB} {
			for i := range d.fly.n {
				clear(d.fly.at(i).frame)
			}
		}
	}
	dst.RunFor(5 * time.Millisecond)
	for _, line := range forkLog {
		if strings.Contains(line, "rx") && strings.HasSuffix(line, " 00000000") {
			t.Errorf("fork delivered a frame the source's buffers were cleared under: %s", line)
		}
	}
}

// TestForkRefusesWhatItCannotCopy: a pending bare Schedule closure, a
// handler and a capture tap have no owner to rebuild them on the copy, so
// the fork fails instead of dropping them.
func TestForkRefusesWhatItCannotCopy(t *testing.T) {
	var log []string
	src, hs := forkScenario(t, &log)
	src.Schedule(time.Millisecond, func() {})
	fk := src.Fork(nil)
	forkComponents(fk, hs, &log)
	if _, err := fk.Finish(); err == nil || !strings.Contains(err.Error(), "1 pending event(s) claimed by no component") {
		t.Errorf("Finish with a bare Schedule pending: err = %v", err)
	}

	// A handler the components did not copy is refused too, and so is a
	// capture tap, which has no owner to install it on the copy.
	src, _ = forkScenario(t, &log)
	if _, err := src.Fork(nil).Finish(); err == nil {
		t.Error("Finish with no component copied: want an error")
	}
	src, hs = forkScenario(t, &log)
	src.links[0].Tap(func(time.Duration, *Port, []byte) {})
	fk = src.Fork(nil)
	forkComponents(fk, hs, &log)
	if _, err := fk.Finish(); err == nil || !strings.Contains(err.Error(), "capture taps") {
		t.Errorf("Finish with a tapped link: err = %v", err)
	}
}

// TestStreamForkReplaysDraws: a forked stream continues where its source
// is, whatever mix of Int63 and Uint64 draws got it there.
func TestStreamForkReplaysDraws(t *testing.T) {
	st := newStream(77)
	for i := range 1000 {
		if i%3 == 0 {
			st.r.Uint64()
		} else {
			st.r.Intn(1 + i)
		}
	}
	c := st.fork(nil)
	for i := range 100 {
		if a, b := st.r.Int63(), c.rand().Int63(); a != b {
			t.Fatalf("draw %d after the fork: source %d, fork %d", i, a, b)
		}
	}
	var never *stream
	if never.fork(nil) != nil {
		t.Error("fork of a stream never built should stay unbuilt")
	}
}
