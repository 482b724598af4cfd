package simnet

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"testing"
	"time"
)

// TestWireOrderPinned pins everything the scheduler lets a protocol observe
// on shaped links: the instant, receiver and identity of every delivery,
// the egress-queue depth Stats reports around every Send and between RunFor
// calls, and the tail-drop counters. The hashes were recorded from the
// implementation that kept every frame and every queue release as its own
// heap event; a scheduler edit that moves any of them has changed the
// (at, prio, tie, seq) dispatch order, not just its cost.
//
// The scenario is built to sit on the edges of that order: 1250-byte frames
// on 1 Gb/s serialize in exactly 10 µs, so queue releases, timers and RunFor
// horizons share instants; sends come from timer, frame-handler, zero-delay
// and control context; one link's bandwidth is so large its transmit time
// rounds to 0 ns and another also has zero latency, so frames are delivered
// and queue slots released at the instant of the Send; arrivals are
// reordered by jitter, by an ExtraLatency change and by a Latency change
// mid-run; a fluid reservation stretches one serializer off the grid; a port
// fails and is restored with frames in flight. The clock is driven by RunFor
// only: what a single Step covers is not pinned, because a queue release
// need not be a step of its own.
func TestWireOrderPinned(t *testing.T) {
	want := []uint64{
		0x60efd5d8cf7e7875, 0xf6b25853b9b82928, 0xc499fd05ab3e68a6,
		0x4a9bef63ffa61fd0, 0xc7baf1149086ae94, 0x1d83a30305e53f4a,
	}
	got := runWireOrderScenario()
	if len(got) != len(want) {
		t.Fatalf("scenario has %d phases, pinned %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("observable order diverged in phase %d: running hash %#x, pinned %#x\nall phases: %#x", i, got[i], want[i], got)
		}
	}
}

// wireOrderNode is the scenario's one handler. Every node logs what it
// receives; the role flags say what it does next.
type wireOrderNode struct {
	sc   *wireOrderScenario
	node *Node
	tag  byte

	burst    int           // frames per timer firing (0: no timer)
	period   time.Duration // timer period
	out      []*Port       // timer sends rotate over these
	echo     map[int]int   // rx port index → frames echoed back out of it
	forward  map[int]*Port // rx port index → port the frame is sent on from
	zeroSend *Port         // every 4th rx schedules a zero-delay send here
	sent     uint32
	rxCount  int
}

func (n *wireOrderNode) Start() {
	if n.burst > 0 {
		n.node.Sim.After(n.period, n.fire)
	}
}

func (n *wireOrderNode) fire() {
	if n.burst == 0 {
		return // draining
	}
	for i := 0; i < n.burst; i++ {
		n.sc.tx(n.out[int(n.sent)%len(n.out)], n.sc.frame(n, 1250))
	}
	if n.sent%5 == 0 {
		n.sc.tx(n.out[0], n.sc.frame(n, 64)) // 512 ns: off the 10 µs grid
	}
	n.node.Sim.After(n.period, n.fire)
}

func (n *wireOrderNode) PortDown(p *Port) { n.sc.logf("down %v %s", n.sc.sim.Now(), p.Name()) }
func (n *wireOrderNode) PortUp(p *Port)   { n.sc.logf("up %v %s", n.sc.sim.Now(), p.Name()) }

func (n *wireOrderNode) HandleFrame(p *Port, f []byte) {
	sc := n.sc
	sc.logf("rx %v %s %x", sc.sim.Now(), p.Name(), f[:6])
	n.rxCount++
	if n.rxCount%3 == 0 {
		sc.snapshot() // every direction, read from inside a frame dispatch
	}
	if n.zeroSend != nil && n.rxCount%4 == 0 {
		sc.sim.Schedule(0, func() {
			sc.snapshot() // and from an event scheduled behind the dispatch frontier
			sc.tx(n.zeroSend, sc.frame(n, 125))
		})
	}
	if f[1] == 0 { // hop budget spent
		sc.sim.Frames().Put(f)
		return
	}
	f[1]--
	if to := n.forward[p.Index]; to != nil {
		sc.tx(to, f)
		return
	}
	if k := n.echo[p.Index]; k > 0 {
		for i := 1; i < k; i++ {
			c := sc.sim.Frames().Get(len(f))
			copy(c, f)
			sc.tx(p, c)
		}
		sc.tx(p, f)
		return
	}
	sc.sim.Frames().Put(f)
}

type wireOrderScenario struct {
	sim    *Sim
	h      hash.Hash64
	phases []uint64
	links  []*Link
}

func (sc *wireOrderScenario) logf(format string, args ...any) {
	fmt.Fprintf(sc.h, format+"\n", args...)
}

// frame draws a buffer whose first six bytes identify it: origin tag, hop
// budget, per-origin counter.
func (sc *wireOrderScenario) frame(n *wireOrderNode, size int) []byte {
	f := sc.sim.Frames().Get(size)
	n.sent++
	f[0], f[1] = n.tag, 2
	f[2], f[3], f[4], f[5] = byte(n.sent>>24), byte(n.sent>>16), byte(n.sent>>8), byte(n.sent)
	return f
}

// tx sends and logs the queue depth either side of the Send plus the
// direction's tail-drop counters.
func (sc *wireOrderScenario) tx(p *Port, f []byte) {
	before := p.Link.Stats(p)
	id := fmt.Sprintf("%x", f[:6])
	p.Send(f)
	after := p.Link.Stats(p)
	sc.logf("tx %v %s %s q %d>%d ovf %d/%d", sc.sim.Now(), p.Name(), id,
		before.Queued, after.Queued, after.Overflows, after.OverflowBytes)
}

// snapshot logs every direction's queue depth and counters.
func (sc *wireOrderScenario) snapshot() {
	for _, l := range sc.links {
		a, b := l.Stats(l.A), l.Stats(l.B)
		sc.logf("st %v %s q %d/%d ovf %d/%d lost %d/%d rxdrop %d/%d", sc.sim.Now(), l.A.Name(),
			a.Queued, b.Queued, a.Overflows, b.Overflows, a.Lost, b.Lost,
			l.A.Counters.RxDropped, l.B.Counters.RxDropped)
	}
}

func (sc *wireOrderScenario) endPhase() {
	sc.snapshot()
	sc.phases = append(sc.phases, sc.h.Sum64())
}

func runWireOrderScenario() []uint64 {
	const (
		gig    = 1_000_000_000
		absurd = 1 << 50 // 1250 B * 8 * 1e9 / 2^50 rounds to 0 ns
		us     = time.Microsecond
	)
	sc := &wireOrderScenario{sim: New(7), h: fnv.New64a()}
	s := sc.sim

	// Creation order fixes node ids, hence same-instant dispatch order: the
	// hub and relay are low, so frames reaching them from the senders at the
	// instant of transmission sort before the sender's own pending events.
	mk := func(name string, tag byte) *wireOrderNode {
		n := &wireOrderNode{sc: sc, node: s.AddNode(name), tag: tag, echo: map[int]int{}, forward: map[int]*Port{}}
		n.node.Handler = n
		return n
	}
	hub, relay := mk("hub", 0xA0), mk("relay", 0xA1)
	s1, s2, s3, s4 := mk("s1", 0xB1), mk("s2", 0xB2), mk("s3", 0xB3), mk("s4", 0xB4)
	zed := mk("zed", 0xC0)

	wire := func(a, b *wireOrderNode, lat time.Duration, bps int64, q int) *Link {
		l := s.ConnectLatency(a.node.AddPort(), b.node.AddPort(), lat)
		if bps > 0 {
			l.SetBandwidth(bps, q)
		}
		sc.links = append(sc.links, l)
		return l
	}
	l1 := wire(s1, hub, 10*us, gig, 8)     // hub:1
	wire(s2, hub, 10*us, gig, 8)           // hub:2
	l3 := wire(s3, hub, 20*us, gig, 4)     // hub:3
	wire(s4, relay, 10*us, gig, 8)         // relay:1
	wire(relay, hub, 10*us, gig, 4)        // relay:2, hub:4
	lz := wire(zed, hub, 10*us, absurd, 3) // zed:1, hub:5 — txTime 0
	wire(zed, relay, 0, absurd, 3)         // zed:2, relay:3 — txTime 0 and latency 0
	wire(s1, relay, 10*us, 0, 0)           // s1:2, relay:4 — unshaped
	lu := wire(s2, zed, 0, gig, 0)         // s2:2, zed:3 — unbounded queue, latency 0
	wire(s3, s4, 5*us, 8_000_000, 2)       // s3:2, s4:2 — slow: 1250 B take 1.25 ms
	wire(zed, hub, 0, absurd, 3)           // zed:4, hub:6 — txTime 0 and latency 0

	// Timer senders.
	s1.burst, s1.period, s1.out = 2, 10*us, []*Port{s1.node.Port(1), s1.node.Port(2)}
	s2.burst, s2.period, s2.out = 3, 20*us, []*Port{s2.node.Port(1), s2.node.Port(2)}
	s3.burst, s3.period, s3.out = 1, 10*us, []*Port{s3.node.Port(1), s3.node.Port(2)}
	s4.burst, s4.period, s4.out = 2, 30*us, []*Port{s4.node.Port(1)}
	zed.burst, zed.period, zed.out = 2, 40*us, []*Port{zed.node.Port(1), zed.node.Port(2)}

	// Frame-handler senders.
	hub.echo[1], hub.echo[3], hub.echo[5] = 1, 2, 5 // five at once into a 3-deep, 0 ns queue
	relay.forward[1] = relay.node.Port(2)
	relay.forward[4] = relay.node.Port(2)
	relay.echo[3] = 2                 // straight back over the zero-latency wire
	zed.forward[2] = zed.node.Port(4) // relay → zed → hub within one instant
	zed.echo[3] = 1
	zed.zeroSend = zed.node.Port(1)
	hub.zeroSend = hub.node.Port(2)
	s1.zeroSend = s1.node.Port(1)

	s.Start()

	rng := rand.New(rand.NewSource(11))
	ctl := &wireOrderNode{sc: sc, tag: 0xEE} // frames sent from control context
	steps := []time.Duration{10 * us, 10 * us, 5 * us, 0, 10 * us, 20 * us, 10 * us}
	run := func(n int, each func(i int)) {
		for i := 0; i < n; i++ {
			s.RunFor(steps[i%len(steps)])
			sc.snapshot()
			if each != nil {
				each(i)
			}
		}
	}
	control := func(i int) {
		switch i % 6 {
		case 0: // straight from the harness
			sc.tx(s1.node.Port(1), sc.frame(ctl, 1250))
			sc.tx(zed.node.Port(1), sc.frame(ctl, 1250))
			sc.tx(zed.node.Port(1), sc.frame(ctl, 1250))
		case 2: // a control event on the 10 µs grid, and one at this instant
			d := time.Duration(1+rng.Intn(3)) * 10 * us
			s.At(s.Now()+d, func() { sc.tx(s2.node.Port(1), sc.frame(ctl, 1250)) })
			s.Schedule(0, func() { sc.tx(zed.node.Port(2), sc.frame(ctl, 125)) })
			sc.tx(zed.node.Port(2), sc.frame(ctl, 125))
		case 4: // off the grid, from the harness again
			s.RunFor(3*us + 7)
			sc.tx(s3.node.Port(1), sc.frame(ctl, 64))
			sc.tx(zed.node.Port(2), sc.frame(ctl, 64))
			sc.snapshot()
		}
	}

	run(60, control)
	sc.endPhase() // 0: clean wires

	l3.Impair(s3.node.Port(1), Impairment{Jitter: 35 * us})
	lu.Impair(s2.node.Port(2), Impairment{Jitter: 15 * us})
	run(60, control)
	sc.endPhase() // 1: jitter reorders arrivals

	l3.Impair(s3.node.Port(1), Impairment{ExtraLatency: 40 * us})
	run(20, control)
	l3.Impair(s3.node.Port(1), Impairment{}) // later frames now overtake the delayed ones
	lz.Impair(hub.node.Port(5), Impairment{ExtraLatency: 25 * us, Jitter: 5 * us})
	run(40, control)
	sc.endPhase() // 2: ExtraLatency set and cleared

	l1.Latency = 3 * us // shorter mid-run: new frames overtake those in flight
	l3.SetFluidLoad(s3.node.Port(1), gig/3, s.Now())
	run(30, control)
	l1.Latency = 10 * us
	lz.Impair(hub.node.Port(5), Impairment{})
	l3.SetFluidLoad(s3.node.Port(1), 0, s.Now())
	run(20, control)
	sc.endPhase() // 3: Latency changed mid-run, a fluid reservation slows the serializer

	hub.node.Port(2).Fail()
	run(10, control)
	relay.node.Port(2).Fail()
	run(20, control)
	hub.node.Port(2).Restore()
	relay.node.Port(2).Restore()
	run(40, control)
	sc.endPhase() // 4: Fail / Restore with frames in flight

	// Drain: stop offering, let every queue empty.
	for _, n := range []*wireOrderNode{s1, s2, s3, s4, zed} {
		n.burst = 0
	}
	run(40, nil)
	s.RunFor(10 * time.Millisecond)
	sc.logf("end %v inuse %d", s.Now(), s.FrameStats().InUse)
	sc.endPhase() // 5: drained
	return sc.phases
}
