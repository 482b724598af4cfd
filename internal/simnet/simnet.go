// Package simnet is a deterministic discrete-event network simulator.
//
// It stands in for the FABRIC testbed used in the paper: nodes are virtual
// machines, ports are their network interfaces, and links are the
// point-to-point fiber connections between them. Time is virtual — the event
// loop advances a microsecond-resolution clock from event to event — so a
// three-second BGP hold timer costs nothing to simulate and every run with
// the same seed is bit-for-bit reproducible.
//
// The failure model mirrors the paper's method of failing an interface with
// a script executed on the target node (`ip link set X down`): the node that
// owns the failed interface observes carrier-down after a small local
// detection delay, while the peer's interface stays up and the peer learns
// of the failure only through protocol timers. This asymmetry is what makes
// the paper's TC1/TC3 failure points behave differently from TC2/TC4.
package simnet

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/invariant"
	"repro/internal/netaddr"
	"repro/internal/simnet/framepool"
)

// Handler is the protocol stack attached to a node. All methods are invoked
// from the simulator's event loop; implementations never block and schedule
// future work through the node's simulator.
type Handler interface {
	// Start runs when the simulation begins (or when the handler is
	// attached to an already-running simulation).
	Start()
	// HandleFrame delivers a received Ethernet frame. The slice is owned
	// by the receiver.
	HandleFrame(p *Port, frame []byte)
	// PortDown reports local carrier loss on p (admin-down or failure
	// injection on this node). It is NOT called on the remote peer.
	PortDown(p *Port)
	// PortUp reports local carrier restoration on p.
	PortUp(p *Port)
}

// LocalDetectDelay is the time between an interface failure and the owning
// node's PortDown callback (carrier-loss interrupt latency).
const LocalDetectDelay = 1 * time.Millisecond

// Sim is a single simulation instance. It is not safe for concurrent use;
// all protocol code runs on the event loop goroutine.
type Sim struct {
	now       time.Duration
	wires     eventHeap  // the queue (event.go), by horizon: the records of busy link directions,
	batch     batch      // those going busy for one later instant, then their run,
	near      eventHeap  // the timers of the calendar's current bin and before,
	nearRun   run        // a bin of them in arm order, merged,
	cal       calendar   // and the timers of later bins
	free      []*event   // recycled event records
	frontier  []passMark // how far dispatch has got in the (at, prio, sub) order (see passMark)
	seq       uint64
	seed      int64 // base seed; derives the per-node and per-direction streams
	rng       *stream
	nodes     map[string]*Node
	nodeOrder []*Node // insertion order, for deterministic iteration
	links     []*Link

	// frames recycles frame buffers on the TX/RX paths. Buffers are zeroed
	// on Get, so a pooled buffer is indistinguishable from a fresh make and
	// recycling cannot perturb simulation output.
	frames *framepool.Pool
	// drained lists the link directions that drained holding a grown flight
	// buffer, for the next direction that fills to take it (flightBuf). A
	// fork starts with none.
	drained []*dirState

	// curOwner is the node whose event is being dispatched (-1 outside
	// dispatch, i.e. control context). Schedules inherit it as their
	// ordering key (see orderKey).
	curOwner int32

	// DefaultLatency is the one-way propagation delay applied to links
	// created without an explicit latency.
	DefaultLatency time.Duration

	events uint64 // total events processed, for stats

	// forker is the forker of the last fork into s, kept for the next one
	// (Fork). released marks s handed back for such a fork (Release).
	forker   Forker
	released bool
}

// New creates a simulator seeded for deterministic runs.
func New(seed int64) *Sim {
	return &Sim{
		seed:           seed,
		rng:            newStream(seed),
		nodes:          make(map[string]*Node),
		frames:         framepool.New(),
		DefaultLatency: 100 * time.Microsecond,
		curOwner:       -1,
	}
}

// streamSeed derives an independent deterministic stream seed from the
// simulation seed and a stable name (FNV-1a). Per-node and per-direction
// streams make a node's or direction's draws depend only on its own event
// order, not on how the rest of the fabric interleaves with it.
func streamSeed(base int64, name string, salt uint64) int64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	h ^= salt * 0x9e3779b97f4a7c15
	return base ^ int64(h)
}

// Now returns the current virtual time (time since simulation start).
func (s *Sim) Now() time.Duration { return s.now }

// Rand exposes the simulation's deterministic random source.
func (s *Sim) Rand() *rand.Rand { return s.rng.rand() }

// Events returns the number of events dispatched so far: timer and control
// callbacks and frame deliveries, i.e. the times Step returned true. An
// egress-queue slot coming free on a shaped link is accounted, not
// dispatched (see passMark), and is not counted; a fabric of unshaped links
// never had such events, so its count is what it always was.
func (s *Sim) Events() uint64 { return s.events }

// Frames returns the simulation's frame-buffer pool. Protocol stacks draw
// TX buffers from it and return provably-dead buffers; the ownership rules
// are enforced at runtime under -tags invariants (DESIGN.md §13).
func (s *Sim) Frames() *framepool.Pool { return s.frames }

// FrameStats reports the frame pool's occupancy counters.
func (s *Sim) FrameStats() framepool.Stats { return s.frames.Stats() }

// Node is one device: a router, switch, or server.
type Node struct {
	Name    string
	Sim     *Sim
	Ports   []*Port // index 0 unused; ports are 1-based like the paper's VID port numbers
	Handler Handler

	// id is the node's rank in creation order: the heap ordering key, the
	// source component of frame tie keys, and the seed of its ports' MACs.
	id int32

	rng *stream // lazily built per-node stream (see Rand)

	// fwdClock is the node's forwarding-state clock (ForwardingStamp).
	fwdClock uint64
}

// AddNode creates a node. Names must be unique.
func (s *Sim) AddNode(name string) *Node {
	if _, dup := s.nodes[name]; dup {
		panic("simnet: duplicate node name " + name)
	}
	id := int32(len(s.nodeOrder))
	n := &Node{Name: name, Sim: s, Ports: []*Port{nil}, id: id, fwdClock: 1}
	s.nodes[name] = n
	s.nodeOrder = append(s.nodeOrder, n)
	return n
}

// Rand returns the node's private deterministic random stream, derived from
// the simulation seed and the node name. Protocol code (BFD jitter, TCP
// initial sequence numbers) draws from it instead of the simulation-wide
// source, so draw sequences depend only on the node's own event order.
func (n *Node) Rand() *rand.Rand {
	if n.rng == nil {
		n.rng = newStream(streamSeed(n.Sim.seed, n.Name, 0))
	}
	return n.rng.rand()
}

// ForwardingChanged records a change to anything the node's forwarding
// decisions read: its protocol's tables, its neighbour cache, and its own
// ports' carrier, which Port.Fail and Port.Restore record at the instant
// Port.Up changes its answer, LocalDetectDelay before a handler hears of it.
// Every writer of such state calls it.
func (n *Node) ForwardingChanged() { n.fwdClock++ }

// ForwardingStamp is the node's forwarding-state clock: it starts at 1 and
// moves exactly when ForwardingChanged is called, so a decision memoised at
// one stamp holds while the stamp stands still, and 0 is free to mean "never
// filled".
func (n *Node) ForwardingStamp() uint64 { return n.fwdClock }

// Node returns a node by name, or nil.
func (s *Sim) Node(name string) *Node { return s.nodes[name] }

// Nodes returns every node in insertion order, so iteration (trace output,
// harness sweeps) is reproducible run to run.
func (s *Sim) Nodes() []*Node {
	return append([]*Node(nil), s.nodeOrder...)
}

// AddPort appends a new port to the node and returns it. Port indices start
// at 1 to match the paper's VID construction ("append the port number on
// which the request arrived"). The MAC derives from the node's rank and the
// port index, so addresses depend only on node creation order (which
// harness.Build fixes by sorting names), not on the order ports are added
// across nodes.
func (n *Node) AddPort() *Port {
	idx := len(n.Ports)
	p := &Port{
		Node:  n,
		Index: idx,
		MAC:   netaddr.MAC{0x02, byte(uint32(n.id) >> 8), byte(uint32(n.id)), byte(idx >> 8), byte(idx), 0x01},
		up:    true,
	}
	n.Ports = append(n.Ports, p)
	return p
}

// Port returns the i-th (1-based) port. It panics on a bad index because
// topology wiring is static.
func (n *Node) Port(i int) *Port {
	if i < 1 || i >= len(n.Ports) {
		panic(fmt.Sprintf("simnet: node %s has no port %d", n.Name, i))
	}
	return n.Ports[i]
}

// Start invokes Start on every attached handler. Call once after wiring.
func (s *Sim) Start() {
	// Deterministic order: nodes sorted by name. Each handler starts in its
	// own node's context so its initial timers carry that node's key.
	sorted := s.Nodes()
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	for _, n := range sorted {
		if n.Handler != nil {
			s.curOwner = n.id
			n.Handler.Start()
		}
	}
	s.curOwner = -1
}

// PortCounters tracks per-port frame statistics.
type PortCounters struct {
	TxFrames  uint64
	TxBytes   uint64
	RxFrames  uint64
	RxBytes   uint64
	TxDropped uint64 // transmit attempts while the port or link was down
	RxDropped uint64 // frames arriving at a down port
}

// Port is a network interface on a node.
type Port struct {
	Node  *Node
	Index int
	MAC   netaddr.MAC
	Link  *Link
	up    bool

	Counters PortCounters
}

// Name renders the paper-style interface name ("T-1:eth2").
func (p *Port) Name() string { return fmt.Sprintf("%s:eth%d", p.Node.Name, p.Index) }

// Up reports local carrier status.
func (p *Port) Up() bool { return p.up }

// Peer returns the port at the other end of the link, or nil when unwired.
func (p *Port) Peer() *Port {
	if p.Link == nil {
		return nil
	}
	if p.Link.A == p {
		return p.Link.B
	}
	return p.Link.A
}

// Send transmits an Ethernet frame out the port. Frames hitting a down port
// or unwired port are counted and dropped; otherwise delivery is scheduled
// after the link latency and checked against the receiving port's status at
// arrival time (frames in flight when a failure hits are lost).
//
// Send takes ownership of frame: the slice rides in the direction's flight
// ring until delivery, so the caller must neither retain nor modify it
// afterwards. A write shows in the bytes delivered, and a Put before the
// delivery panics under -tags invariants (DESIGN.md §13).
func (p *Port) Send(frame []byte) {
	sim := p.Node.Sim
	if !p.up || p.Link == nil {
		p.Counters.TxDropped++
		sim.frames.Put(frame) // dropped at the transmitter: no one else holds it
		return
	}
	p.Counters.TxFrames++
	p.Counters.TxBytes += uint64(len(frame))
	link := p.Link
	d := link.dir(p)
	for _, tap := range link.taps {
		tap(sim.now, p, frame)
	}
	// Per-direction impairments (the one fault-injection path): the flag
	// check keeps the unimpaired TX path free of extra RNG draws, so clean
	// runs consume no randomness at all. Draws come from the direction's
	// private stream, so loss decisions depend only on this direction's
	// transmit order — not on global event interleaving. Taps have already
	// copied what they keep, so a dropped frame goes straight back.
	jitter := time.Duration(0)
	if d.impaired {
		if d.imp.Down {
			d.lost++
			sim.frames.Put(frame)
			return
		}
		if d.imp.LossRate > 0 && d.rand(p).Float64() < d.imp.LossRate {
			d.lost++
			sim.frames.Put(frame)
			return
		}
		if d.imp.CorruptRate > 0 && d.rand(p).Float64() < d.imp.CorruptRate {
			// Flip one random byte: the receiver sees a parseable-or-not
			// frame, exactly as a gray link delivers bit errors past a
			// checksumless MAC.
			frame[d.rand(p).Intn(len(frame))] ^= 0xFF
			d.corrupted++
		}
		jitter = d.imp.ExtraLatency
		if d.imp.Jitter > 0 {
			jitter += time.Duration(d.rand(p).Int63n(int64(d.imp.Jitter)))
		}
	}
	// Serialization and queueing: with finite bandwidth the frame waits
	// behind earlier frames, then occupies the wire for its bit time.
	delay := link.Latency + jitter
	if link.bandwidth > 0 {
		// Reading the depth also expires the releases the order has passed,
		// which is what keeps an unbounded queue's ring from growing.
		q := sim.queued(d)
		if invariant.Enabled {
			invariant.Assert(q >= 0 && (link.maxQueue == 0 || q <= link.maxQueue), "simnet: egress-queue depth outside [0, maxQueue] (or the bound was lowered under a backlog)")
		}
		if link.maxQueue > 0 && q >= link.maxQueue {
			d.overflows++
			d.overflowBytes += uint64(len(frame))
			sim.frames.Put(frame)
			return
		}
		// The serializer runs on the capacity left after the fluid
		// engine's reservation (hybrid runs only; fluidBps is 0
		// otherwise, keeping pure packet runs bit-identical). The floor
		// keeps a fully reserved direction trickling instead of
		// dividing by zero: the fluid solver models packet demand too,
		// so a reservation this tight means the allocator was told of
		// no packet flows here.
		bps := link.bandwidth
		if d.fluidBps > 0 {
			bps -= d.fluidBps
			if floor := link.bandwidth >> 7; bps < floor {
				bps = floor
			}
			if bps < 1 {
				bps = 1
			}
		}
		txTime := time.Duration(int64(len(frame)) * 8 * int64(time.Second) / bps)
		start := sim.now
		if d.busyUntil > start {
			start = d.busyUntil
		}
		d.busyUntil = start + txTime
		delay = d.busyUntil - sim.now + link.Latency + jitter
		// The slot frees when the frame has left: the key of the local
		// event that used to say so, in the sender's context.
		sim.seq++
		d.rel.push(relKey{at: d.busyUntil, prio: sim.ctxPrio(), seq: sim.seq}, link.maxQueue)
	}
	// The delivery is keyed to the dst node's frame class, tied by (src
	// node, src port, per-direction tx counter) — see orderKey. It joins
	// the direction's flight ring, and draws a seq as any scheduled event.
	at := sim.now + delay
	if at < sim.now {
		panic(fmt.Sprintf("simnet: frame on %s would arrive at %v, before now %v", p.Name(), at, sim.now))
	}
	d.txSeq++
	sim.seq++
	tie := uint64(uint32(p.Node.id))<<40 | uint64(uint16(p.Index))<<32 | uint64(d.txSeq)
	var fh framepool.Handle
	if invariant.Enabled {
		// Snapshot the buffer's pool generation: Step re-checks it at
		// delivery time, catching a Put while the frame was in flight.
		fh = sim.frames.Handle(frame)
	}
	sim.launch(d, at, tie, frame, fh)
}

// deliver completes a frame's flight: the receiving port's status is checked
// at arrival time, so frames in flight when a failure hits are lost.
func (s *Sim) deliver(src, dst *Port, link *Link, frame []byte) {
	if !dst.up || !src.up || src.Link != link {
		dst.Counters.RxDropped++
		s.frames.Put(frame)
		return
	}
	dst.Counters.RxFrames++
	dst.Counters.RxBytes += uint64(len(frame))
	if dst.Node.Handler == nil {
		s.frames.Put(frame) // nobody to own it: the frame dies here
		return
	}
	dst.Node.Handler.HandleFrame(dst, frame)
}

// Fail injects an interface failure on this port, as the paper's bash
// script does with `ip link set down` on the target node: the local node
// gets PortDown LocalDetectDelay later; the peer notices nothing at the
// physical layer.
func (p *Port) Fail() {
	if !p.up {
		return
	}
	p.up = false
	p.Node.ForwardingChanged()
	p.Node.Sim.Schedule(LocalDetectDelay, func() {
		if p.Node.Handler != nil && !p.up {
			p.Node.Handler.PortDown(p)
		}
	})
}

// Restore brings a failed port back up and notifies the local handler.
func (p *Port) Restore() {
	if p.up {
		return
	}
	p.up = true
	p.Node.ForwardingChanged()
	p.Node.Sim.Schedule(LocalDetectDelay, func() {
		if p.Node.Handler != nil && p.up {
			p.Node.Handler.PortUp(p)
		}
	})
}

// CarrierFault reports carrier loss to the owning node's handler WITHOUT
// administratively downing the port: the node reacts as if the interface
// died (its receiver lost light) while its own transmitter keeps working
// and the peer sees nothing. Combined with a Down impairment on the
// peer-to-here direction this models a one-way fiber cut that only this
// endpoint can see — the gray failure mode where protocols relying on
// symmetric liveness (one-way hellos) diverge from ones that echo state
// (BFD). A port that is already administratively down reports nothing.
func (p *Port) CarrierFault() {
	sim := p.Node.Sim
	sim.Schedule(LocalDetectDelay, func() {
		if p.Node.Handler != nil && p.up {
			p.Node.Handler.PortDown(p)
		}
	})
}

// CarrierRestore reports carrier recovery after a CarrierFault.
func (p *Port) CarrierRestore() {
	sim := p.Node.Sim
	sim.Schedule(LocalDetectDelay, func() {
		if p.Node.Handler != nil && p.up {
			p.Node.Handler.PortUp(p)
		}
	})
}

// CaptureFunc observes a frame at transmit time: the timestamped capture
// hook used by the tshark-equivalent in internal/capture.
type CaptureFunc func(at time.Duration, from *Port, frame []byte)

// Link is a full-duplex point-to-point connection between two ports.
type Link struct {
	A, B    *Port
	Latency time.Duration
	taps    []CaptureFunc

	// bandwidth, when nonzero, serializes frames at this many bits per
	// second per direction; frames queue FIFO behind the transmitter.
	bandwidth int64
	// maxQueue bounds the per-direction egress queue in frames; beyond
	// it frames tail-drop (counted per direction). 0 means unbounded.
	maxQueue int

	// Per-direction transmitter state, keyed by the sending port; Link.Stats
	// reports loss, corruption and overflow per direction.
	dirA, dirB dirState
}

type dirState struct {
	// The wire: frames in flight in delivery order, and the one heap record
	// that stands for whichever is due next (wire.go).
	fly      flightRing
	ev       event
	src, dst *Port
	link     *Link
	prio     uint32 // dst node's frame class: the same for every frame

	busyUntil     time.Duration
	rel           relRing // egress-queue releases not yet passed: the queue depth
	overflows     uint64
	overflowBytes uint64

	// imp is the direction's fault profile; impaired caches imp != zero so
	// the clean TX path pays one flag test and no extra RNG draws.
	imp       Impairment
	impaired  bool
	lost      uint64
	corrupted uint64

	// fluidBps is the bandwidth currently reserved by the fluid engine's
	// aggregate share on this direction; the packet serializer runs on
	// the residual. fluidBytes integrates the bytes the reservation
	// carried up to fluidAt (rates are piecewise-constant, so the
	// integral is exact).
	fluidBps   int64
	fluidBytes uint64
	fluidAt    time.Duration

	// rng is the direction's private stream for loss/corruption/jitter
	// draws, lazily derived from (sim seed, sending port).
	rng *stream
	// txSeq counts scheduled transmissions: the per-direction component of
	// the frame tie key.
	txSeq uint32
	// listed reports that the direction is in Sim.drained.
	listed bool
}

// rand returns the direction's private stream, creating it on first use.
func (d *dirState) rand(from *Port) *rand.Rand {
	if d.rng == nil {
		d.rng = newStream(streamSeed(from.Node.Sim.seed, from.Node.Name, uint64(from.Index)+1))
	}
	return d.rng.rand()
}

// Rand returns the private stream of the direction transmitting from p:
// its loss, corruption and jitter draws.
func (l *Link) Rand(from *Port) *rand.Rand { return l.dir(from).rand(from) }

// Impairment is a per-direction fault profile: every field applies to
// frames transmitted in one direction of a link, leaving the reverse
// direction untouched. The zero value is a clean wire.
type Impairment struct {
	// LossRate drops each frame with this probability (asymmetric gray
	// loss when set on one direction only).
	LossRate float64
	// CorruptRate flips one random byte of each surviving frame with this
	// probability (bit errors past a checksumless MAC).
	CorruptRate float64
	// ExtraLatency delays every frame by this much on top of the link
	// latency.
	ExtraLatency time.Duration
	// Jitter adds a uniform random delay in [0, Jitter) per frame; enough
	// of it reorders frames.
	Jitter time.Duration
	// Down blackholes the direction entirely: a one-way fiber cut. Both
	// ports stay administratively up, so neither endpoint sees a
	// carrier event — pair with Port.CarrierFault on the receiving end
	// for the variant where that endpoint's optics raise an alarm.
	Down bool
}

// active reports whether any fault is configured.
func (i Impairment) active() bool { return i != Impairment{} }

// Impair installs the fault profile on the direction transmitting from p.
// The zero Impairment clears the direction.
func (l *Link) Impair(from *Port, imp Impairment) {
	d := l.dir(from)
	d.imp = imp
	d.impaired = imp.active()
}

// Impaired returns the direction's current fault profile.
func (l *Link) Impaired(from *Port) Impairment { return l.dir(from).imp }

// LinkStats is a snapshot of one transmit direction of a link: the egress
// queue owned by the sending port. The workload telemetry samples it over
// time; the counters are cumulative since the link was created.
type LinkStats struct {
	// Queued is the number of frames waiting in (or occupying) the
	// serializer right now.
	Queued int
	// Overflows counts frames tail-dropped because the egress queue was
	// full, and OverflowBytes their total size.
	Overflows     uint64
	OverflowBytes uint64
	// Lost counts frames dropped in this direction by loss injection
	// (impairment loss or a one-way Down).
	Lost uint64
	// Corrupted counts frames that had a byte flipped in this direction.
	Corrupted uint64
	// FluidBps is the bandwidth currently reserved by the fluid engine on
	// this direction (0 in pure packet runs).
	FluidBps int64
}

// Stats returns the egress counters for the direction transmitting from p.
// Links without a bandwidth cap never queue or tail-drop, so those fields
// stay zero; Lost and Corrupted count loss/corruption injection and move
// on any link carrying an impairment.
func (l *Link) Stats(from *Port) LinkStats {
	d := l.dir(from)
	return LinkStats{
		Queued: from.Node.Sim.queued(d), Overflows: d.overflows, OverflowBytes: d.overflowBytes,
		Lost: d.lost, Corrupted: d.corrupted, FluidBps: d.fluidBps,
	}
}

// Bandwidth returns the link's per-direction capacity in bits per second
// (0 for an ideal, unshaped link).
func (l *Link) Bandwidth() int64 { return l.bandwidth }

// SetBandwidth models link capacity: frames serialize at bps bits per
// second per direction and queue FIFO (tail-dropping beyond maxQueue
// frames; maxQueue 0 leaves the queue unbounded). bps 0 restores the
// ideal infinite-capacity link.
func (l *Link) SetBandwidth(bps int64, maxQueue int) {
	l.bandwidth = bps
	l.maxQueue = maxQueue
}

// SetFluidLoad reserves bps of this direction's capacity for the fluid
// engine's aggregate share: the packet serializer runs on the residual
// (see Send), and the reservation's carried bytes integrate into
// FluidBytes. at is the instant of the change.
func (l *Link) SetFluidLoad(from *Port, bps int64, at time.Duration) {
	d := l.dir(from)
	d.integrateFluid(at)
	d.fluidBps = bps
}

// FluidBytes returns the bytes the direction's fluid reservation has
// carried up to the instant at (monotone in at).
func (l *Link) FluidBytes(from *Port, at time.Duration) uint64 {
	d := l.dir(from)
	d.integrateFluid(at)
	return d.fluidBytes
}

// integrateFluid folds the interval since the last change at the previous
// (piecewise-constant) rate into the byte integral.
func (d *dirState) integrateFluid(at time.Duration) {
	if at <= d.fluidAt {
		return
	}
	if d.fluidBps > 0 {
		d.fluidBytes += uint64(int64(at-d.fluidAt) * d.fluidBps / (8 * int64(time.Second)))
	}
	d.fluidAt = at
}

func (l *Link) dir(from *Port) *dirState {
	if from == l.A {
		return &l.dirA
	}
	return &l.dirB
}

// Connect wires two ports with the default latency.
func (s *Sim) Connect(a, b *Port) *Link { return s.ConnectLatency(a, b, s.DefaultLatency) }

// ConnectLatency wires two ports with an explicit one-way latency.
func (s *Sim) ConnectLatency(a, b *Port, latency time.Duration) *Link {
	if a.Link != nil || b.Link != nil {
		panic(fmt.Sprintf("simnet: port already wired: %s <-> %s", a.Name(), b.Name()))
	}
	if a.Node == b.Node {
		panic("simnet: cannot connect a node to itself")
	}
	l := &Link{A: a, B: b, Latency: latency}
	l.dirA.wire(l, a, b)
	l.dirB.wire(l, b, a)
	a.Link = l
	b.Link = l
	s.links = append(s.links, l)
	return l
}

// Links returns every link created so far.
func (s *Sim) Links() []*Link { return s.links }

// Tap registers a capture hook on the link; it sees frames from both
// directions at their transmit timestamps.
func (l *Link) Tap(fn CaptureFunc) { l.taps = append(l.taps, fn) }
