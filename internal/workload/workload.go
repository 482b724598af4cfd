// Package workload drives a flow-level traffic mix through the simulator
// and measures what the DCN load-balancing literature (FatPaths and the
// multipathing surveys in PAPERS.md) judges routing designs by: per-flow
// completion time and the balance of bytes across equal-cost uplinks.
//
// The generator is open-loop: flows arrive by a Poisson process whether or
// not the fabric keeps up, sized by a heavy-tailed distribution, and each
// flow's packets are paced independently. Loss repair is a deliberately
// idealized SACK — the sender re-offers exactly the missing sequences one
// RTO after its last transmission, with zero feedback traffic — so flow
// completion times measure the *fabric's* recovery (hashing, reconvergence,
// queueing), not a transport implementation's.
package workload

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"repro/internal/fluid"
	"repro/internal/invariant"
	"repro/internal/ipstack"
	"repro/internal/netaddr"
	"repro/internal/simnet"
	"repro/internal/udp"
)

// Magic identifies workload data packets ("FLOW").
const Magic uint32 = 0x464c4f57

// wireHeaderLen is the data-packet header: magic + flow ID + sequence +
// total packet count, all big-endian u32.
const wireHeaderLen = 16

// Mode selects how generated flows are simulated.
type Mode int

const (
	// ModePacket sends every packet of every flow through the fabric —
	// full fidelity, bounded scale.
	ModePacket Mode = iota
	// ModeFluid models every flow analytically with max-min fair-share
	// rates — flow counts far beyond the packet engine's reach, no
	// per-packet effects.
	ModeFluid
	// ModeHybrid routes each flow by fidelity need: short flows (below
	// Config.FluidCutoff) and flows predicted to overlap the fault
	// window ride the packet path; the long tail goes fluid, with the
	// two coupled through shared link capacity.
	ModeHybrid
)

// String names the mode as the CLI flag spells it.
func (m Mode) String() string {
	switch m {
	case ModeFluid:
		return "fluid"
	case ModeHybrid:
		return "hybrid"
	default:
		return "packet"
	}
}

// ModeByName parses a CLI mode name.
func ModeByName(name string) (Mode, bool) {
	switch name {
	case "packet":
		return ModePacket, true
	case "fluid":
		return ModeFluid, true
	case "hybrid":
		return ModeHybrid, true
	}
	return ModePacket, false
}

// PathFunc resolves a flow's current forwarding path without sending a
// packet: the directed fluid links it crosses and the path's fixed latency
// offset (propagation plus per-hop store-and-forward of one packet). The
// harness implements it by replaying the protocols' own next-hop decisions.
type PathFunc func(f *Flow) (path []fluid.LinkID, latency time.Duration, ok bool)

// Host is one traffic endpoint: a server's stack plus the labels the
// pairing patterns need.
type Host struct {
	Stack *ipstack.Stack
	IP    netaddr.IPv4
	Name  string
	Rack  string // hosts sharing a ToR; cross-rack patterns never pair within one
}

// Config parameterizes a workload run.
type Config struct {
	Pattern Pattern
	Sizes   SizeDist
	// Flows is the total number of flows to launch.
	Flows int
	// MeanArrival is the mean inter-arrival gap of the Poisson process.
	MeanArrival time.Duration
	// RTO is the repair-round timer: one RTO after its last transmission
	// an incomplete flow re-offers its missing sequences.
	RTO time.Duration
	// MaxRounds bounds repair rounds before a flow is abandoned.
	MaxRounds int
	// Seed drives every random choice (arrivals, sizes, pairing).
	Seed int64

	// Mode selects the engine; the fields below only matter outside
	// ModePacket.
	Mode Mode
	// FluidCutoff demotes flows smaller than this many bytes to the
	// packet path (ModeHybrid).
	FluidCutoff int
	// RateInterval is the fluid solver's rate-recomputation cadence
	// (default 5ms).
	RateInterval time.Duration
	// DemoteFrom/DemoteUntil bound the fault window as offsets from
	// Start: ModeHybrid demotes flows whose predicted lifetime overlaps
	// it, keeping packet fidelity where reconvergence dynamics matter.
	// Zero values mean no window.
	DemoteFrom  time.Duration
	DemoteUntil time.Duration
	// Solver is the shared fluid rate allocator, its links pre-registered
	// by the harness; PathOf resolves flow paths onto those links. Both
	// are required outside ModePacket.
	Solver *fluid.Solver
	PathOf PathFunc
}

// The packet engine's framing, shared by every run.
const (
	// PacketSize is the UDP payload carried per data packet.
	PacketSize = 1000
	// PacketInterval paces consecutive packets of one flow.
	PacketInterval = 120 * time.Microsecond
	// DstPort is the well-known workload port every host listens on.
	DstPort uint16 = 49000
)

// DefaultConfig is the mix the harness experiments run: websearch sizes on
// the random pattern at a load that keeps a 2-PoD fabric busy but stable.
func DefaultConfig(seed int64) Config {
	return Config{
		Pattern:     PatternRandom,
		Sizes:       WebSearchMix(),
		Flows:       160,
		MeanArrival: 8 * time.Millisecond,
		RTO:         100 * time.Millisecond,
		MaxRounds:   60,
		Seed:        seed,
	}
}

// Flow is one generated transfer: one slot of the engine's schedule, which is
// a slice of values. Schedule fields are fixed at generation; the rest fill
// in as the simulation runs.
//
// The slot holds no pointer and takes 32 bytes, so a million-flow schedule
// is one allocation the collector never scans. It stores only what cannot
// be derived: a flow's ID is its index plus one, which the engine passes
// beside the slot; its packet count follows from Bytes; and a flow launches
// at exactly base+Start (Start schedules packet launches there and fluid
// admissions are backdated to it), so the launch instant is not stored
// either.
type Flow struct {
	Start time.Duration // offset from Engine.Start, the launch instant
	FCT   time.Duration // valid when Done
	Bytes int32
	// pkt is the flow's packet-path state as a 1-based index into
	// Engine.pkts, set by launch; 0 means none — a million fluid flows carry
	// no packet-runtime state.
	pkt      int32
	Src, Dst uint16 // host indices
	SrcPort  uint16
	state    flowState
}

// flowState is a flow's four flags in one byte.
type flowState uint8

const (
	flowFluid     flowState = 1 << iota // routed through the fluid model (decided at generation)
	flowLaunched                        // its launch instant has passed
	flowDone                            // completed; FCT is valid
	flowAbandoned                       // given up: no path, or MaxRounds spent
)

// Packets is the number of data packets that carry the flow's bytes.
func (f *Flow) Packets() int { return (int(f.Bytes) + PacketSize - 1) / PacketSize }

// Done reports whether the flow completed.
func (f *Flow) Done() bool { return f.state&flowDone != 0 }

// Abandoned reports whether the flow was given up. A straggler can still
// complete a flow its sender abandoned, so a flow can be both.
func (f *Flow) Abandoned() bool { return f.state&flowAbandoned != 0 }

func (f *Flow) fluid() bool    { return f.state&flowFluid != 0 }
func (f *Flow) launched() bool { return f.state&flowLaunched != 0 }
func (f *Flow) finished() bool { return f.state&(flowDone|flowAbandoned) != 0 }

// packetState is a packet-path flow's sender and receiver runtime. Every one
// is a slot of Engine.pkts, and its gotMask a run of Engine.masks, both
// sized by New.
type packetState struct {
	// The send queue is the first pass, a counter (sequences next..Packets-1
	// have not been offered yet), followed by the current repair round:
	// repair[head:]. The repair slice is refilled in place each RTO.
	next     uint32
	repair   []uint32
	head     int
	rounds   int
	received int
	dups     int // arrivals of sequences already delivered
	gotMask  []uint64
	timer    *simnet.Timer
}

// maskWords is the length of the flow's receive bitmap, a bit per packet.
func (f *Flow) maskWords() int { return (f.Packets() + 63) / 64 }

func (ps *packetState) got(seq uint32) bool { return ps.gotMask[seq/64]&(1<<(seq%64)) != 0 }
func (ps *packetState) mark(seq uint32)     { ps.gotMask[seq/64] |= 1 << (seq % 64) }

// Engine generates, transmits and accounts a workload over one simulation.
type Engine struct {
	sim   *simnet.Sim
	hosts []Host
	cfg   Config
	flows []Flow // the schedule in generation (and Start) order; never grows after New
	// pkts holds the packet-path flows' state in launch order: made by New
	// with room for every packet-path flow, so that launch appends without
	// moving a slot. masks is the receive bitmaps New made for them all,
	// which launch carves from the front.
	pkts  []packetState
	masks []uint64

	base    time.Duration // virtual time of Start
	started bool

	// Fluid-engine state. cursor walks the Start-sorted schedule so fluid
	// arrivals are consumed per rate epoch instead of costing a timer
	// each; phantoms tracks packet-path flows whose demand the solver
	// models.
	cursor     int
	fluidTimer *simnet.Timer
	phantoms   []phantomFlow

	// payload is the one data-packet buffer every transmission is written
	// into: SendUDP copies it into the frame before returning.
	payload []byte

	// finished counts flows that are Done or Abandoned, so that Done() — the
	// harness polls it every 50 ms of simulated time — is not a scan.
	finished int

	// PacketsSent counts data transmissions including repairs;
	// Retransmits the repair subset.
	PacketsSent uint64
	Retransmits uint64
}

// New generates the full flow schedule deterministically from cfg.Seed and
// registers the receive path on every host. sim is the simulator driving
// the hosts' fabric — flow launches and repair timers are control events on
// it. A nil sim defaults to the first host's own simulator.
func New(sim *simnet.Sim, hosts []Host, cfg Config) (*Engine, error) {
	if len(hosts) < 2 {
		return nil, fmt.Errorf("workload: need at least 2 hosts, got %d", len(hosts))
	}
	if len(hosts) > math.MaxUint16 {
		return nil, fmt.Errorf("workload: %d hosts do not fit a flow slot's uint16 index", len(hosts))
	}
	if cfg.Flows < 1 {
		return nil, fmt.Errorf("workload: need at least 1 flow, got %d", cfg.Flows)
	}
	if cfg.Flows > math.MaxInt32 {
		return nil, fmt.Errorf("workload: %d flows do not fit a flow slot's int32 packet-state index", cfg.Flows)
	}
	if cfg.Sizes == nil {
		return nil, fmt.Errorf("workload: no flow size distribution (Sizes is nil)")
	}
	if cfg.Mode != ModePacket {
		if cfg.Solver == nil {
			return nil, fmt.Errorf("workload: %s mode needs a Solver", cfg.Mode)
		}
		if cfg.PathOf == nil {
			return nil, fmt.Errorf("workload: %s mode needs a PathOf", cfg.Mode)
		}
		if cfg.RateInterval <= 0 {
			cfg.RateInterval = 5 * time.Millisecond
		}
	}
	if sim == nil {
		sim = hosts[0].Stack.Node.Sim
	}
	e := &Engine{
		sim:     sim,
		hosts:   hosts,
		cfg:     cfg,
		flows:   make([]Flow, cfg.Flows),
		payload: make([]byte, PacketSize),
	}
	binary.BigEndian.PutUint32(e.payload[0:], Magic)
	rng := rand.New(rand.NewSource(cfg.Seed))
	pair := e.pairer(rng)
	var at time.Duration
	packetFlows, maskWords := 0, 0
	for i := 0; i < cfg.Flows; i++ {
		at += time.Duration(rng.ExpFloat64() * float64(cfg.MeanArrival))
		src, dst := pair(i)
		bytes := cfg.Sizes.Sample(rng.Float64())
		if bytes < 1 {
			bytes = 1
		}
		// A size that fits int32 has a packet count that does too.
		if bytes > math.MaxInt32 {
			return nil, fmt.Errorf("workload: %s drew %d bytes for flow %d, more than a flow slot's int32 holds", cfg.Sizes.Name(), bytes, i+1)
		}
		f := &e.flows[i]
		*f = Flow{
			Src:     uint16(src),
			Dst:     uint16(dst),
			SrcPort: uint16(20000 + i%40000),
			Bytes:   int32(bytes),
			Start:   at,
		}
		if e.routeFluid(f) {
			f.state = flowFluid
		} else {
			packetFlows++
			maskWords += f.maskWords()
		}
	}
	e.pkts = make([]packetState, 0, packetFlows)
	e.masks = make([]uint64, maskWords)
	seen := make(map[*ipstack.Stack]bool)
	for _, h := range hosts {
		if seen[h.Stack] {
			continue
		}
		seen[h.Stack] = true
		h.Stack.ListenUDP(DstPort, func(_, _ netaddr.IPv4, dg udp.Datagram) {
			e.onDatagram(dg)
		})
	}
	return e, nil
}

// pairer returns the pattern's (src, dst) chooser. All random draws happen
// through rng in flow order, keeping the schedule a pure function of the
// seed.
func (e *Engine) pairer(rng *rand.Rand) func(i int) (int, int) {
	n := len(e.hosts)
	switch e.cfg.Pattern {
	case PatternPermutation:
		// Shift far enough to leave the source's rack: with hosts
		// grouped by rack, the first index in a different rack is the
		// rack size.
		shift := 1
		for shift < n && e.hosts[shift].Rack == e.hosts[0].Rack {
			shift++
		}
		if shift == n {
			shift = 1
		}
		return func(i int) (int, int) { return i % n, (i%n + shift) % n }
	case PatternIncast:
		return func(i int) (int, int) { return 1 + i%(n-1), 0 }
	default: // PatternRandom
		return func(int) (int, int) {
			src := rng.Intn(n)
			for attempt := 0; attempt < 8*n; attempt++ {
				dst := rng.Intn(n)
				if dst != src && e.hosts[dst].Rack != e.hosts[src].Rack {
					return src, dst
				}
			}
			return src, (src + 1) % n // single-rack fallback
		}
	}
}

// routeFluid is the generation-time dispatch: which engine simulates this
// flow. Pure modes are trivial; hybrid demotes for fidelity — small flows
// (queueing and incast dynamics dominate their FCT) and flows whose
// predicted lifetime overlaps the fault window (reconvergence behavior is
// the whole point of those) take the packet path.
func (e *Engine) routeFluid(f *Flow) bool {
	switch e.cfg.Mode {
	case ModePacket:
		return false
	case ModeFluid:
		return true
	}
	if int(f.Bytes) < e.cfg.FluidCutoff {
		return false
	}
	if e.cfg.DemoteUntil > e.cfg.DemoteFrom {
		if f.Start < e.cfg.DemoteUntil && f.Start+e.estimateDuration(f) > e.cfg.DemoteFrom {
			return false
		}
	}
	return true
}

// estimateDuration pessimistically predicts a flow's lifetime for the
// fault-window overlap test: twice the pacing-bound transfer time (the
// packet sender cannot beat one packet per PacketInterval, and the fluid
// cap matches it).
func (e *Engine) estimateDuration(f *Flow) time.Duration {
	per := float64(f.Bytes) / float64(PacketSize)
	return time.Duration(2 * per * float64(PacketInterval))
}

// Start schedules every packet flow's launch and, outside ModePacket, the
// fluid solver's rate-epoch tick. Call once, before running the simulation
// forward.
func (e *Engine) Start() {
	if e.started {
		panic("workload: Engine started twice")
	}
	e.started = true
	e.base = e.sim.Now()
	for i := range e.flows {
		if e.flows[i].fluid() {
			continue // admitted by the tick's schedule cursor, no per-flow event
		}
		id := uint32(i + 1)
		e.sim.At(e.base+e.flows[i].Start, func() { e.launch(id) })
	}
	if e.cfg.Mode != ModePacket {
		e.fluidTimer = e.sim.After(e.cfg.RateInterval, e.fluidTick)
	}
}

// phantomFlow tracks one packet-path flow, by ID, admitted to the solver as
// pure demand (hybrid mode), until its packet engine finishes it.
type phantomFlow struct {
	id uint32
	h  fluid.Handle
}

// fluidTick is the rate epoch, a control event: integrate service and pop
// completions, consume newly arrived flows from the schedule cursor,
// release finished phantom demand, then recompute max-min rates and push
// the changed reservations onto the links.
func (e *Engine) fluidTick() {
	now := e.sim.Now()
	e.applyCompletions(e.cfg.Solver.Advance(now))
	for e.cursor < len(e.flows) && e.base+e.flows[e.cursor].Start <= now {
		f := &e.flows[e.cursor]
		e.cursor++ // now the flow's ID
		if f.fluid() {
			e.admitFluid(uint32(e.cursor), f)
		}
	}
	keep := e.phantoms[:0]
	for _, ph := range e.phantoms {
		if e.flows[ph.id-1].finished() {
			e.cfg.Solver.Leave(ph.h)
		} else {
			keep = append(keep, ph)
		}
	}
	e.phantoms = keep
	e.applyCompletions(e.cfg.Solver.Reallocate(now))
	if e.cursor < len(e.flows) || e.cfg.Solver.Active() > 0 || len(e.phantoms) > 0 {
		e.fluidTimer.Reset(e.cfg.RateInterval)
	}
}

// applyCompletions marks flows the solver reports finished. The solver was
// given each flow's arrival instant, base+Start, and reports the instant its
// last byte arrives, so the FCT is their difference: integer arithmetic, exact.
func (e *Engine) applyCompletions(cs []fluid.Completion) {
	for _, c := range cs {
		f := &e.flows[c.ID-1]
		f.state |= flowDone
		f.FCT = c.Done - (e.base + f.Start)
		e.finished++
	}
}

// admitFluid hands flow id, slot f, to the solver at its exact arrival
// instant, base+Start (service credit is backdated to it by the epoch's
// Reallocate, so FCT loses nothing to the tick cadence). A flow with no
// resolvable path — a blackhole window — is abandoned, the analytic
// analogue of the packet sender exhausting MaxRounds into a void.
func (e *Engine) admitFluid(id uint32, f *Flow) {
	f.state |= flowLaunched
	path, lat, ok := e.cfg.PathOf(f)
	if !ok {
		f.state |= flowAbandoned
		e.finished++
		return
	}
	e.cfg.Solver.Admit(id, int64(f.Bytes), path, lat, e.base+f.Start)
}

// Repath re-resolves every fluid group's path against the current routing
// state. The harness calls it after injecting a topology event so standing
// reservations follow the reroute.
func (e *Engine) Repath() {
	if e.cfg.Mode == ModePacket || !e.started {
		return
	}
	e.cfg.Solver.Repath(func(id uint32) ([]fluid.LinkID, time.Duration, bool) {
		return e.cfg.PathOf(&e.flows[id-1])
	})
	e.applyCompletions(e.cfg.Solver.Reallocate(e.sim.Now()))
}

// launch starts packet-path flow id: it takes the next slot of the
// packet-state slab and the flow's run of receive bitmap, then sends.
func (e *Engine) launch(id uint32) {
	f := &e.flows[id-1]
	if invariant.Enabled {
		invariant.Assertf(e.sim.Now() == e.base+f.Start, "workload: flow %d launched at %v, its slot says %v", id, e.sim.Now(), e.base+f.Start)
		invariant.Assertf(len(e.pkts) < cap(e.pkts), "workload: flow %d launches past the %d packet-path slots New made", id, cap(e.pkts))
	}
	f.state |= flowLaunched
	words := f.maskWords()
	e.pkts = append(e.pkts, packetState{gotMask: e.masks[:words:words]})
	e.masks = e.masks[words:]
	f.pkt = int32(len(e.pkts))
	if e.cfg.Mode == ModeHybrid {
		// The flow's real packets ride the residual serializer; its fair
		// share must still squeeze the fluid allocation, so the solver
		// models it as phantom demand until it finishes.
		if path, _, ok := e.cfg.PathOf(f); ok {
			e.phantoms = append(e.phantoms, phantomFlow{id: id, h: e.cfg.Solver.AdmitPhantom(path)})
		}
	}
	e.tick(id)
}

// tick is the per-flow sender: while sequences are pending it transmits one
// per PacketInterval; once drained it waits an RTO and re-offers whatever
// the receiver is still missing, up to MaxRounds.
func (e *Engine) tick(id uint32) {
	f := &e.flows[id-1]
	if f.finished() {
		return
	}
	ps := e.pktOf(f)
	packets := f.Packets()
	if ps.queued(packets) == 0 {
		ps.refillRepair(packets)
		if len(ps.repair) == 0 {
			return // completion races the check; the receive path recorded it
		}
		if ps.rounds >= e.cfg.MaxRounds {
			f.state |= flowAbandoned
			e.finished++
			return
		}
		ps.rounds++
		e.Retransmits += uint64(len(ps.repair))
	}
	var seq uint32
	if ps.next < uint32(packets) {
		seq = ps.next
		ps.next++
	} else {
		seq = ps.repair[ps.head]
		ps.head++
	}
	e.sendData(id, f, seq)
	wait := PacketInterval
	if ps.queued(packets) == 0 {
		wait = e.cfg.RTO
	}
	if ps.timer != nil {
		ps.timer.Reset(wait)
	} else {
		ps.timer = e.sim.After(wait, func() { e.tick(id) })
	}
}

// pktOf returns a flow's packet-path state, nil before launch and for fluid
// flows.
func (e *Engine) pktOf(f *Flow) *packetState {
	if f.pkt == 0 {
		return nil
	}
	return &e.pkts[f.pkt-1]
}

// queued is the number of sequences of a packets-long flow waiting for
// transmission.
func (ps *packetState) queued(packets int) int {
	return packets - int(ps.next) + len(ps.repair) - ps.head
}

// refillRepair starts a repair round: the flow's repair slice is refilled
// with the sequences the receiver has not delivered, in order. The sender
// reading receiver state directly is the idealized-SACK shortcut documented
// in the package comment.
func (ps *packetState) refillRepair(packets int) {
	ps.repair, ps.head = ps.repair[:0], 0
	for seq := uint32(0); seq < uint32(packets); seq++ {
		if !ps.got(seq) {
			ps.repair = append(ps.repair, seq)
		}
	}
}

func (e *Engine) sendData(id uint32, f *Flow, seq uint32) {
	e.PacketsSent++
	// Only the header differs between packets; the rest of the scratch
	// payload stays zero, as a fresh buffer's would be.
	binary.BigEndian.PutUint32(e.payload[4:], id)
	binary.BigEndian.PutUint32(e.payload[8:], seq)
	binary.BigEndian.PutUint32(e.payload[12:], uint32(f.Packets()))
	src, dst := e.hosts[f.Src], e.hosts[f.Dst]
	src.Stack.SendUDP(src.IP, dst.IP, f.SrcPort, DstPort, e.payload)
}

// onDatagram is the receive path, running on the destination host's events.
// The port is an open listener and the bytes come off the wire: an ID outside
// the schedule, or of a flow with no packet state (fluid, or not launched
// yet), is ignored like any other stray datagram.
func (e *Engine) onDatagram(dg udp.Datagram) {
	p := dg.Payload
	if len(p) < wireHeaderLen || binary.BigEndian.Uint32(p) != Magic {
		return
	}
	id, seq := binary.BigEndian.Uint32(p[4:]), binary.BigEndian.Uint32(p[8:])
	if id-1 >= uint32(len(e.flows)) { // id 0 wraps past every length
		return
	}
	f := &e.flows[id-1]
	ps := e.pktOf(f)
	if ps == nil || seq >= uint32(f.Packets()) {
		return
	}
	if ps.got(seq) {
		ps.dups++
		return
	}
	ps.mark(seq)
	ps.received++
	if ps.received == f.Packets() && !f.Done() {
		f.state |= flowDone
		f.FCT = e.sim.Now() - (e.base + f.Start)
		if !f.Abandoned() { // a straggler can complete a flow the sender gave up on
			e.finished++
		}
	}
}

// Done reports whether every flow has finished (completed or abandoned).
func (e *Engine) Done() bool { return e.finished == len(e.flows) }

// --- reporting --------------------------------------------------------------

// Bucket is one flow-size class of the FCT report.
type Bucket struct {
	Label    string
	MaxBytes int // inclusive upper bound; flows above all buckets land in the last
}

// DefaultBuckets are the size classes of the harness tables: short queries,
// mid-size responses, heavy-tail bulk.
func DefaultBuckets() []Bucket {
	return []Bucket{
		{"S<=10KB", 10_000},
		{"M<=100KB", 100_000},
		{"L>100KB", 1 << 62},
	}
}

// BucketReport is the FCT sample of one size class, in milliseconds, in
// flow-generation order (deterministic run to run).
type BucketReport struct {
	Label     string
	Flows     int // flows of this size class launched
	Completed int
	FCTms     []float64
}

// Report is the engine's final accounting.
type Report struct {
	Flows       int
	Completed   int
	Abandoned   int
	Incomplete  int // launched or scheduled but neither completed nor abandoned at report time
	PacketsSent uint64
	Retransmits uint64
	Duplicates  uint64
	// FluidFlows counts flows routed through the fluid model (0 in
	// ModePacket).
	FluidFlows int
	// PeakConcurrent is the maximum number of flows in flight at once:
	// launched but not yet completed (abandoned and incomplete flows
	// count as in flight until the end of the run).
	PeakConcurrent int
	Buckets        []BucketReport
}

// CompletionRate is the completed fraction of all generated flows.
func (r Report) CompletionRate() float64 {
	if r.Flows == 0 {
		return 0
	}
	return float64(r.Completed) / float64(r.Flows)
}

// Report assembles the final accounting against the given size buckets
// (DefaultBuckets when nil).
func (e *Engine) Report(buckets []Bucket) Report {
	if buckets == nil {
		buckets = DefaultBuckets()
	}
	r := Report{
		Flows:       len(e.flows),
		PacketsSent: e.PacketsSent,
		Retransmits: e.Retransmits,
		Buckets:     make([]BucketReport, len(buckets)),
	}
	for i, b := range buckets {
		r.Buckets[i].Label = b.Label
	}
	// One visit for the counts, so that the second fills FCT samples made at
	// their final size.
	for i := range e.flows {
		f := &e.flows[i]
		br := &r.Buckets[bucketOf(buckets, int(f.Bytes))]
		br.Flows++
		switch {
		case f.Done():
			r.Completed++
			br.Completed++
		case f.Abandoned():
			r.Abandoned++
		}
		if ps := e.pktOf(f); ps != nil {
			r.Duplicates += uint64(ps.dups)
		}
		if f.fluid() {
			r.FluidFlows++
		}
	}
	r.Incomplete = r.Flows - r.Completed - r.Abandoned
	r.PeakConcurrent = e.peakConcurrent()
	for i := range r.Buckets {
		if n := r.Buckets[i].Completed; n > 0 {
			r.Buckets[i].FCTms = make([]float64, 0, n)
		}
	}
	for i := range e.flows {
		if f := &e.flows[i]; f.Done() {
			br := &r.Buckets[bucketOf(buckets, int(f.Bytes))]
			br.FCTms = append(br.FCTms, float64(f.FCT)/float64(time.Millisecond))
		}
	}
	return r
}

// bucketOf is the size class of a flow: the first bucket that holds it, the
// last when none does.
func bucketOf(buckets []Bucket, bytes int) int {
	for i, b := range buckets {
		if bytes <= b.MaxBytes {
			return i
		}
	}
	return len(buckets) - 1
}

// peakConcurrent sweeps launch/completion instants to find the maximum
// overlap. Flows that never finished keep their slot to the end of the run
// (their launch still counts; nothing ever releases it), which makes the
// figure an honest concurrency high-water mark even on overloaded runs.
//
// Every flow launches at base+Start and the schedule is in Start order, so
// the launches are the schedule walked in place; instants are taken as
// offsets from base. The sweep only ever asks whether a completion lies at
// or before a launch, so a completion after the last launch cannot change
// the peak and is left out of the sort: a million fluid flows launched over
// two seconds and drained over hundreds sort the few completions of those
// two seconds.
func (e *Engine) peakConcurrent() int {
	k := len(e.flows)
	for k > 0 && !e.flows[k-1].launched() {
		k--
	}
	if k == 0 {
		return 0
	}
	launches := e.flows[:k] // every launched flow, the last one last
	last := launches[k-1].Start
	// Counted first, so that ends is made at its final size.
	n := 0
	for i := range launches {
		if _, ok := launches[i].endedBy(last); ok {
			n++
		}
	}
	ends := make([]time.Duration, 0, n)
	for i := range launches {
		if end, ok := launches[i].endedBy(last); ok {
			ends = append(ends, end)
		}
	}
	slices.Sort(ends)
	cur, peak, j := 0, 0, 0
	for i := range launches {
		f := &launches[i]
		if !f.launched() {
			continue
		}
		if invariant.Enabled {
			invariant.Assert(i == 0 || launches[i-1].Start <= f.Start, "workload: schedule not in Start order")
		}
		for j < len(ends) && ends[j] <= f.Start {
			cur--
			j++
		}
		cur++
		if cur > peak {
			peak = cur
		}
	}
	return peak
}

// endedBy returns the flow's completion instant, as an offset from the
// engine's base, and whether it has one at or before t.
func (f *Flow) endedBy(t time.Duration) (time.Duration, bool) {
	end := f.Start + f.FCT
	return end, f.launched() && f.Done() && end <= t
}
