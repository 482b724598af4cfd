// Package fluid is the flow-level (fluid) half of the hybrid simulation
// engine: long-lived flows are modeled analytically instead of
// packet-by-packet. Each flow receives a max-min fair share of every link
// on its path (progressive filling, recomputed on an epoch cadence and on
// arrival/departure/topology events), and its completion time falls out of
// integrating the allocated rate — the standard reduction the flow-level
// evaluation literature (FatPaths, the multipathing surveys in PAPERS.md)
// uses to reach flow counts a packet simulator cannot.
//
// The solver is deliberately ignorant of the simulator: callers register
// directed link capacities with AddLink and receive committed fluid shares
// back through per-link apply callbacks; the workload engine drives
// Advance/Admit/Reallocate from control events on the virtual clock. All
// state is owned by those calls — the package does no synchronization.
//
// Scale comes from aggregation: flows sharing an identical resolved path
// form one *path group*. Rates, service curves and progressive filling run
// per group (a Clos fabric has few distinct paths), while per-flow state is
// one 16-byte queue entry — so a million concurrent flows cost one push and
// one pop each, not a million timers.
//
// Determinism: groups and links live in slices in creation order, maps are
// lookup-only (never ranged), and every float operation runs in a fixed
// order — the same admission sequence always produces bit-identical rates
// and completion times.
package fluid

import (
	"math"
	"slices"
	"time"

	"repro/internal/invariant"
)

// LinkID names one direction of one registered link.
type LinkID int32

// Handle identifies a phantom admission (a packet-path flow whose demand is
// modeled so fluid shares leave room for its real packets).
type Handle int32

// unconstrainedBps is the rate a flow gets when neither a link capacity nor
// the per-flow cap binds: effectively instantaneous completion.
const unconstrainedBps = 1e15

// Config parameterizes the solver.
type Config struct {
	// RateCapBps bounds any single flow's allocated rate — the packet
	// engine paces one packet per PacketInterval, so matching its FCT on
	// uncongested paths requires the same ceiling. 0 means uncapped.
	RateCapBps float64
}

// Completion reports one fluid flow finishing. Done is the instant its last
// byte arrives: the exact crossing instant of its byte threshold within the
// last rate epoch plus the path's fixed latency offset. The flow completion
// time is Done minus the arrival instant the flow was admitted at, which the
// caller keeps.
type Completion struct {
	ID   uint32
	Done time.Duration
}

// member is one fluid flow inside a path group: the cumulative-service
// level at which it completes, the key of the group's member queue. Its
// admission instant is not kept: the caller derives the flow completion
// time from Completion.Done.
type member struct {
	threshold float64 // group service (bytes) at which this flow is done
	id        uint32
	seq       uint32 // admission order, the deterministic tie-break
}

// group aggregates flows sharing one resolved path. Phantom groups model
// packet-path demand only: they join progressive filling but have no
// service curve and never reserve wire capacity.
type group struct {
	path    []LinkID
	latency time.Duration // fixed per-flow FCT offset (propagation + store-and-forward)
	phantom bool
	// next is the group after this one in its index chain (see Solver.head),
	// -1 at the chain's end.
	next int32

	n       int     // active flows
	rate    float64 // per-flow bps from the last Reallocate
	service float64 // cumulative per-flow bytes served

	// The member queue (see push): the run is a FIFO of the members that
	// arrived in memberLess order, heap a min-heap of the rest. The run is a
	// chain of the Solver's blocks (see blockPool) from first, whose members
	// start at head, to last, whose end at tail; 0 for both when it is
	// empty. The queue's minimum is the smaller of the run's head member and
	// heap[0].
	first, last int32
	head, tail  int
	heap        []member

	frozen bool // progressive-filling scratch
}

// link is one registered direction with its allocation scratch state.
type link struct {
	capBps float64                           // 0 = unconstrained
	apply  func(bps int64, at time.Duration) // commits the fluid share to the wire
	groups []int32                           // indexes of groups routed over this link

	lastApplied int64
	// progressive-filling scratch
	resid float64
	nf    int
	fluid float64
}

// Solver owns the fluid links, path groups and rate allocation.
type Solver struct {
	cfg    Config
	links  []*link
	groups []*group
	blocks blockPool // the member blocks of every group's run
	// head maps a pathHash to the first group of the chain indexed under it
	// (group.next links the rest). A group is indexed under its own kind and
	// path from its creation until Repath retires that key, and each key
	// names at most one group: lookup only, never ranged.
	head map[uint64]int32

	completions []Completion
	pending     []pendingAdmit
	resolved    []Completion // Reallocate's immediate completions (own buffer: the caller may still hold Advance's)
	active      int          // live fluid (non-phantom) flows
	peak        int
	seq         uint32
	lastNow     time.Duration
}

// New creates an empty solver.
func New(cfg Config) *Solver {
	return &Solver{cfg: cfg, head: make(map[uint64]int32)}
}

// AddLink registers one direction of capacity capBps. apply, when non-nil,
// is called with the committed aggregate fluid share whenever it changes
// (the simnet coupling: reserved bandwidth leaves the packet serializer its
// residual). capBps <= 0 registers an unconstrained direction.
func (s *Solver) AddLink(capBps int64, apply func(bps int64, at time.Duration)) LinkID {
	s.links = append(s.links, &link{capBps: float64(capBps), apply: apply})
	return LinkID(len(s.links) - 1)
}

// Active returns the number of live fluid flows.
func (s *Solver) Active() int { return s.active }

// Peak returns the high-water mark of Active since creation.
func (s *Solver) Peak() int { return s.peak }

// pathHash mixes a path and its kind (phantom or fluid, which must never
// share a group) into the index key. Distinct paths may collide: a lookup
// confirms its match with samePath.
func pathHash(path []LinkID, phantom bool) uint64 {
	h := uint64(14695981039346656037)
	if phantom {
		h++
	}
	for _, id := range path {
		h = (h ^ uint64(uint32(id))) * 1099511628211
	}
	return h
}

// indexed returns the group indexed under (path, phantom), or -1.
func (s *Solver) indexed(h uint64, path []LinkID, phantom bool) int32 {
	gi, ok := s.head[h]
	if !ok {
		return -1
	}
	for ; gi >= 0; gi = s.groups[gi].next {
		if g := s.groups[gi]; g.phantom == phantom && samePath(g.path, path) {
			return gi
		}
	}
	return -1
}

// groupFor finds or creates the group owning (path, phantom). A new group
// heads its key's chain.
func (s *Solver) groupFor(path []LinkID, latency time.Duration, phantom bool) (*group, int32) {
	h := pathHash(path, phantom)
	if gi := s.indexed(h, path, phantom); gi >= 0 {
		return s.groups[gi], gi
	}
	next, ok := s.head[h]
	if !ok {
		next = -1
	}
	g := &group{path: append([]LinkID(nil), path...), latency: latency, phantom: phantom, next: next}
	gi := int32(len(s.groups))
	s.groups = append(s.groups, g)
	s.head[h] = gi
	for _, lid := range path {
		s.links[lid].groups = append(s.links[lid].groups, gi)
	}
	return g, gi
}

// retire drops the fluid key path from the index, whichever group it names:
// the group on it, or none.
func (s *Solver) retire(path []LinkID) {
	h := pathHash(path, false)
	gi := s.indexed(h, path, false)
	if gi < 0 {
		return
	}
	next := s.groups[gi].next
	if s.head[h] == gi {
		if next < 0 {
			delete(s.head, h)
		} else {
			s.head[h] = next
		}
		return
	}
	prev := s.head[h]
	for s.groups[prev].next != gi {
		prev = s.groups[prev].next
	}
	s.groups[prev].next = next
}

// pendingAdmit is a flow admitted since the last Reallocate: it counts
// toward its group's demand immediately, but its completion threshold is
// resolved only after the next Reallocate, against the rate it actually
// receives.
type pendingAdmit struct {
	bytes float64
	at    time.Duration
	gi    int32
	id    uint32
}

// Admit adds a fluid flow of the given size at instant at (which must lie
// in the epoch ending at the last Advance). The flow joins its group's
// demand at once, but its service credit is resolved by the next Reallocate
// at its post-allocation rate: the packet engine it stands in for starts
// pacing at the arrival instant, not at the next rate epoch, so the credit
// backdates transmission to `at` — exact on idle paths, where the group's
// stale rate (zero) says nothing about what the flow will get.
func (s *Solver) Admit(id uint32, bytes int64, path []LinkID, latency, at time.Duration) {
	g, gi := s.groupFor(path, latency, false)
	s.pending = append(s.pending, pendingAdmit{gi: gi, bytes: float64(bytes), at: at, id: id})
	g.n++
	s.active++
	if s.active > s.peak {
		s.peak = s.active
	}
}

// AdmitPhantom adds a packet-path flow's demand to the allocation (hybrid
// mode: short and fault-window flows ride the packet engine, but their fair
// share must still squeeze fluid reservations, exactly as their real
// packets squeeze the residual serializer). The handle releases it.
func (s *Solver) AdmitPhantom(path []LinkID) Handle {
	g, gi := s.groupFor(path, 0, true)
	g.n++
	return Handle(gi)
}

// Leave releases one phantom admission.
func (s *Solver) Leave(h Handle) {
	g := s.groups[h]
	if invariant.Enabled {
		invariant.Assert(g.phantom && g.n > 0, "fluid: Leave on a non-phantom or empty group")
	}
	if g.n > 0 {
		g.n--
	}
}

// Advance integrates every group's service curve from the last epoch
// boundary to now (rates are piecewise-constant between Reallocate calls)
// and pops completions at their exact crossing instants (plus the group's
// latency). The returned slice is reused by the next Advance.
func (s *Solver) Advance(now time.Duration) []Completion {
	dt := (now - s.lastNow).Seconds()
	out := s.completions[:0]
	for _, g := range s.groups {
		if g.phantom || g.rate <= 0 {
			continue
		}
		prev := g.service
		if dt > 0 {
			g.service = prev + g.rate/8*dt
		}
		for !g.empty() && g.min(&s.blocks).threshold <= g.service {
			m := g.pop(&s.blocks)
			over := (m.threshold - prev) * 8 / g.rate // seconds into the epoch
			if over < 0 {
				over = 0
			}
			doneAt := s.lastNow + time.Duration(over*float64(time.Second))
			if doneAt > now {
				doneAt = now
			}
			out = append(out, Completion{ID: m.id, Done: doneAt + g.latency})
			g.n--
			s.active--
		}
	}
	s.lastNow = now
	s.completions = out
	return out
}

// Reallocate recomputes every group's per-flow rate by progressive filling
// — repeatedly freezing the groups crossing the currently tightest link at
// its fair share — with the per-flow cap applied, then commits each link's
// aggregate fluid share (phantom demand excluded) through its apply hook.
// Finally it resolves the thresholds of flows admitted since the last call;
// flows whose backdated credit says they already finished are returned as
// completions at their exact analytic instants (the returned slice is
// reused).
func (s *Solver) Reallocate(now time.Duration) []Completion {
	unfrozen := 0
	for _, l := range s.links {
		l.resid = l.capBps
		l.nf = 0
	}
	for _, g := range s.groups {
		g.frozen = g.n == 0
		if g.frozen {
			g.rate = 0
			continue
		}
		unfrozen++
		for _, lid := range g.path {
			if l := s.links[lid]; l.capBps > 0 {
				l.nf += g.n
			}
		}
	}
	for unfrozen > 0 {
		minShare := math.Inf(1)
		minLink := -1
		for i, l := range s.links {
			if l.capBps <= 0 || l.nf == 0 {
				continue
			}
			if share := l.resid / float64(l.nf); share < minShare {
				minShare = share
				minLink = i
			}
		}
		if minLink < 0 || (s.cfg.RateCapBps > 0 && s.cfg.RateCapBps <= minShare) {
			// No link binds tighter than the per-flow cap (or nothing
			// binds at all): everything left freezes at the ceiling.
			r := s.cfg.RateCapBps
			if r <= 0 {
				r = unconstrainedBps
			}
			for _, g := range s.groups {
				if !g.frozen {
					g.rate = r
					s.freeze(g)
					unfrozen--
				}
			}
			break
		}
		if minShare < 0 {
			minShare = 0
		}
		before := unfrozen
		for _, gi := range s.links[minLink].groups {
			if g := s.groups[gi]; !g.frozen {
				g.rate = minShare
				s.freeze(g)
				unfrozen--
			}
		}
		if invariant.Enabled {
			invariant.Assert(unfrozen < before, "fluid: progressive filling made no progress")
		}
		if unfrozen >= before {
			break // defensive: a zero-share bottleneck with no groups left
		}
	}
	for _, l := range s.links {
		l.fluid = 0
	}
	for _, g := range s.groups {
		if g.phantom || g.n == 0 {
			continue
		}
		for _, lid := range g.path {
			s.links[lid].fluid += float64(g.n) * g.rate
		}
	}
	for _, l := range s.links {
		if invariant.Enabled && l.capBps > 0 {
			invariant.Assertf(l.fluid <= l.capBps*(1+1e-9)+1,
				"fluid: link over-allocated: %g bps of %g", l.fluid, l.capBps)
		}
		bps := int64(l.fluid)
		if bps != l.lastApplied {
			l.lastApplied = bps
			if l.apply != nil {
				l.apply(bps, now)
			}
		}
	}
	return s.resolvePending(now)
}

// resolvePending turns this epoch's admissions into heap members (or
// immediate completions) using the rates they were just allocated. The
// credit backdates service to the arrival instant at the allocated rate —
// on an otherwise-idle path this reproduces the packet engine's pacing
// start exactly: completion at `at + bytes*8/rate`, not at the epoch
// boundary plus the transfer.
func (s *Solver) resolvePending(now time.Duration) []Completion {
	out := s.resolved[:0]
	for _, p := range s.pending {
		g := s.groups[p.gi]
		credit := 0.0
		if g.rate > 0 && p.at < now {
			credit = g.rate / 8 * (now - p.at).Seconds()
		}
		threshold := g.service - credit + p.bytes
		if threshold <= g.service && g.rate > 0 {
			// Finished before this epoch boundary: exact analytic FCT.
			dur := time.Duration(p.bytes * 8 / g.rate * float64(time.Second))
			out = append(out, Completion{ID: p.id, Done: p.at + dur + g.latency})
			g.n--
			s.active--
			continue
		}
		s.seq++
		g.push(member{threshold: threshold, id: p.id, seq: s.seq}, &s.blocks)
	}
	s.pending = s.pending[:0]
	s.resolved = out
	return out
}

// freeze fixes g at its current rate and removes its demand from its path.
func (s *Solver) freeze(g *group) {
	g.frozen = true
	for _, lid := range g.path {
		l := s.links[lid]
		if l.capBps <= 0 {
			continue
		}
		l.resid -= float64(g.n) * g.rate
		if l.resid < 0 {
			l.resid = 0
		}
		l.nf -= g.n
	}
}

// Repath re-resolves every live fluid group's path through resolve (called
// with one representative member's flow ID) — the topology-event hook: a
// failure that moved the forwarding decision moves the group's reservation
// with it. Groups whose representative no longer resolves keep their stale
// path; the hybrid demotion window exists precisely so few fluid flows
// straddle such events (DESIGN.md §14, fidelity limits). The group's old
// path key is retired, so later admissions on either path form or join
// groups matching the tables they were resolved against.
func (s *Solver) Repath(resolve func(id uint32) (path []LinkID, latency time.Duration, ok bool)) {
	for gi, g := range s.groups {
		if g.phantom || g.empty() {
			continue
		}
		newPath, lat, ok := resolve(g.min(&s.blocks).id)
		if !ok || samePath(g.path, newPath) {
			continue
		}
		s.retire(g.path)
		for _, lid := range g.path {
			s.links[lid].groups = removeGroup(s.links[lid].groups, int32(gi))
		}
		g.path = append(g.path[:0], newPath...)
		g.latency = lat
		for _, lid := range g.path {
			s.links[lid].groups = append(s.links[lid].groups, int32(gi))
		}
	}
}

func samePath(a, b []LinkID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func removeGroup(gs []int32, gi int32) []int32 {
	for i, g := range gs {
		if g == gi {
			return append(gs[:i], gs[i+1:]...)
		}
	}
	return gs
}

// --- member queue (threshold, then admission seq) ---------------------------

// memberLess is the order members complete in. seq is unique, so the order
// is strict and total: whatever structure yields its minimum pops the same
// sequence.
func memberLess(a, b member) bool {
	if a.threshold != b.threshold {
		return a.threshold < b.threshold
	}
	return a.seq < b.seq
}

// push files a member. One that does not sort before the last of the run
// joins the run, which therefore stays sorted and costs a store to push and
// an index to pop; any other goes on the heap. The thresholds decide: flows
// of one size admitted to a group at one rate arrive in completion order and
// never see the heap, a mix of sizes mostly does. The heap doubles when
// full — append's rule for large slices grows by a quarter, and a group that
// fills over many epochs then allocates about five times what it ends up
// holding. The run grows a block at a time from p and copies no member.
func (g *group) push(m member, p *blockPool) {
	if g.last != 0 && memberLess(m, p.block(g.last)[g.tail-1]) {
		if len(g.heap) == cap(g.heap) {
			g.heap = slices.Grow(g.heap, len(g.heap)+1)
		}
		g.heap = append(g.heap, m)
		siftUp(g.heap, len(g.heap)-1)
		return
	}
	switch {
	case g.last == 0:
		g.first = p.get()
		g.last, g.head, g.tail = g.first, 0, 0
	case g.tail == memberBlockLen:
		b := p.get()
		p.next[g.last-1], g.last, g.tail = b, b, 0
	}
	p.block(g.last)[g.tail] = m
	g.tail++
}

func (g *group) empty() bool { return g.first == 0 && len(g.heap) == 0 }

// fromRun reports whether the queue's minimum is the run's head rather than
// the heap's root. The queue must not be empty.
func (g *group) fromRun(p *blockPool) bool {
	return len(g.heap) == 0 || (g.first != 0 && memberLess(p.block(g.first)[g.head], g.heap[0]))
}

// min returns the queue's minimum, which must exist.
func (g *group) min(p *blockPool) *member {
	if g.fromRun(p) {
		return &p.block(g.first)[g.head]
	}
	return &g.heap[0]
}

// pop removes and returns the queue's minimum, which must exist. A block
// the pop empties goes back to p: the run's first once its last member has
// left, and the run's only one when the run drains.
func (g *group) pop(p *blockPool) member {
	if !g.fromRun(p) {
		m := g.heap[0]
		popMin(&g.heap)
		return m
	}
	m := p.block(g.first)[g.head]
	g.head++
	switch {
	case g.first == g.last && g.head == g.tail:
		p.put(g.first)
		g.first, g.last, g.head, g.tail = 0, 0, 0, 0
	case g.head == memberBlockLen:
		b := g.first
		g.first, g.head = p.next[b-1], 0
		p.put(b)
	}
	return m
}

// memberBlockLen is the number of members a block holds: 8 KiB with no
// pointer in it, an exact size class the collector never scans. (768, the
// 12 KiB class, allocated more on hybrid-million and ran no faster.)
const memberBlockLen = 512

type memberBlock [memberBlockLen]member

// blockPool owns a Solver's member blocks and the chains through them.
// Block b, numbered from 1 (0 is none), is blocks[b-1], and next[b-1] is
// the block after it in its chain — the run it belongs to, or the free
// list from free — or 0 at the chain's end. A block is made only when the
// free list is empty, and lives as long as the Solver.
type blockPool struct {
	blocks []*memberBlock
	next   []int32
	free   int32
}

func (p *blockPool) block(b int32) *memberBlock { return p.blocks[b-1] }

// get takes a block off the free list, or makes one.
func (p *blockPool) get() int32 {
	b := p.free
	if b == 0 {
		p.blocks = append(p.blocks, new(memberBlock))
		p.next = append(p.next, 0)
		return int32(len(p.blocks))
	}
	p.free, p.next[b-1] = p.next[b-1], 0
	return b
}

// put returns a block whose members have all been popped.
func (p *blockPool) put(b int32) {
	p.next[b-1], p.free = p.free, b
}

func siftUp(h []member, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !memberLess(h[i], h[parent]) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func popMin(h *[]member) {
	s := *h
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && memberLess(s[l], s[min]) {
			min = l
		}
		if r < n && memberLess(s[r], s[min]) {
			min = r
		}
		if min == i {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	*h = s
}
