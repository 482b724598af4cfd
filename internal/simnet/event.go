package simnet

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"

	"repro/internal/invariant"
	"repro/internal/simnet/framepool"
)

// The event queue dispatches in (at, prio, sub) order (orderKey). A
// fabric's events come in two horizons, frame deliveries 100 µs out and
// keep-alive timers 50 ms to 9 s out, and its keep-alives fire in lockstep,
// so the queue is five structures. DESIGN.md §7 scores each against the
// simplest thing that would replace it.
//
//   - The wire heap (Sim.wires) holds the records of busy link directions.
//     A direction delivers in (at, tie) order, so it keeps its frames in a
//     ring and one permanent record, keyed to the ring's head, stands for
//     it (wire.go).
//   - The calendar (Sim.cal) holds the timers of later bins. A bin is
//     at>>binShift (1.05 ms). The next wheelBins bins are a wheel of
//     unordered doubly-linked lists threaded through the records, with an
//     occupancy bitmap; later ones are in an overflow heap. Arming, stopping
//     and re-arming a far timer is a list link or unlink.
//   - The near heap (Sim.near) holds every timer whose bin is not after the
//     calendar's current one. When it runs dry, turn moves the next occupied
//     bin into it.
//   - The near run (Sim.nearRun) is such a bin when it is runMin timers or
//     more in at most runMerge ascending stretches of arm order, as lockstep
//     hellos re-armed in the order they fire are: turn merges the stretches
//     in O(n) instead of heapifying the bin.
//   - The wire batch (Sim.batch) collects the directions that go busy for
//     one later instant, from the second on. Once nothing comes before that
//     instant, order sorts it in place into a run (a counting sort on prio,
//     then insertion by sub), or moves it to the wire heap when it is small.
//
// A run is dispatched front to back by a cursor (see run). Dispatch takes
// the least of the wire root, the near root and the two cursors. That is the
// minimum of everything scheduled: every other timer lies in a later bin,
// and the batch is sorted before anything at its instant is dispatched.
// Since (at, prio, sub) is a strict total order, whichever structure yields
// the minimum yields the same sequence.
//
// Every record knows where it is (loc, and idx within a heap or run), so
// Timer.Stop and Timer.Reset move it at once. A record leaving a run leaves
// a hole that the cursor skips; nothing else is left behind. Fired and
// cancelled records go on a freelist, and a generation counter invalidates
// stale Timer handles. An egress-queue slot coming free is not an event:
// Port.Send records the key the release would have carried, and the queue
// depth is read off the dispatch frontier (see passMark). A heap entry holds
// its key inline beside the record pointer, 32 bytes, so sift comparisons
// stay within the slice, and heapPop works bottom up to halve its
// comparisons.

type eventKind uint8

const (
	evFunc eventKind = iota // run fn
	evWire                  // deliver the head of dir's flight ring; the record is dir's own and never freed

	// evFreed poisons records sitting on the freelist. Every alloc caller
	// assigns a real kind, so under -tags invariants a record dispatched or
	// released while still poisoned is a freelist-discipline bug
	// (DESIGN.md §13).
	evFreed eventKind = 0xFF
)

// eventLoc says which structure holds a scheduled record.
type eventLoc uint8

const (
	locNone  eventLoc = iota // not scheduled; for a wire record, nothing in flight
	locNear                  // Sim.near
	locWheel                 // on the calendar wheel's list for its bin
	locOver                  // calendar.over
	locRun                   // a run: Sim.nearRun for a timer, Sim.batch (sorted) for a wire record
	locWires                 // Sim.wires
	locBatch                 // Sim.batch, not yet sorted
)

// event is a scheduled occurrence: its payload, where it sits, and which
// incarnation it is (gen).
type event struct {
	idx int32  // position in the heap, run or batch that holds it, -1 when in none
	gen uint32 // bumped on release; validates Timer handles

	kind eventKind
	loc  eventLoc
	fn   func()    // evFunc
	dir  *dirState // evWire

	// key is the record's place in the order. A heap entry carries a copy;
	// on the wheel and in a run or batch this is the only one. A wire
	// record's key is its ring's head: kept here while it is in the batch,
	// in the wire heap's entry otherwise.
	key orderKey
	// next and prev thread the record onto its bin's list while loc is
	// locWheel.
	next, prev *event
}

// orderKey is an event's place in the dispatch order. Events are totally
// ordered by (at, prio, sub). The key is built from who an event belongs
// to, not from when it happened to be scheduled, so same-instant order is a
// property of the fabric rather than of the interleaving that led up to it;
// every checked-in artifact and golden digest depends on this exact order.
//
//   - prio encodes the owning node and event class: 0 for control events
//     (scheduled from outside any node's context — harness code, chaos
//     closures, workload launches), (node+1)<<2|1 for a node's local events
//     (timers, egress-queue releases), (node+1)<<2|2 for frame deliveries to
//     the node. At one instant, control runs first, then each node's locals
//     before its frame arrivals, nodes in ID order.
//   - sub breaks what remains, by class. A frame delivery's is its transmit
//     key, tie (source node, source port, per-direction transmit counter),
//     so two frames reaching one node at the same instant order by sender,
//     not by enqueue order. Every other event's is seq (scheduling order):
//     same-node same-class events fire in the order they were scheduled.
//     Port.Send draws a seq too, so that every other event's seq is
//     independent of how frames are kept.
//
// One field serves both because keys that agree on prio are of one class:
// only a wire record carries the frame class, never a timer, a control
// event or an egress-queue release (relKey). So this is the order
// (at, prio, tie, seq) with frames at seq 0 and everything else at tie 0.
type orderKey struct {
	at   time.Duration
	prio uint32
	sub  uint64
}

// heapEntry is one slot of a scheduling heap, 32 bytes: the key inline, so
// sift comparisons stay within the slice, and the record it schedules.
type heapEntry struct {
	orderKey
	ev *event
}

// eventHeap is an indexed binary min-heap ordered by (at, prio, sub): every
// entry's record holds the entry's position in idx.
type eventHeap []heapEntry

// Event classes within prio (low two bits).
const (
	classControl = 0 // prio is exactly 0
	classLocal   = 1
	classFrame   = 2
)

// nodePrio builds the prio key for a node-owned event of the given class.
func nodePrio(node int32, class uint32) uint32 {
	return uint32(node+1)<<2 | class
}

func entryLess(a, b *heapEntry) bool { return a.less(&b.orderKey) }

func (a *orderKey) less(b *orderKey) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.sub < b.sub
}

// alloc takes an event record off the freelist (or makes one).
func (s *Sim) alloc() *event {
	if n := len(s.free); n > 0 {
		ev := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		if invariant.Enabled {
			invariant.Assert(ev.kind == evFreed, "simnet: freelist record not poisoned (released twice or written after release)")
		}
		return ev
	}
	return &event{idx: -1}
}

// release recycles a record that is no longer scheduled. The generation bump
// invalidates any Timer still holding it.
func (s *Sim) release(ev *event) {
	if invariant.Enabled {
		invariant.Assert(ev.kind != evFreed, "simnet: double release of event record")
		invariant.Assert(ev.kind != evWire, "simnet: releasing a direction's permanent wire record")
		invariant.Assert(ev.idx < 0 && ev.loc == locNone, "simnet: releasing an event still scheduled")
	}
	ev.gen++
	ev.kind = evFreed
	ev.fn = nil
	s.free = append(s.free, ev)
}

// ctxPrio derives the prio key for an event scheduled in the current
// execution context: a node's local class while dispatching that node's
// events (or running its Handler.Start), the control class otherwise.
func (s *Sim) ctxPrio() uint32 {
	if s.curOwner < 0 {
		return classControl
	}
	return nodePrio(s.curOwner, classLocal)
}

// schedule allocates and enqueues an event that runs fn at absolute time at,
// keyed to the current execution context. Scheduling in the past is a
// programming error and panics.
func (s *Sim) schedule(at time.Duration, fn func()) *event {
	if at < s.now {
		panic(fmt.Sprintf("simnet: scheduling event at %v before now %v", at, s.now))
	}
	ev := s.alloc()
	ev.kind, ev.fn = evFunc, fn
	s.seq++
	ev.key = orderKey{at: at, prio: s.ctxPrio(), sub: s.seq}
	s.arm(ev)
	return ev
}

// --- indexed min-heap -------------------------------------------------------

func (s *Sim) heapPush(h *eventHeap, e heapEntry) {
	n := len(*h)
	*h = append(*h, heapEntry{})
	h.siftUp(n, &e)
	if invariant.Enabled {
		s.checkHeap(h, int(e.ev.idx))
	}
}

// siftUp settles e into the hole at index i or above it.
func (h eventHeap) siftUp(i int, e *heapEntry) {
	for i > 0 {
		parent := (i - 1) / 2
		if !entryLess(e, &h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].ev.idx = int32(i)
		i = parent
	}
	// Field by field: heapPush's e is a literal its caller built on the stack
	// with 8-byte stores, and copying it whole loads it back 16 bytes at a
	// time, which stalls the pipeline on every frame launched onto an idle
	// wire (8 % of a fabric-scale profile).
	slot := &h[i]
	slot.at, slot.prio, slot.sub, slot.ev = e.at, e.prio, e.sub, e.ev
	e.ev.idx = int32(i)
}

func (h eventHeap) siftDown(i int) {
	n := len(h)
	e := h[i]
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		c := l
		if r := l + 1; r < n && entryLess(&h[r], &h[l]) {
			c = r
		}
		if !entryLess(&h[c], &e) {
			break
		}
		h[i] = h[c]
		h[i].ev.idx = int32(i)
		i = c
	}
	h[i] = e
	e.ev.idx = int32(i)
}

// heapFix restores heap order after the entry at index i was re-timed.
func (s *Sim) heapFix(h *eventHeap, i int) {
	ev := (*h)[i].ev
	h.siftDown(i)
	if int(ev.idx) == i {
		e := (*h)[i]
		h.siftUp(i, &e)
	}
	if invariant.Enabled {
		s.checkHeap(h, int(ev.idx))
	}
}

// heapify orders h, whose records already hold their positions, bottom up.
func (h eventHeap) heapify() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

// heapPop removes the earliest entry, bottom up: the hole at the root
// follows the smaller child down to a leaf, one comparison per level, and
// the last entry settles into it from there. That entry came from the
// bottom level, so it seldom climbs far; sinking it from the root would
// cost two comparisons per level, all the way down.
func (s *Sim) heapPop(h *eventHeap) {
	q := *h
	q[0].ev.idx = -1
	n := len(q) - 1
	e := q[n]
	q[n] = heapEntry{}
	q = q[:n]
	*h = q
	if n > 0 {
		i := 0
		for c := 1; c < n; c = 2*i + 1 {
			if c+1 < n && entryLess(&q[c+1], &q[c]) {
				c++
			}
			q[i] = q[c]
			q[i].ev.idx = int32(i)
			i = c
		}
		q.siftUp(i, &e)
		if invariant.Enabled {
			// The slots that moved are e's ancestors.
			s.checkHeap(h, int(e.ev.idx))
		}
	}
}

// heapRemove removes the entry at index i.
func (s *Sim) heapRemove(h *eventHeap, i int) {
	q := *h
	last := len(q) - 1
	ev := q[i].ev
	if i != last {
		moved := q[last].ev
		q[i] = q[last]
		moved.idx = int32(i)
		q[last] = heapEntry{}
		*h = q[:last]
		h.siftDown(i)
		if int(moved.idx) == i {
			e := (*h)[i]
			h.siftUp(i, &e)
		}
	} else {
		q[last] = heapEntry{}
		*h = q[:last]
	}
	ev.idx = -1
	if invariant.Enabled {
		s.checkHeap(h, i)
	}
}

// --- calendar of far timers --------------------------------------------------

const (
	// binShift makes a bin 2^20 ns (1.05 ms) and wheelBins makes the wheel
	// 1.07 s long: hello, BFD and keep-alive intervals land on the wheel,
	// hold timers and pre-armed workload launches in the overflow heap. A
	// wheel of 4096 bins of 2^18 ns measured equal on both control-plane
	// workloads and allocated 2 % more.
	binShift  = 20
	wheelBins = 1024

	// runMin is the fewest entries a calendar bin or a wire batch holds to be
	// dispatched as a run, and runMerge the most ascending stretches of a
	// bin's timers turn merges into one: below the one and above the other a
	// heap costs less. A 24-PoD fabric's lockstep bins hold 1 920–2 688
	// timers in 1–3 stretches.
	runMin   = 32
	runMerge = 4
)

// binOf is the calendar bin an instant falls in, slotOf the wheel slot a bin
// maps to.
func binOf(at time.Duration) int64 { return int64(at) >> binShift }
func slotOf(bin int64) int64       { return bin & (wheelBins - 1) }

// calendar holds the timers due in bins after cur: those of the next
// wheelBins-1 bins on the wheel, under slot bin%wheelBins, the rest in over.
// A timer armed for the overflow stays there when the wheel comes within
// reach of it; turn looks at both.
type calendar struct {
	cur    int64                  // every timer of a bin ≤ cur is in Sim.near
	wheelN int                    // timers on the wheel
	heads  [wheelBins]*event      // per slot, an unordered list of the timers of one bin
	occ    [wheelBins / 64]uint64 // bit per slot: its list is not empty
	over   eventHeap              // timers armed wheelBins or more bins ahead
}

func (c *calendar) occupied(slot int64) bool { return c.occ[slot>>6]&(1<<(slot&63)) != 0 }

// arm puts a keyed evFunc record where its deadline belongs.
func (s *Sim) arm(ev *event) {
	c := &s.cal
	b := binOf(ev.key.at)
	switch {
	case b <= c.cur:
		ev.loc = locNear
		s.heapPush(&s.near, heapEntry{ev.key, ev})
	case b-c.cur < wheelBins:
		slot := slotOf(b)
		head := c.heads[slot]
		ev.loc, ev.next = locWheel, head
		if head != nil {
			head.prev = ev
		}
		c.heads[slot] = ev
		c.occ[slot>>6] |= 1 << (slot & 63)
		c.wheelN++
		if invariant.Enabled {
			s.checkWheel(slot)
		}
	default:
		ev.loc = locOver
		s.heapPush(&c.over, heapEntry{ev.key, ev})
	}
}

// disarm takes a scheduled evFunc record out of whichever structure holds it.
func (s *Sim) disarm(ev *event) {
	c := &s.cal
	loc := ev.loc
	ev.loc = locNone
	switch loc {
	case locNear:
		s.heapRemove(&s.near, int(ev.idx))
	case locOver:
		s.heapRemove(&c.over, int(ev.idx))
	case locRun:
		s.nearRun.buf[ev.idx] = nil // a hole the cursor skips
		ev.idx = -1
	case locWheel:
		slot := slotOf(binOf(ev.key.at))
		if ev.next != nil {
			ev.next.prev = ev.prev
		}
		if ev.prev != nil {
			ev.prev.next = ev.next
		} else {
			c.heads[slot] = ev.next
			if ev.next == nil {
				c.occ[slot>>6] &^= 1 << (slot & 63)
			}
		}
		ev.next, ev.prev = nil, nil
		c.wheelN--
		if invariant.Enabled {
			s.checkWheel(slot)
		}
	}
}

// nextBin is the first occupied bin of the wheel after cur. The wheel must
// not be empty.
func (c *calendar) nextBin() int64 {
	start := uint64(slotOf(c.cur + 1))
	w, off := start>>6, start&63
	if m := c.occ[w] >> off; m != 0 {
		return c.cur + 1 + int64(bits.TrailingZeros64(m))
	}
	// Word by word round the wheel; the last step is the first word again,
	// for the bits below off.
	skipped := 64 - off
	for {
		w = (w + 1) % uint64(len(c.occ))
		if m := c.occ[w]; m != 0 {
			return c.cur + 1 + int64(skipped) + int64(bits.TrailingZeros64(m))
		}
		skipped += 64
	}
}

// turn advances the calendar to its next occupied bin and moves that bin's
// timers into the near run, or the near heap when they are too few or too
// far from arm order. It runs when both are empty and the calendar is not,
// and dispatches nothing.
func (s *Sim) turn() {
	c := &s.cal
	b := int64(math.MaxInt64)
	if c.wheelN > 0 {
		b = c.nextBin()
	}
	if len(c.over) > 0 {
		if o := binOf(c.over[0].at); o < b {
			b = o
		}
	}
	c.cur = b
	slot := slotOf(b)
	// Every wheel timer lies fewer than wheelBins bins after the old cur
	// and after the new one, so a slot holds one bin: this list is all of
	// bin b and nothing else. arm pushes onto the front, so the list runs
	// in reverse arm order and an ascending stretch of arm order is a
	// descending one here; starts marks where each of the first runMerge+1
	// stretches begins.
	ev := c.heads[slot]
	c.heads[slot] = nil
	c.occ[slot>>6] &^= 1 << (slot & 63)
	var starts [runMerge + 1]int
	stretches := 0
	near := s.near[:0]
	for ev != nil {
		next := ev.next
		ev.next, ev.prev = nil, nil
		ev.loc, ev.idx = locNear, int32(len(near))
		c.wheelN--
		if n := len(near); n == 0 || near[n-1].less(&ev.key) {
			if stretches <= runMerge {
				starts[stretches] = n
			}
			stretches++
		}
		near = append(near, heapEntry{ev.key, ev})
		ev = next
	}
	// The overflow yields its timers of the bin in order: reversed, they are
	// one more descending stretch.
	if from := len(near); len(c.over) > 0 && binOf(c.over[0].at) <= b {
		for len(c.over) > 0 && binOf(c.over[0].at) <= b {
			e := c.over[0]
			s.heapPop(&c.over)
			e.ev.loc, e.ev.idx = locNear, int32(len(near))
			near = append(near, e)
		}
		slices.Reverse(near[from:])
		for i := from; i < len(near); i++ {
			near[i].ev.idx = int32(i)
		}
		if stretches <= runMerge {
			starts[stretches] = from
		}
		stretches++
	}
	if len(near) < runMin || stretches > runMerge {
		near.heapify()
		s.near = near
		if invariant.Enabled {
			s.checkWheel(slot)
			for i := range near {
				s.checkEntry(&s.near, i)
			}
		}
		return
	}
	s.near = near[:0]
	s.nearRun.merge(near, starts[:stretches])
	if invariant.Enabled {
		s.checkWheel(slot)
		s.checkRun(&s.nearRun, len(near))
	}
}

// --- runs --------------------------------------------------------------------

// run is a stretch of records already in (at, prio, sub) order of their
// keys, dispatched front to back by a cursor: no sift, and no log(depth)
// per event. A record in a run has loc locRun and idx its position. A run
// holds pointers, not heap entries: the key is read from the record, and a
// run is a slice per Sim as long as the fabric has ports, a quarter of the
// memory this way. A record that leaves before its turn — a stopped or
// re-armed timer, a direction whose head was overtaken — leaves a hole
// (nil) that the cursor skips.
type run struct {
	buf  []*event
	next int // the cursor: buf[:next] is dispatched
}

// peek returns the run's next record, skipping holes, or nil when the run
// is spent, which it then empties.
func (r *run) peek() *event {
	for ; r.next < len(r.buf); r.next++ {
		if ev := r.buf[r.next]; ev != nil {
			return ev
		}
	}
	r.buf, r.next = r.buf[:0], 0
	return nil
}

// merge makes r, which is spent, a run of the records of src, a sequence of
// descending stretches beginning at starts. It takes the least of the
// stretches' tails until all are empty: O(n) for a fixed few stretches.
func (r *run) merge(src []heapEntry, starts []int) {
	n := len(src)
	if cap(r.buf) < n {
		r.buf = make([]*event, 0, n+n/4)
	}
	out := r.buf[:n]
	var lo, hi [runMerge]int // stretch k's untaken entries are src[lo[k]:hi[k]]
	k := len(starts)
	for j, st := range starts {
		lo[j] = st
		if j+1 < k {
			hi[j] = starts[j+1]
		} else {
			hi[j] = n
		}
	}
	for i := range out {
		best := -1
		for j := 0; j < k; j++ {
			if hi[j] > lo[j] && (best < 0 || entryLess(&src[hi[j]-1], &src[hi[best]-1])) {
				best = j
			}
		}
		hi[best]--
		ev := src[hi[best]].ev
		out[i] = ev
		ev.loc, ev.idx = locRun, int32(i)
	}
	r.buf, r.next = out, 0
}

// batch is the wire's run. Until its instant is next it collects, unordered
// (loc locBatch), the records of the directions that go busy for that one
// instant, each keyed in its own key field; then order sorts it in place
// into a run (sorted, loc locRun) or, when it holds fewer than runMin,
// moves it to the wire heap. A sorted batch takes no more records: it is
// spent before it collects again.
type batch struct {
	run
	at     time.Duration
	last   time.Duration // the instant the last direction sent to the wire heap goes busy for
	sorted bool
	lo, hi uint32  // the least and greatest prio>>2 collected
	counts []int32 // counting-sort scratch, two per destination node
}

// wireArm puts the record of direction d, which just went busy, where its
// first delivery (at, tie) belongs. A batch starts at the second direction
// to go busy for one later instant, so that a lone frame, the common case
// off the lockstep, goes to the wire heap at once, as does the first of a
// lockstep instant; then the batch collects the rest. A batch too small to
// become a run starts over at the next instant two directions share.
func (s *Sim) wireArm(d *dirState, at time.Duration, tie uint64) {
	k := orderKey{at: at, prio: d.prio, sub: tie}
	b := &s.batch
	if at <= s.now || b.sorted {
		s.wirePush(&d.ev, k)
		return
	}
	if n := len(b.buf); n == 0 || b.at != at {
		if at != b.last || n >= runMin {
			b.last = at
			s.wirePush(&d.ev, k)
			return
		}
		s.spill()
		if cap(b.buf) == 0 {
			// Once per Sim: a direction is collected at most once.
			b.buf = make([]*event, 0, 2*len(s.links))
		}
		b.at, b.lo, b.hi = at, d.prio>>2, d.prio>>2
	}
	b.lo, b.hi = min(b.lo, d.prio>>2), max(b.hi, d.prio>>2)
	d.ev.key = k
	d.ev.loc, d.ev.idx = locBatch, int32(len(b.buf))
	b.buf = append(b.buf, &d.ev)
}

// wirePush puts a direction's record into the wire heap under key k.
func (s *Sim) wirePush(ev *event, k orderKey) {
	ev.loc = locWires
	s.heapPush(&s.wires, heapEntry{k, ev})
}

// wireRekey moves the record of busy direction d to its new first delivery
// (at, tie), a frame that overtook the old head. Out of the batch or run it
// goes to the wire heap.
func (s *Sim) wireRekey(d *dirState, at time.Duration, tie uint64) {
	ev := &d.ev
	switch ev.loc {
	case locWires:
		e := &s.wires[ev.idx]
		e.at, e.sub = at, tie
		s.heapFix(&s.wires, int(ev.idx))
		return
	case locBatch:
		b := &s.batch
		last := len(b.buf) - 1
		if i := int(ev.idx); i != last {
			b.buf[i] = b.buf[last]
			b.buf[i].idx = int32(i)
		}
		b.buf[last] = nil
		b.buf = b.buf[:last]
	case locRun:
		s.batch.buf[ev.idx] = nil
	}
	s.wirePush(ev, orderKey{at: at, prio: d.prio, sub: tie})
}

// spill moves the unsorted batch into the wire heap.
func (s *Sim) spill() {
	b := &s.batch
	for i, ev := range b.buf {
		s.wirePush(ev, ev.key)
		b.buf[i] = nil
	}
	b.buf = b.buf[:0]
}

// order readies the batch for dispatch once nothing else comes before its
// instant: a run when it is large enough, else the wire heap's. Its entries
// share at and all are deliveries, so the order is prio, then sub. A
// counting sort on prio places them in O(n + nodes), permuting in place, and
// an insertion sort then orders each destination's few by sub.
func (s *Sim) order() {
	b := &s.batch
	if len(b.buf) < runMin {
		s.spill()
		return
	}
	q := b.buf
	nb := int(b.hi-b.lo) + 1
	if cap(b.counts) < 2*nb {
		// Once per Sim, for every node there is.
		b.counts = make([]int32, 2*max(nb, len(s.nodeOrder)+1))
	}
	next, end := b.counts[:nb], b.counts[nb:2*nb]
	clear(next)
	for _, ev := range q {
		next[ev.key.prio>>2-b.lo]++
	}
	sum := int32(0)
	for k, c := range next {
		next[k] = sum
		sum += c
		end[k] = sum
	}
	for k := range next {
		for i := next[k]; i < end[k]; i = next[k] {
			t := q[i].key.prio>>2 - b.lo
			if int(t) == k {
				next[k]++
				continue
			}
			q[i], q[next[t]] = q[next[t]], q[i]
			next[t]++
		}
	}
	for i := 1; i < len(q); i++ {
		ev := q[i]
		j := i
		for ; j > 0 && ev.key.less(&q[j-1].key); j-- {
			q[j] = q[j-1]
		}
		q[j] = ev
	}
	for i, ev := range q {
		ev.loc, ev.idx = locRun, int32(i)
	}
	b.sorted, b.next = true, 0
	if invariant.Enabled {
		s.checkRun(&b.run, len(q))
	}
}

// --- dispatch frontier ------------------------------------------------------

// passMark records how far dispatch has got in the total order. An
// egress-queue release is not scheduled; it is a key (relKey) that counts as
// a free slot once the order has passed it, which is exactly when the heap
// would have popped it: at the first event dispatched after the release was
// recorded whose key is larger, or when a RunUntil horizon reaches its
// instant.
//
// Dispatch keys almost always increase, and then the frontier is one mark,
// the event being dispatched. They can step back within an instant — a
// frame handler arms a zero-delay timer, a zero-latency wire delivers to a
// lower-numbered node — and a release recorded after the larger key went by
// must not be counted against it. So the frontier keeps every mark that no
// later mark has reached (keys decreasing, born increasing, all at the
// current instant), and a release is judged by the largest mark made after
// it was recorded.
type passMark struct {
	key  orderKey
	born uint64 // Sim.seq when the mark was made; later releases have seq > born
}

// advance moves the frontier to k, dropping the marks k has reached.
func (s *Sim) advance(k *orderKey) {
	f := s.frontier
	n := len(f)
	for n > 0 && !k.less(&f[n-1].key) {
		n--
	}
	f = append(f[:n], passMark{})
	// Filled in field by field: a struct literal is built on the stack and
	// copied with wider loads than it was stored with, which stalls the
	// pipeline on every event.
	f[n].key, f[n].born = *k, s.seq
	s.frontier = f
}

// passed reports whether the dispatch order has gone by the release key r.
func (s *Sim) passed(r *relKey) bool {
	if r.at != s.now {
		return r.at < s.now
	}
	// Every mark is at s.now. The first one made after r was recorded is the
	// largest such key.
	for i := range s.frontier {
		if m := &s.frontier[i]; m.born >= r.seq {
			k := orderKey{at: r.at, prio: r.prio, sub: r.seq}
			return k.less(&m.key)
		}
	}
	return false
}

// --- public scheduling API --------------------------------------------------

// At schedules fn at absolute virtual time t and returns a cancellable,
// re-armable handle.
func (s *Sim) At(t time.Duration, fn func()) *Timer {
	ev := s.schedule(t, fn)
	return &Timer{sim: s, ev: ev, gen: ev.gen, fn: fn}
}

// After schedules fn d from now and returns a cancellable timer.
func (s *Sim) After(d time.Duration, fn func()) *Timer {
	return s.At(s.now+d, fn)
}

// Schedule runs fn d from now. It is the fire-and-forget variant of After
// for callers that never stop or re-arm the event: no handle is allocated.
func (s *Sim) Schedule(d time.Duration, fn func()) {
	s.schedule(s.now+d, fn)
}

// Timer is a handle to a scheduled event. The callback is retained by the
// handle, so Reset re-arms correctly whether the event is pending, already
// fired, or was stopped.
type Timer struct {
	sim *Sim
	ev  *event
	gen uint32
	fn  func()
}

// pending reports whether the timer's event is still scheduled (the record
// may have been recycled for an unrelated event; the generation check
// detects that).
func (t *Timer) pending() bool {
	return t.ev != nil && t.ev.gen == t.gen && t.ev.loc != locNone
}

// Stop cancels the timer if it has not fired, removing its event from the
// queue at once. It reports whether the call prevented the timer from
// firing.
func (t *Timer) Stop() bool {
	if t == nil || !t.pending() {
		return false
	}
	ev := t.ev
	t.ev = nil
	t.sim.disarm(ev)
	t.sim.release(ev)
	return true
}

// Reset re-arms the timer to fire d from now with the original callback. A
// pending event keeps its record and moves to where the new deadline belongs
// (no allocation, nothing left behind); a fired or stopped timer is
// scheduled afresh.
func (t *Timer) Reset(d time.Duration) {
	s := t.sim
	at := s.now + d
	if at < s.now {
		panic(fmt.Sprintf("simnet: resetting timer to %v before now %v", at, s.now))
	}
	if t.pending() {
		ev := t.ev
		s.disarm(ev)
		s.seq++
		ev.key = orderKey{at: at, prio: s.ctxPrio(), sub: s.seq}
		s.arm(ev)
		return
	}
	ev := s.schedule(at, t.fn)
	t.ev = ev
	t.gen = ev.gen
}

// --- event loop -------------------------------------------------------------

// head returns the next event in the order and its key, nil when nothing
// is scheduled: the least of the near run's cursor, the near root, the
// batch's cursor and the wire root. It turns the calendar when the near
// side is dry, and readies the batch once nothing else comes before its
// instant.
func (s *Sim) head() (*orderKey, *event) {
	var k *orderKey
	ev := s.nearRun.peek()
	if ev == nil && len(s.near) == 0 && (s.cal.wheelN > 0 || len(s.cal.over) > 0) {
		s.turn()
		ev = s.nearRun.peek()
	}
	if ev != nil {
		k = &ev.key
	}
	if len(s.near) > 0 && (ev == nil || s.near[0].less(k)) {
		k, ev = &s.near[0].orderKey, s.near[0].ev
	}
	b := &s.batch
	if len(b.buf) > 0 {
		if !b.sorted && (ev == nil || b.at <= k.at) && (len(s.wires) == 0 || b.at <= s.wires[0].at) {
			s.order()
		}
		if b.sorted {
			if w := b.peek(); w == nil {
				b.sorted = false
			} else if ev == nil || w.key.less(k) {
				k, ev = &w.key, w
			}
		}
	}
	if len(s.wires) > 0 && (ev == nil || s.wires[0].less(k)) {
		k, ev = &s.wires[0].orderKey, s.wires[0].ev
	}
	return k, ev
}

// Step processes the next event. It reports false when the queue is empty.
func (s *Sim) Step() bool {
	if invariant.Enabled {
		s.checkLive()
	}
	k, ev := s.head()
	if ev == nil {
		return false
	}
	s.dispatch(*k, ev)
	return true
}

// dispatch processes ev, which head returned with its key k.
func (s *Sim) dispatch(k orderKey, ev *event) {
	// The queue is made consistent before anything is dispatched: a busy
	// direction's record is re-keyed to its next frame, a timer leaves the
	// near heap or run.
	var frame []byte
	var fh framepool.Handle
	if ev.kind == evWire {
		frame, fh = s.takeFlight(ev.dir)
	} else {
		if ev.loc == locNear {
			s.heapPop(&s.near)
		} else {
			if invariant.Enabled {
				invariant.Assert(ev.loc == locRun && int(ev.idx) == s.nearRun.next, "simnet: dispatching a timer that is neither the near root nor the near run's cursor")
			}
			s.nearRun.next++
			ev.idx = -1
		}
		ev.loc = locNone
	}
	s.events++
	s.advance(&k)
	s.now = k.at
	// Attribute the dispatch to the event's owning node so everything it
	// schedules inherits that node's ordering key.
	prev := s.curOwner
	if k.prio == classControl {
		s.curOwner = -1
	} else {
		s.curOwner = int32(k.prio>>2) - 1
	}
	switch ev.kind {
	case evFunc:
		fn := ev.fn
		s.release(ev)
		fn()
	case evWire:
		if invariant.Enabled {
			s.frames.Check(fh)
		}
		d := ev.dir
		s.deliver(d.src, d.dst, d.link, frame)
	default:
		if invariant.Enabled {
			invariant.Assert(false, "simnet: dispatching event with unknown kind (freed record left in the queue?)")
		}
	}
	s.curOwner = prev
}

// RunUntil processes every event scheduled at or before t, then advances the
// clock to exactly t.
func (s *Sim) RunUntil(t time.Duration) {
	if invariant.Enabled {
		s.checkLive()
	}
	for k, ev := s.head(); ev != nil && k.at <= t; k, ev = s.head() {
		s.dispatch(*k, ev)
	}
	if t >= s.now {
		// Nothing at or before t is left, so every queue release up to t has
		// happened too: the horizon is a mark above any key at t.
		s.now = t
		s.advance(&orderKey{at: t, prio: math.MaxUint32, sub: math.MaxUint64})
	}
}

// RunFor advances the simulation by d.
func (s *Sim) RunFor(d time.Duration) { s.RunUntil(s.now + d) }
