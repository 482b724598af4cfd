package simnet

import (
	"fmt"
	"math"
	"math/bits"
	"time"

	"repro/internal/invariant"
	"repro/internal/simnet/framepool"
)

// The scheduling core is split by how far ahead an event is due, because a
// fabric's events come in two horizons: frame deliveries 100 µs out, and
// keep-alive timers 50 ms to 9 s out. In one binary heap every frame climbed
// past all the timers on the way in and sank past them on the way out, and
// every timer pop sank through all of both. There are three structures:
//
//   - The wire heap (Sim.wires) holds nothing but the permanent records of
//     busy link directions. Frames in flight are not queued one by one: a
//     direction delivers in (at, tie) order, so it keeps its own frames in a
//     ring and one record, keyed to the ring's head, stands for it (wire.go).
//     Port.Send schedules no closures and, on a wire that is already busy,
//     touches no heap at all; on a control-plane fabric a handful of
//     directions are busy at once, so the heap is two to four levels deep.
//   - The calendar (Sim.cal) holds the timers of later bins. A bin is
//     at>>binShift (1.05 ms). The next wheelBins bins (1.07 s) are a wheel
//     of unordered doubly-linked lists threaded through the event records,
//     with an occupancy bitmap to skip the empty ones; what lies beyond is
//     in an overflow heap. Arming, stopping and re-arming a far timer is a
//     list link or unlink: no sift.
//   - The near heap (Sim.near) holds every timer whose bin is not after the
//     calendar's current one. When it runs dry, turn advances the calendar
//     to its next occupied bin and empties that bin into it.
//
// Dispatch takes the smaller of the wire root and the near root. That is the
// minimum of everything scheduled because every timer outside the near heap
// has at>>binShift greater than the current bin, hence a larger at than any
// timer in it, and it is why a bin need not be sorted: (at, prio, sub) is a
// strict total order, so whatever structure yields the minimum yields the
// same sequence, and a bin is only ever emptied whole into a heap that does
// sort. The near heap is empty when that happens, so turn heapifies the bin
// in O(n) instead of pushing its timers one by one.
//
// Around that:
//
//   - Every record knows where it is (loc, and idx within a heap), so
//     Timer.Stop removes it at once and Timer.Reset moves it to the place
//     its new deadline belongs; nothing is abandoned as a tombstone to sit
//     in the queue until its original deadline.
//   - Fired and cancelled events go on a freelist and are reused; a
//     generation counter on each record invalidates stale Timer handles.
//   - An egress-queue slot coming free is not an event at all: Port.Send
//     records the key the release would have carried and the queue depth is
//     read off the dispatch frontier (see passMark).
//
// A heap stores the ordering key inline next to the event pointer, so the
// sift comparisons stay within the contiguous slice instead of
// dereferencing a pointer per compared element; an entry is 32 bytes, two
// to a cache line. A fabric's keep-alives fire in lockstep, so both heaps
// run hundreds deep, and heapPop works bottom up to halve its comparisons.

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

// eventLoc says which structure holds a scheduled evFunc record. A wire
// record lives in the wire heap or nowhere and is told apart by idx alone.
type eventLoc uint8

const (
	locNone  eventLoc = iota // not scheduled
	locNear                  // Sim.near
	locWheel                 // on the calendar wheel's list for its bin
	locOver                  // calendar.over
)

// event is a scheduled occurrence: its payload, where it sits, and which
// incarnation it is (gen).
type event struct {
	idx int32  // position in the heap that holds it, -1 when in none
	gen uint32 // bumped on release; validates Timer handles

	kind eventKind
	loc  eventLoc
	fn   func()    // evFunc
	dir  *dirState // evWire

	// key is an evFunc record's place in the order. A heap entry carries a
	// copy; on the wheel this is the only one. (A wire record's key is its
	// ring's head.)
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
// timers into the near heap. It runs when the near heap is empty and the
// calendar is not, and dispatches nothing.
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
	// bin b and nothing else.
	ev := c.heads[slot]
	c.heads[slot] = nil
	c.occ[slot>>6] &^= 1 << (slot & 63)
	near := s.near[:0]
	for ev != nil {
		next := ev.next
		ev.next, ev.prev = nil, nil
		ev.loc, ev.idx = locNear, int32(len(near))
		c.wheelN--
		near = append(near, heapEntry{ev.key, ev})
		ev = next
	}
	for len(c.over) > 0 && binOf(c.over[0].at) <= b {
		e := c.over[0]
		s.heapPop(&c.over)
		e.ev.loc, e.ev.idx = locNear, int32(len(near))
		near = append(near, e)
	}
	near.heapify()
	s.near = near
	if invariant.Enabled {
		s.checkWheel(slot)
		for i := range near {
			s.checkEntry(&s.near, i)
		}
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

// head returns the heap whose root is the next event in the order, nil when
// nothing is scheduled. It turns the calendar when the near heap is dry.
func (s *Sim) head() *eventHeap {
	if len(s.near) == 0 && (s.cal.wheelN > 0 || len(s.cal.over) > 0) {
		s.turn()
	}
	switch {
	case len(s.wires) == 0:
		if len(s.near) == 0 {
			return nil
		}
		return &s.near
	case len(s.near) == 0 || entryLess(&s.wires[0], &s.near[0]):
		return &s.wires
	}
	return &s.near
}

// Step processes the next event. It reports false when the queue is empty.
func (s *Sim) Step() bool {
	if invariant.Enabled {
		s.checkLive()
	}
	h := s.head()
	if h == nil {
		return false
	}
	s.dispatch(h)
	return true
}

// dispatch processes the root of h, which head returned.
func (s *Sim) dispatch(h *eventHeap) {
	e := (*h)[0]
	ev := e.ev
	// The queue is made consistent before anything is dispatched: a busy
	// direction's record is re-keyed to its next frame in place, a timer
	// leaves the near heap.
	var frame []byte
	var fh framepool.Handle
	if ev.kind == evWire {
		frame, fh = s.takeFlight(ev.dir)
	} else {
		s.heapPop(&s.near)
		ev.loc = locNone
	}
	s.events++
	s.advance(&e.orderKey)
	s.now = e.at
	// Attribute the dispatch to the event's owning node so everything it
	// schedules inherits that node's ordering key.
	prev := s.curOwner
	if e.prio == classControl {
		s.curOwner = -1
	} else {
		s.curOwner = int32(e.prio>>2) - 1
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
	for h := s.head(); h != nil && (*h)[0].at <= t; h = s.head() {
		s.dispatch(h)
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
