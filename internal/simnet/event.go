package simnet

import (
	"fmt"
	"math"
	"time"

	"repro/internal/invariant"
	"repro/internal/simnet/framepool"
)

// The scheduling core is an indexed binary min-heap of recycled event
// records. Four properties keep the hot paths (hello/BFD timer churn, frame
// delivery) allocation-free and the heap small:
//
//   - Every event knows its heap index, so Timer.Stop removes it from the
//     heap immediately and Timer.Reset re-times it in place (sift-up/down)
//     instead of abandoning a tombstone that would sit in the queue until
//     its original deadline.
//   - Fired and cancelled events go on a freelist and are reused; a
//     generation counter on each record invalidates stale Timer handles.
//   - Frames in flight are not in the heap one by one. A link direction
//     delivers in (at, tie) order, so it keeps its own frames in a ring and
//     the heap holds one permanent record per busy direction, keyed to the
//     ring's head (wire.go). Port.Send schedules no closures and, on a wire
//     that is already busy, touches the heap not at all.
//   - An egress-queue slot coming free is not an event at all: Port.Send
//     records the key the release would have carried and the queue depth is
//     read off the dispatch frontier (see passMark).
//
// The heap itself stores the ordering key inline next to the event pointer,
// so the sift comparisons stay within the contiguous slice instead of
// dereferencing a pointer per compared element.

type eventKind uint8

const (
	evFunc eventKind = iota // run fn
	evWire                  // deliver the head of dir's flight ring; the record is dir's own and never freed

	// evFreed poisons records sitting on the freelist. Every alloc caller
	// assigns a real kind, so under -tags invariants a record dispatched or
	// released while still poisoned is a freelist-discipline bug
	// (DESIGN.md §14).
	evFreed eventKind = 0xFF
)

// event is a scheduled occurrence's payload. Its timing lives in the heap
// entry; the record only tracks where it sits (idx) and which incarnation it
// is (gen).
type event struct {
	idx int32  // position in Sim.queue, -1 when not scheduled
	gen uint32 // bumped on release; validates Timer handles

	kind eventKind
	fn   func()    // evFunc
	dir  *dirState // evWire
}

// orderKey is an event's place in the dispatch order. Events are totally
// ordered by (at, prio, tie, seq). The key is built from who an event
// belongs to, not from when it happened to be scheduled, so same-instant
// order is a property of the fabric rather than of the interleaving that led
// up to it; every checked-in artifact and golden digest depends on this
// exact order.
//
//   - prio encodes the owning node and event class: 0 for control events
//     (scheduled from outside any node's context — harness code, chaos
//     closures, workload launches), (node+1)<<2|1 for a node's local events
//     (timers, egress-queue releases), (node+1)<<2|2 for frame deliveries to
//     the node. At one instant, control runs first, then each node's locals
//     before its frame arrivals, nodes in ID order.
//   - tie breaks frame-vs-frame ties by the transmit key (source node,
//     source port, per-direction transmit counter), so two frames reaching
//     one node at the same instant order by sender, not by enqueue order.
//   - seq (scheduling order) breaks what remains: same-node same-class
//     events fire in the order they were scheduled. (prio, tie) is unique
//     per frame, so frame entries carry seq 0; Port.Send still draws one so
//     that every other event's seq is independent of how frames are kept.
type orderKey struct {
	at   time.Duration
	prio uint32
	tie  uint64
	seq  uint64
}

// heapEntry is one slot of the scheduling heap: the key inline, so sift
// comparisons stay within the slice, and the record it schedules.
type heapEntry struct {
	orderKey
	ev *event
}

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
	if a.tie != b.tie {
		return a.tie < b.tie
	}
	return a.seq < b.seq
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
	return &event{idx: -1} //simlint:alloc freelist warm-up; steady state recycles records
}

// release recycles a record that is no longer scheduled. The generation bump
// invalidates any Timer still holding it.
func (s *Sim) release(ev *event) {
	if invariant.Enabled {
		invariant.Assert(ev.kind != evFreed, "simnet: double release of event record")
		invariant.Assert(ev.kind != evWire, "simnet: releasing a direction's permanent wire record")
		invariant.Assert(ev.idx < 0, "simnet: releasing an event still in the heap")
	}
	ev.gen++
	ev.kind = evFreed
	ev.fn = nil
	s.free = append(s.free, ev) //simlint:alloc freelist growth is amortized; capacity stabilizes at peak in-flight events
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

// schedule allocates and enqueues an event at absolute time at, keyed to the
// current execution context. Scheduling in the past is a programming error
// and panics.
func (s *Sim) schedule(at time.Duration) *event {
	if at < s.now {
		panic(fmt.Sprintf("simnet: scheduling event at %v before now %v", at, s.now)) //simlint:alloc unreachable except on programmer error; the panic path may allocate
	}
	ev := s.alloc()
	s.seq++
	s.heapPush(heapEntry{orderKey{at: at, prio: s.ctxPrio(), seq: s.seq}, ev})
	return ev
}

// --- indexed min-heap -------------------------------------------------------

func (s *Sim) heapPush(e heapEntry) {
	e.ev.idx = int32(len(s.queue))
	s.queue = append(s.queue, e) //simlint:alloc heap growth is amortized; capacity stabilizes at peak queue depth
	s.siftUp(int(e.ev.idx))
	if invariant.Enabled {
		s.checkHeap(int(e.ev.idx))
	}
}

func (s *Sim) siftUp(i int) {
	q := s.queue
	e := q[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !entryLess(&e, &q[parent]) {
			break
		}
		q[i] = q[parent]
		q[i].ev.idx = int32(i)
		i = parent
	}
	q[i] = e
	e.ev.idx = int32(i)
}

func (s *Sim) siftDown(i int) {
	q := s.queue
	n := len(q)
	e := q[i]
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		c := l
		if r := l + 1; r < n && entryLess(&q[r], &q[l]) {
			c = r
		}
		if !entryLess(&q[c], &e) {
			break
		}
		q[i] = q[c]
		q[i].ev.idx = int32(i)
		i = c
	}
	q[i] = e
	e.ev.idx = int32(i)
}

// heapFix restores heap order after the entry at index i was re-timed.
func (s *Sim) heapFix(i int) {
	ev := s.queue[i].ev
	s.siftDown(i)
	if int(ev.idx) == i {
		s.siftUp(i)
	}
	if invariant.Enabled {
		s.checkHeap(int(ev.idx))
	}
}

// heapPop removes the earliest entry.
func (s *Sim) heapPop() {
	q := s.queue
	q[0].ev.idx = -1
	last := len(q) - 1
	q[0] = q[last]
	q[last] = heapEntry{}
	s.queue = q[:last]
	if last > 0 {
		s.siftDown(0)
	}
	if invariant.Enabled {
		s.checkHeap(0)
	}
}

// heapRemove removes the entry at index i.
func (s *Sim) heapRemove(i int) {
	q := s.queue
	last := len(q) - 1
	ev := q[i].ev
	if i != last {
		moved := q[last].ev
		q[i] = q[last]
		moved.idx = int32(i)
		q[last] = heapEntry{}
		s.queue = q[:last]
		s.siftDown(i)
		if int(moved.idx) == i {
			s.siftUp(i)
		}
	} else {
		q[last] = heapEntry{}
		s.queue = q[:last]
	}
	ev.idx = -1
	if invariant.Enabled {
		s.checkHeap(i)
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
	f = append(f[:n], passMark{}) //simlint:alloc grows only while dispatch keys step back within one instant; one mark otherwise
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
			k := orderKey{at: r.at, prio: r.prio, seq: r.seq}
			return k.less(&m.key)
		}
	}
	return false
}

// --- public scheduling API --------------------------------------------------

// At schedules fn at absolute virtual time t and returns a cancellable,
// re-armable handle.
func (s *Sim) At(t time.Duration, fn func()) *Timer {
	ev := s.schedule(t)
	ev.kind = evFunc
	ev.fn = fn
	return &Timer{sim: s, ev: ev, gen: ev.gen, fn: fn}
}

// After schedules fn d from now and returns a cancellable timer.
func (s *Sim) After(d time.Duration, fn func()) *Timer {
	return s.At(s.now+d, fn)
}

// Schedule runs fn d from now. It is the fire-and-forget variant of After
// for callers that never stop or re-arm the event: no handle is allocated.
func (s *Sim) Schedule(d time.Duration, fn func()) {
	ev := s.schedule(s.now + d)
	ev.kind = evFunc
	ev.fn = fn
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
	return t.ev != nil && t.ev.gen == t.gen && t.ev.idx >= 0
}

// Stop cancels the timer if it has not fired, removing its event from the
// queue at once. It reports whether the call prevented the timer from
// firing.
//
//simlint:hotpath
func (t *Timer) Stop() bool {
	if t == nil || !t.pending() {
		return false
	}
	ev := t.ev
	t.ev = nil
	t.sim.heapRemove(int(ev.idx))
	t.sim.release(ev)
	return true
}

// Reset re-arms the timer to fire d from now with the original callback. A
// pending event is re-timed in place (no allocation, no heap garbage); a
// fired or stopped timer is scheduled afresh.
//
//simlint:hotpath
func (t *Timer) Reset(d time.Duration) {
	s := t.sim
	at := s.now + d
	if at < s.now {
		panic(fmt.Sprintf("simnet: resetting timer to %v before now %v", at, s.now)) //simlint:alloc unreachable except on programmer error; the panic path may allocate
	}
	if t.pending() {
		i := int(t.ev.idx)
		s.seq++
		s.queue[i].at = at
		s.queue[i].prio = s.ctxPrio()
		s.queue[i].tie = 0
		s.queue[i].seq = s.seq
		s.heapFix(i)
		return
	}
	ev := s.schedule(at)
	ev.kind = evFunc
	ev.fn = t.fn
	t.ev = ev
	t.gen = ev.gen
}

// --- event loop -------------------------------------------------------------

// Step processes the next event. It reports false when the queue is empty.
//
//simlint:hotpath
func (s *Sim) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	e := s.queue[0]
	ev := e.ev
	// The heap is made consistent before anything is dispatched: a busy
	// direction's record is re-keyed to its next frame in place, everything
	// else leaves the heap.
	var frame []byte
	var fh framepool.Handle
	if ev.kind == evWire {
		frame, fh = s.takeFlight(ev.dir)
	} else {
		s.heapPop()
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
			invariant.Assert(false, "simnet: dispatching event with unknown kind (freed record left in heap?)")
		}
	}
	s.curOwner = prev
	return true
}

// RunUntil processes every event scheduled at or before t, then advances the
// clock to exactly t.
func (s *Sim) RunUntil(t time.Duration) {
	for len(s.queue) > 0 && s.queue[0].at <= t {
		s.Step()
	}
	if t >= s.now {
		// Nothing at or before t is left, so every queue release up to t has
		// happened too: the horizon is a mark above any key at t.
		s.now = t
		s.advance(&orderKey{at: t, prio: math.MaxUint32, tie: math.MaxUint64, seq: math.MaxUint64})
	}
}

// RunFor advances the simulation by d.
func (s *Sim) RunFor(d time.Duration) { s.RunUntil(s.now + d) }
