package simnet

import (
	"math/rand"
	"testing"
	"time"
	"unsafe"
)

// The queue that event.go splits by horizon was one indexed binary heap of
// timers and busy-direction records. It lives on here as the oracle of
// FuzzQueueOrder, one entry per timer and per frame: whatever the three
// structures dispatch, in whatever order they were armed, stopped and
// re-armed, must be the sequence of minima of this heap.

// oracleKey is the dispatch order as it was first written, four fields
// wide: every event carries the seq it drew when it was scheduled, and a
// frame delivery its transmit key in tie as well. The Sim's orderKey folds
// tie and seq into one field by class; the oracle keeps both and compares
// all four, so the fuzzer checks the fold instead of sharing it.
type oracleKey struct {
	at   time.Duration
	prio uint32
	tie  uint64
	seq  uint64
}

func (a *oracleKey) less(b *oracleKey) bool {
	switch {
	case a.at != b.at:
		return a.at < b.at
	case a.prio != b.prio:
		return a.prio < b.prio
	case a.tie != b.tie:
		return a.tie < b.tie
	}
	return a.seq < b.seq
}

// TestHeapEntryLayout pins the size of a scheduling heap's slot: a 24-byte
// key and the record pointer, two slots to a cache line. A fabric's
// keep-alives keep the near and wire heaps hundreds deep, and every sift
// step reads a slot.
func TestHeapEntryLayout(t *testing.T) {
	if size := unsafe.Sizeof(orderKey{}); size != 24 {
		t.Errorf("an orderKey is %d bytes, want 24", size)
	}
	if size := unsafe.Sizeof(heapEntry{}); size != 32 {
		t.Errorf("a heapEntry is %d bytes, want 32", size)
	}
}

type oracleRec struct {
	idx   int  // position in the heap, -1 when not scheduled
	frame bool // a frame delivery, not a timer
}

type oracleEntry struct {
	oracleKey
	rec *oracleRec
}

type oracleQueue []oracleEntry

func (q *oracleQueue) push(k oracleKey, rec *oracleRec) {
	rec.idx = len(*q)
	*q = append(*q, oracleEntry{k, rec})
	q.siftUp(rec.idx)
}

func (q oracleQueue) siftUp(i int) {
	e := q[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(&q[parent].oracleKey) {
			break
		}
		q[i] = q[parent]
		q[i].rec.idx = i
		i = parent
	}
	q[i] = e
	e.rec.idx = i
}

func (q oracleQueue) siftDown(i int) {
	n := len(q)
	e := q[i]
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		c := l
		if r := l + 1; r < n && q[r].less(&q[l].oracleKey) {
			c = r
		}
		if !q[c].less(&e.oracleKey) {
			break
		}
		q[i] = q[c]
		q[i].rec.idx = i
		i = c
	}
	q[i] = e
	e.rec.idx = i
}

// rekey re-times the entry at index i in place, as Timer.Reset did.
func (q oracleQueue) rekey(i int, k oracleKey) {
	rec := q[i].rec
	q[i].oracleKey = k
	q.siftDown(i)
	if rec.idx == i {
		q.siftUp(i)
	}
}

// remove takes out the entry at index i; pop is remove(0).
func (q *oracleQueue) remove(i int) (oracleKey, *oracleRec) {
	old := *q
	last := len(old) - 1
	k, rec := old[i].oracleKey, old[i].rec
	if i != last {
		moved := old[last].rec
		old[i] = old[last]
		moved.idx = i
		*q = old[:last]
		q.siftDown(i)
		if moved.idx == i {
			q.siftUp(i)
		}
	} else {
		*q = old[:last]
	}
	rec.idx = -1
	return k, rec
}

// queueDiff drives a Sim and the oracle side by side. Every callback the Sim
// can dispatch into — a timer's function, a node's HandleFrame — pops the
// oracle and compares keys, so the comparison is per dispatch even inside
// RunUntil.
type queueDiff struct {
	t      testing.TB
	s      *Sim
	ref    oracleQueue
	timers []*diffTimer
	ports  []*Port
	pops   uint64
}

type diffTimer struct {
	q     *queueDiff
	tm    *Timer
	rec   oracleRec
	rearm []time.Duration // delays to re-arm with, one per firing
}

// newQueueDiff builds four nodes on three links of different latency (one of
// them zero), every port a sender.
func newQueueDiff(t testing.TB) *queueDiff {
	q := &queueDiff{t: t, s: New(1)}
	var nodes []*Node
	for _, name := range []string{"a", "b", "c", "d"} {
		n := q.s.AddNode(name)
		n.Handler = (*diffHandler)(q)
		nodes = append(nodes, n)
	}
	for i, lat := range []time.Duration{100 * time.Microsecond, 0, 3 * time.Millisecond} {
		x, y := nodes[i].AddPort(), nodes[i+1].AddPort()
		q.s.ConnectLatency(x, y, lat)
		q.ports = append(q.ports, x, y)
	}
	return q
}

// dispatched holds the event being dispatched, the timer whose record is
// rec or a frame when rec is nil, to the oracle's minimum: the same event,
// under the key the oracle's four fields fold to.
func (q *queueDiff) dispatched(rec *oracleRec) {
	q.t.Helper()
	got := q.s.frontier[len(q.s.frontier)-1].key
	if len(q.ref) == 0 {
		q.t.Fatalf("dispatched %+v; the oracle holds nothing", got)
	}
	want, wantRec := q.ref.remove(0)
	sub := want.seq
	if wantRec.frame {
		sub = want.tie
	}
	if got != (orderKey{at: want.at, prio: want.prio, sub: sub}) {
		q.t.Fatalf("dispatch %d is %+v; the oracle's minimum is %+v", q.pops, got, want)
	}
	if rec == nil && !wantRec.frame || rec != nil && rec != wantRec {
		q.t.Fatalf("dispatch %d at %+v is not the oracle's minimum's event", q.pops, got)
	}
	q.pops++
	if q.s.Events() != q.pops {
		q.t.Fatalf("Events() = %d after %d dispatches", q.s.Events(), q.pops)
	}
}

func (dt *diffTimer) fire() {
	dt.q.dispatched(&dt.rec)
	if len(dt.rearm) > 0 {
		d := dt.rearm[0]
		dt.rearm = dt.rearm[1:]
		dt.q.reset(dt, d)
	}
}

func (q *queueDiff) at(at time.Duration, rearm []time.Duration) {
	dt := &diffTimer{q: q, rec: oracleRec{idx: -1}, rearm: rearm}
	dt.tm = q.s.At(at, dt.fire)
	q.ref.push(q.timerKey(dt), &dt.rec)
	q.timers = append(q.timers, dt)
}

// timerKey is the oracle's key of a timer just armed: its deadline and
// owner, and the seq its arming drew.
func (q *queueDiff) timerKey(dt *diffTimer) oracleKey {
	return oracleKey{at: dt.tm.ev.key.at, prio: dt.tm.ev.key.prio, seq: q.s.seq}
}

func (q *queueDiff) reset(dt *diffTimer, d time.Duration) {
	q.t.Helper()
	if got, want := dt.tm.pending(), dt.rec.idx >= 0; got != want {
		q.t.Fatalf("timer pending = %v before Reset; the oracle says %v", got, want)
	}
	dt.tm.Reset(d)
	if dt.rec.idx >= 0 {
		q.ref.rekey(dt.rec.idx, q.timerKey(dt))
	} else {
		q.ref.push(q.timerKey(dt), &dt.rec)
	}
}

func (q *queueDiff) stop(dt *diffTimer) {
	q.t.Helper()
	want := dt.rec.idx >= 0
	if got := dt.tm.Stop(); got != want {
		q.t.Fatalf("Stop() = %v; the oracle says %v", got, want)
	}
	if want {
		q.ref.remove(dt.rec.idx)
	}
}

// send transmits a two-byte frame that tells the receiving node which timer
// to re-arm, with what delay, from inside its HandleFrame.
func (q *queueDiff) send(p *Port, timer, delay byte) {
	p.Send([]byte{timer, delay})
	d := p.Link.dir(p)
	fl := d.fly.at(d.fly.n - 1) // constant latency: the new frame is the ring's tail
	q.ref.push(oracleKey{at: fl.at, prio: d.prio, tie: fl.tie, seq: q.s.seq}, &oracleRec{frame: true})
}

func (q *queueDiff) runUntil(t time.Duration) {
	q.t.Helper()
	q.s.RunUntil(t)
	if q.s.Now() != t {
		q.t.Fatalf("Now = %v after RunUntil(%v)", q.s.Now(), t)
	}
	if len(q.ref) > 0 && q.ref[0].at <= t {
		q.t.Fatalf("RunUntil(%v) left %+v undispatched", t, q.ref[0].oracleKey)
	}
}

// diffHandler is queueDiff as a node's protocol stack.
type diffHandler queueDiff

func (h *diffHandler) Start()         {}
func (h *diffHandler) PortDown(*Port) {}
func (h *diffHandler) PortUp(*Port)   {}
func (h *diffHandler) HandleFrame(_ *Port, f []byte) {
	q := (*queueDiff)(h)
	q.dispatched(nil)
	if len(q.timers) > 0 {
		q.reset(q.timers[int(f[0])%len(q.timers)], diffDelay(f[1]))
	}
}

// diffDelay spreads a byte over the horizons the queue tells apart: the same
// instant, inside a bin, on a bin boundary, along the wheel, on and around
// its far edge, and well into the overflow (up to 80 s, 74 wheel spans).
func diffDelay(code byte) time.Duration {
	const bin = time.Duration(1) << binShift
	bases := [...]time.Duration{
		0, 1, 100 * time.Microsecond, bin - 1, bin, 50 * time.Millisecond, 150 * time.Millisecond,
		time.Second, (wheelBins - 1) * bin, wheelBins * bin, 3 * time.Second, 9 * time.Second, 20 * time.Second,
	}
	return bases[int(code&15)%len(bases)] * time.Duration(1+code>>6) // ×1..4
}

// run consumes data as a script of operations, then drains both queues.
func (q *queueDiff) run(data []byte) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	pick := func() *diffTimer { return q.timers[int(next())%len(q.timers)] }
	for len(data) > 0 {
		switch op := next(); op % 8 {
		case 0: // After, control context
			q.at(q.s.Now()+diffDelay(next()), nil)
		case 1: // a periodic timer: re-arms itself from its own callback
			d := diffDelay(next())
			q.at(q.s.Now()+d, []time.Duration{d, d, diffDelay(next())})
		case 2: // At, on a bin boundary some bins ahead
			ahead := [...]int64{1, 2, wheelBins - 1, wheelBins, wheelBins + 1, 5000}[int(next())%6]
			q.at(time.Duration((binOf(q.s.Now())+ahead)<<binShift), nil)
		case 3:
			if len(q.timers) > 0 {
				q.reset(pick(), diffDelay(next()))
			}
		case 4:
			if len(q.timers) > 0 {
				q.stop(pick())
			}
		case 5:
			q.send(q.ports[int(op>>3)%len(q.ports)], next(), next())
		case 6:
			q.runUntil(q.s.Now() + diffDelay(next()))
		case 7:
			for n := int(op >> 3); n > 0 && q.s.Step(); n-- {
			}
		}
	}
	for q.s.Step() {
	}
	if len(q.ref) != 0 {
		q.t.Fatalf("queue ran dry with %d events left in the oracle, earliest %+v", len(q.ref), q.ref[0].oracleKey)
	}
}

// FuzzQueueOrder drives random After/At/Reset/Stop/Send/RunUntil/Step
// sequences through the Sim and the single-heap oracle and compares the
// dispatch sequence key by key.
func FuzzQueueOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 4, 0, 7, 0, 12, 6, 7, 6, 12})             // a boundary, a second and a 9 s timer; run 1 s, then 9 s
	f.Add([]byte{2, 3, 2, 4, 2, 5, 6, 0x4c})                  // one bin either side of the wheel's edge, 5000 bins out; run 40 s
	f.Add([]byte{1, 5, 0, 5, 0, 5, 1, 13, 0, 4, 0, 6, 10, 6}) // a hello timer and frames that reset it
	f.Add([]byte{0, 11, 6, 7, 0, 2, 3, 0, 12, 3, 0, 5, 4, 0}) // idle jump, arm behind the calendar, move near → overflow → wheel, stop
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 8; i++ {
		script := make([]byte, 1500)
		rng.Read(script)
		f.Add(script)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		newQueueDiff(t).run(data)
	})
}
