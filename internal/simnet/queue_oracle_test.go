package simnet

import (
	"fmt"
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
// key and the record pointer, two slots to a cache line. Every sift step
// reads a slot, and a run is a slice of them.
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
	// lockstep marks the rig of newLockstepDiff, whose scripts have the
	// operations of lockstepOp too.
	lockstep bool
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

// newLockstepDiff builds the shape the runs are for: 24 nodes of four ports
// each, 48 links of 100 µs but one of 0 ns, so that a burst puts 94
// directions on the wire for one instant and a forwarded frame can land on
// the batch's instant itself.
func newLockstepDiff(t testing.TB) *queueDiff {
	q := &queueDiff{t: t, s: New(1), lockstep: true}
	const n = 24
	nodes := make([]*Node, n)
	for i := range nodes {
		nodes[i] = q.s.AddNode(fmt.Sprintf("n%d", i))
		nodes[i].Handler = (*diffHandler)(q)
	}
	for _, k := range []int{1, 7} {
		for i := range nodes {
			lat := 100 * time.Microsecond
			if len(q.s.links) == 0 {
				lat = 0
			}
			x, y := nodes[i].AddPort(), nodes[(i+k)%n].AddPort()
			q.s.ConnectLatency(x, y, lat)
			q.ports = append(q.ports, x, y)
		}
	}
	return q
}

// lockstepOp runs one of the lockstep rig's own operations, arg being the
// operation byte's upper bits.
func (q *queueDiff) lockstepOp(arg byte, next func() byte) {
	switch arg % 4 {
	case 0:
		// 64 to 127 timers into one bin a few bins ahead, armed in 1 to 6
		// ascending stretches: runMerge or fewer make a run, more a heap.
		// Most re-arm themselves a period later, in the order they fire.
		m, stretches := 64+int(next()%64), 1+int(next()%6)
		ahead := [...]int64{1, 2, 40, wheelBins + 3}[int(arg>>2)%4]
		base := time.Duration((binOf(q.s.Now()) + ahead) << binShift)
		period := 50 * time.Millisecond * time.Duration(1+next()%2)
		per := (m + stretches - 1) / stretches
		for j := 0; j < m; j++ {
			at := base + time.Duration(j%per)*time.Microsecond
			var rearm []time.Duration
			if j%5 != 0 {
				rearm = []time.Duration{period, period}
			}
			q.at(at, rearm)
		}
	case 1:
		// A burst: every port from the first, by a stride, sends a frame,
		// some of them to be forwarded on by the receiver.
		first, stride := int(next()), 1+int(arg>>2)%3
		timer, delay, fwd := next(), next(), next()
		for i := 0; i < len(q.ports); i += stride {
			q.send(q.ports[(int(first)+i)%len(q.ports)], timer+byte(i), delay, fwd)
		}
	case 2:
		// Re-time one link and jitter one of its directions: the next
		// frames may overtake those in flight, batched or not.
		p := q.ports[int(next())%len(q.ports)]
		p.Link.Latency = [...]time.Duration{100 * time.Microsecond, 0, 50 * time.Microsecond, 150 * time.Microsecond}[int(arg>>2)%4]
		jitter := [...]time.Duration{0, time.Microsecond, 80 * time.Microsecond, 0}[int(arg>>4)%4]
		p.Link.Impair(p, Impairment{Jitter: jitter})
	case 3:
		// Run to just short of, or onto, the next instant anything is due:
		// a RunUntil that stops in front of a batch readies it unsent.
		if len(q.ref) > 0 {
			t := q.ref[0].at
			if arg&4 != 0 && t > q.s.Now() {
				t--
			}
			q.runUntil(t)
		}
	}
}

// TestRunThresholds pins which shape a lockstep instant takes: a calendar
// bin of runMin or more timers in at most runMerge ascending stretches of
// arm order becomes the near run, any other bin the near heap; the first
// direction to go busy for an instant goes to the wire heap and the rest to
// a batch, which becomes a run when it holds runMin or more, else joins the
// first; and a direction going busy for a sorted batch's instant goes to
// the wire heap too.
func TestRunThresholds(t *testing.T) {
	const bin = time.Duration(1) << binShift
	for _, tc := range []struct {
		n, stretches int
		run          bool
	}{
		{runMin, 1, true},
		{runMin - 1, 1, false},
		{2 * runMin, runMerge, true},
		{2 * runMin, runMerge + 1, false},
	} {
		s := New(1)
		per := (tc.n + tc.stretches - 1) / tc.stretches
		for j := 0; j < tc.n; j++ {
			s.At(5*bin+time.Duration(j%per), func() {})
		}
		s.head() // turns the calendar to bin 5
		if run := len(s.nearRun.buf) == tc.n && len(s.near) == 0; run != tc.run {
			t.Errorf("a bin of %d timers in %d stretches: run %d, near heap %d; want a run: %v",
				tc.n, tc.stretches, len(s.nearRun.buf), len(s.near), tc.run)
		}
	}
	for _, n := range []int{runMin - 1, runMin} {
		s := New(1)
		var back []*Port
		for i := 0; i < n+1; i++ {
			x, y := s.AddNode(fmt.Sprintf("x%d", i)), s.AddNode(fmt.Sprintf("y%d", i))
			s.Connect(x.AddPort(), y.AddPort())
			x.Port(1).Send(make([]byte, 64))
			back = append(back, y.Port(1))
		}
		s.head() // the batch is next: it is sorted or spilled
		if run := s.batch.sorted && len(s.batch.buf) == n && len(s.wires) == 1; run != (n >= runMin) || !run && len(s.wires) != n+1 {
			t.Errorf("a batch of %d directions: sorted %v, %d in it, wire heap %d", n, s.batch.sorted, len(s.batch.buf), len(s.wires))
		}
		if n < runMin {
			continue
		}
		back[0].Send(make([]byte, 64)) // busy for the sorted batch's instant
		if d := back[0].Link.dir(back[0]); d.ev.loc != locWires {
			t.Errorf("a direction going busy for a sorted batch's instant is at loc %d, want the wire heap", d.ev.loc)
		}
	}
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

// send transmits a frame that tells the receiving node which timer to
// re-arm, with what delay, from inside its HandleFrame, and, when fwd is
// not 0, on which of its ports to send the frame on once more.
func (q *queueDiff) send(p *Port, timer, delay, fwd byte) {
	frame := []byte{timer, delay}
	if fwd != 0 {
		frame = append(frame, fwd)
	}
	p.Send(frame)
	d := p.Link.dir(p)
	// Jitter and latency changes let a frame overtake: find it by its tie.
	tie := uint64(uint32(p.Node.id))<<40 | uint64(uint16(p.Index))<<32 | uint64(d.txSeq)
	for i := d.fly.n - 1; i >= 0; i-- {
		if fl := d.fly.at(i); fl.tie == tie {
			q.ref.push(oracleKey{at: fl.at, prio: d.prio, tie: fl.tie, seq: q.s.seq}, &oracleRec{frame: true})
			return
		}
	}
	q.t.Fatalf("frame %#x sent on %s is not in flight", tie, p.Name())
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
func (h *diffHandler) HandleFrame(p *Port, f []byte) {
	q := (*queueDiff)(h)
	q.dispatched(nil)
	if len(q.timers) > 0 {
		q.reset(q.timers[int(f[0])%len(q.timers)], diffDelay(f[1]))
	}
	if len(f) > 2 {
		ports := p.Node.Ports[1:]
		q.send(ports[int(f[2])%len(ports)], f[0], f[1], 0)
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
		op := next()
		if q.lockstep && op&1 != 0 {
			q.lockstepOp(op>>1, next)
			continue
		}
		if q.lockstep {
			op >>= 1
		}
		switch op % 8 {
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
			q.send(q.ports[int(op>>3)%len(q.ports)], next(), next(), 0)
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
// dispatch sequence key by key, on the four-node rig or, when lockstep is
// set, on the lockstep rig with its bins, bursts and impairments.
func FuzzQueueOrder(f *testing.F) {
	f.Add(false, []byte{})
	f.Add(false, []byte{0, 4, 0, 7, 0, 12, 6, 7, 6, 12})             // a boundary, a second and a 9 s timer; run 1 s, then 9 s
	f.Add(false, []byte{2, 3, 2, 4, 2, 5, 6, 0x4c})                  // one bin either side of the wheel's edge, 5000 bins out; run 40 s
	f.Add(false, []byte{1, 5, 0, 5, 0, 5, 1, 13, 0, 4, 0, 6, 10, 6}) // a hello timer and frames that reset it
	f.Add(false, []byte{0, 11, 6, 7, 0, 2, 3, 0, 12, 3, 0, 5, 4, 0}) // idle jump, arm behind the calendar, move near → overflow → wheel, stop
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 8; i++ {
		script := make([]byte, 1500)
		rng.Read(script)
		f.Add(false, script)
	}
	// The lockstep rig: an odd byte is a lockstepOp (bits 1-2 choose it),
	// an even one the four-node rig's operation in its upper bits.
	f.Add(true, []byte{
		0x01, 100, 2, 0, // 100 timers a bin ahead in 3 stretches, re-armed every 50 ms
		0x09, 127, 5, 1, // 127 two bins ahead in 6 stretches: a bin the heap takes
		0x0c, 7, // run a second: both bins fire and re-arm in the order they fire
	})
	f.Add(true, []byte{
		0x03, 0, 0, 1, 0, // a burst on every port: 94 directions busy for one instant
		0x07,             // run onto it
		0x03, 1, 2, 3, 4, // a burst whose frames are forwarded on port 1, the 0 ns link's on n0 and n1
		0x0c, 7,
	})
	f.Add(true, []byte{
		0x01, 80, 1, 0, // 80 timers in 2 stretches
		0x0f, 0x0f, // run to just before them: the bin is not turned yet
		0x1e,                                                    // step once, into the run ...
		0x06, 3, 0, 0x08, 5, 0x06, 40, 0x1b, 0x08, 41, 0x08, 42, // ... and reset and stop run entries
		0x0c, 7,
	})
	f.Add(true, []byte{
		0x03, 0, 0, 1, 0, // a burst: 94 directions batched for 100 µs
		0x15, 8, 0x8a, 0, 0, // n4's port 2 re-timed to 50 µs: its next frame overtakes its batched head
		0x07, 0x07, // run onto the 0 ns link's frames, then onto that frame
		0x0f,                // run to just short of the batch: it is sorted, not sent
		0x0d, 6, 0x6a, 0, 0, // n3's port 2 re-timed to 0 ns: its frame overtakes a head in the sorted batch
		0x0c, 7,
	})
	f.Add(true, []byte{
		0x03, 0, 0, 1, 0, // a burst: 94 directions batched for 100 µs
		0x55, 4, // n2's port 2 re-timed to 50 µs with 80 µs of jitter
		0x4a, 0, 0, 0x4a, 1, 0, 0x4a, 2, 0, // three jittered frames race its batched head
		0x0c, 7,
	})
	f.Add(true, []byte{
		0x0b, 0, 0, 1, 0, // a burst on every other port: 47 directions batched for 100 µs
		0x0c, 0, // run the current instant: the batch is next, so it is sorted
		0x0b, 1, 0, 1, 0, // the other 47 go busy for the sorted batch's instant
		0x0c, 7,
	})
	for i := 0; i < 4; i++ {
		script := make([]byte, 1500)
		rng.Read(script)
		f.Add(true, script)
	}
	f.Fuzz(func(t *testing.T, lockstep bool, data []byte) {
		if lockstep {
			newLockstepDiff(t).run(data)
		} else {
			newQueueDiff(t).run(data)
		}
	})
}
