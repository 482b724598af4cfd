package simnet

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/invariant"
)

// stream is a seeded random stream that counts its draws, so that a fork
// can rebuild it: re-seed, then advance by the count. Every draw of a
// *rand.Rand takes exactly one step of its source, whichever of Int63 and
// Uint64 it calls, so the count is the whole of the state. A fork's stream
// is rebuilt at its first draw: most of a warm fabric's streams draw
// nothing more, and seeding a source costs more than the rest of a fork. A
// stream a fork writes into keeps its source, which rebuilding re-seeds in
// place.
type stream struct {
	r     *rand.Rand // nil until the stream is built
	seed  int64
	draws uint64
	src   rand.Source64
}

func newStream(seed int64) *stream {
	st := &stream{seed: seed}
	st.build()
	return st
}

// rand returns the stream's generator, building it if this is a fork's
// first draw.
func (st *stream) rand() *rand.Rand {
	if st.r == nil {
		st.build()
	}
	return st.r
}

// build seeds the source and advances it past the draws already counted.
func (st *stream) build() {
	if st.src == nil {
		st.src = rand.NewSource(st.seed).(rand.Source64)
	} else {
		st.src.Seed(st.seed)
	}
	for i := uint64(0); i < st.draws; i++ {
		st.src.Uint64()
	}
	st.r = rand.New(st)
}

// Int63, Uint64 and Seed make the stream the source of its own Rand; each
// passes the draw through unchanged.
func (st *stream) Int63() int64   { st.draws++; return st.src.Int63() }
func (st *stream) Uint64() uint64 { st.draws++; return st.src.Uint64() }
func (st *stream) Seed(seed int64) {
	st.seed, st.draws = seed, 0
	st.src.Seed(seed)
}

// fork returns an unbuilt stream at the same position, written into into
// (a stream of an earlier fork) when there is one, or nil for a stream never
// built.
func (st *stream) fork(into *stream) *stream {
	if st == nil {
		return nil
	}
	if into == nil {
		into = &stream{}
	}
	into.r, into.seed, into.draws = nil, st.seed, st.draws
	return into
}

// Forker makes a deep copy of a simulation that has not been dispatching
// since it was last run: Sim.Fork copies the engine's own state, and the
// protocol components copy theirs through the forker, which maps every
// node, port, link and pending timer of the source to its copy. A component
// that holds another's object — a daemon its stack, say — is handed that
// object's copy by whoever drives the fork.
//
// The copy is written into a simulation an earlier fork made, or into zero
// values: one path, which reuses whatever memory it finds. Components do
// the same with their counterpart in that simulation, so a fork into a
// released copy of the same fabric allocates next to nothing.
//
// The engine cannot copy a callback: a pending event's fn closes over the
// component that scheduled it. So the copy's queue starts empty, and each
// component claims its pending timers (Timer), re-arming them on the copy
// with callbacks bound to its own copy. A claimed timer keeps its original
// (at, prio, sub) key and the copy's seq counter is the source's, so
// the copy dispatches exactly what the source would have. Finish fails when
// a pending event of the source was claimed by no one — a bare Schedule
// closure, say — or twice, or a node's handler or a link's capture tap has
// no copy.
//
// A fork only reads the source, so one source may be forked on several
// goroutines at once, provided nothing runs it meanwhile.
type Forker struct {
	src, dst *Sim
	checks   []forkCheck
	errs     []error
	// subs is Finish's scratch: the subs of the copy's armed timers, which
	// are the claimed ones.
	subs []uint64
}

// forkCheck is a deferred check of a component's copy against its source.
type forkCheck struct {
	fn       func(src, dst any) error
	src, dst any
}

// Fork starts a copy of s into into — a simulation released by an earlier
// fork of a fabric of the same shape, or nil for a new one: clock,
// counters, random streams, nodes, ports, links with their frames in flight
// and egress queues, and the frame pool. Whatever into held is dropped, its
// pending events returned to its freelist. Components copy their state and
// claim their timers through the returned Forker; Finish completes the copy.
func (s *Sim) Fork(into *Sim) *Forker {
	d := into
	if d == nil {
		d = &Sim{}
	}
	d.empty()
	d.now, d.seq, d.seed = s.now, s.seq, s.seed
	d.frontier = append(d.frontier[:0], s.frontier...)
	d.rng = s.rng.fork(d.rng)
	d.frames = s.frames.Fork(d.frames)
	d.curOwner, d.DefaultLatency, d.events = -1, s.DefaultLatency, s.events
	d.cal.cur = s.cal.cur
	d.released = false
	fk := &d.forker
	*fk = Forker{src: s, dst: d, checks: reuse(fk.checks), subs: fk.subs[:0]}
	if s.curOwner != -1 {
		fk.failf("simnet: fork while dispatching an event of node %d", s.curOwner)
	}
	if d.nodes == nil {
		d.nodes = make(map[string]*Node, len(s.nodeOrder))
	}
	clear(d.nodes)
	nodes := d.nodeOrder
	d.nodeOrder = d.nodeOrder[:0]
	for i, n := range s.nodeOrder {
		nn := Reused(nodes, i)
		ports := nn.Ports
		if cap(ports) < len(n.Ports) {
			ports = make([]*Port, len(n.Ports))
		}
		ports = ports[:len(n.Ports)]
		*nn = Node{Name: n.Name, Sim: d, Ports: ports, id: n.id, rng: n.rng.fork(nn.rng), fwdClock: n.fwdClock}
		for _, p := range n.Ports[1:] {
			np := ports[p.Index]
			if np == nil {
				np = &Port{}
			}
			*np = Port{Node: nn, Index: p.Index, MAC: p.MAC, up: p.up, Counters: p.Counters}
			ports[p.Index] = np
		}
		d.nodes[nn.Name] = nn
		d.nodeOrder = append(d.nodeOrder, nn)
	}
	links := d.links
	d.links = d.links[:0]
	for i, l := range s.links {
		if len(l.taps) > 0 {
			fk.failf("simnet: link %s<->%s has capture taps, which a fork cannot copy", l.A.Name(), l.B.Name())
		}
		nl := Reused(links, i)
		kept := [2]dirState{nl.dirA, nl.dirB}
		*nl = Link{A: fk.Port(l.A), B: fk.Port(l.B), Latency: l.Latency, bandwidth: l.bandwidth, maxQueue: l.maxQueue}
		nl.A.Link, nl.B.Link = nl, nl
		nl.dirA.wire(nl, nl.A, nl.B)
		nl.dirB.wire(nl, nl.B, nl.A)
		d.forkDir(&nl.dirA, &l.dirA, &kept[0])
		d.forkDir(&nl.dirB, &l.dirB, &kept[1])
		d.links = append(d.links, nl)
	}
	return fk
}

// empty drops what s holds scheduled, before a fork writes into it: every
// pending timer's record goes back to the freelist (which invalidates the
// Timers of s's components), and the wire heap, which holds only the links'
// own records, is emptied.
func (s *Sim) empty() {
	drop := func(ev *event) {
		ev.loc, ev.idx, ev.next, ev.prev = locNone, -1, nil, nil
		s.release(ev)
	}
	for _, e := range s.near {
		drop(e.ev)
	}
	for _, e := range s.cal.over {
		drop(e.ev)
	}
	for slot, head := range s.cal.heads {
		for ev := head; ev != nil; {
			next := ev.next
			drop(ev)
			ev = next
		}
		s.cal.heads[slot] = nil
	}
	s.near, s.wires = reuse(s.near), reuse(s.wires)
	s.cal = calendar{heads: s.cal.heads, over: reuse(s.cal.over)}
	s.drained = reuse(s.drained)
}

// reuse empties a slice for a fork to write into, dropping the pointers it
// held.
func reuse[S ~[]E, E any](s S) S {
	s = s[:cap(s)]
	var zero E
	for i := range s {
		s[i] = zero
	}
	return s[:0]
}

// forkDir copies the transmit state of direction src into dst, which wire
// has bound to the copied link: frames in flight (their bytes copied), the
// egress queue's releases, the impairment and its stream, the counters. A
// busy direction's record joins the copy's wire heap keyed to its next
// frame. kept is what dst held before: its ring buffers and stream are
// reused.
func (s *Sim) forkDir(dst, src, kept *dirState) {
	dst.busyUntil = src.busyUntil
	dst.rel = relRing{ring: src.rel.ring}
	if src.rel.buf != nil {
		dst.rel.buf = append(kept.rel.buf[:0], src.rel.buf...)
	}
	dst.overflows, dst.overflowBytes = src.overflows, src.overflowBytes
	dst.imp, dst.impaired = src.imp, src.impaired
	dst.lost, dst.corrupted = src.lost, src.corrupted
	dst.fluidBps, dst.fluidBytes, dst.fluidAt = src.fluidBps, src.fluidBytes, src.fluidAt
	dst.rng = src.rng.fork(kept.rng)
	dst.txSeq = src.txSeq
	buf := reuse(kept.fly.buf)
	n := src.fly.n
	if n == 0 {
		dst.fly = flightRing{buf: buf[:cap(buf)]}
		return
	}
	if cap(buf) < n {
		buf = make([]flight, len(src.fly.buf))
	}
	buf = buf[:cap(buf)]
	for i := range n {
		fl := *src.fly.at(i)
		fl.frame = s.frames.Clone(fl.frame)
		if invariant.Enabled {
			fl.fh = s.frames.Handle(fl.frame)
		}
		buf[i] = fl
	}
	dst.fly = flightRing{ring: ring{n: n}, buf: buf}
	s.heapPush(&s.wires, heapEntry{orderKey{at: buf[0].at, prio: dst.prio, sub: buf[0].tie}, &dst.ev})
}

// CloneInto returns a copy of src written into dst's storage where it has
// room, else a new one as slices.Clone makes it: how a component's Fork
// copies a slice over the one its copy held. nil stays nil.
func CloneInto[S ~[]E, E any](dst, src S) S {
	if src == nil {
		return nil
	}
	if dst == nil {
		return slices.Clone(src)
	}
	return append(dst[:0], src...)
}

// Reused returns s[i], an object of the copy a fork writes over, or a new
// one when s has none there.
func Reused[T any](s []*T, i int) *T {
	if 0 <= i && i < len(s) && s[i] != nil {
		return s[i]
	}
	return new(T)
}

// ClearTail zeroes s beyond its length and returns it: a slice a fork wrote
// into storage it reused must not keep what the storage held past it, where
// a later reslice would find it.
func ClearTail[S ~[]E, E any](s S) S {
	clear(s[len(s):cap(s)])
	return s
}

// EmptyMap returns m emptied for a fork to refill, or a new map sized for n
// entries when m is nil.
func EmptyMap[M ~map[K]V, K comparable, V any](m M, n int) M {
	if m == nil {
		return make(M, n)
	}
	clear(m)
	return m
}

// Release hands s back once its run is read, for a later Fork to write
// into. Under -tags invariants running s again panics until that Fork.
func (s *Sim) Release() { s.released = true }

// Sim returns the copy.
func (fk *Forker) Sim() *Sim { return fk.dst }

// Node returns the copy of a node of the source.
func (fk *Forker) Node(n *Node) *Node { return fk.dst.nodeOrder[n.id] }

// Port returns the copy of a port of the source.
func (fk *Forker) Port(p *Port) *Port { return fk.Node(p.Node).Ports[p.Index] }

// Timer claims t, a timer of the source, for the copy, and returns the
// copy's timer: into when the component's copy already has one there (a
// timer an earlier fork or run made for the same component copy, with the
// callback it was made with), else a new timer running bind(). If t is
// pending, the copy's timer is armed under t's own key. A nil t gives nil.
// bind is called only for a new timer, so a fork into a released copy
// builds no callbacks.
func (fk *Forker) Timer(t, into *Timer, bind func() func()) *Timer {
	if t == nil {
		return nil
	}
	nt := into
	if nt == nil {
		nt = &Timer{sim: fk.dst, fn: bind()}
	} else if invariant.Enabled {
		invariant.Assert(nt.sim == fk.dst && !nt.pending(), "simnet: a fork re-arms a timer of another simulation, or one still pending")
	}
	nt.ev = nil
	if !t.pending() {
		return nt
	}
	ev := fk.dst.alloc()
	ev.kind, ev.fn, ev.key = evFunc, nt.fn, t.ev.key
	fk.dst.arm(ev)
	nt.ev, nt.gen = ev, ev.gen
	return nt
}

// Check defers fn(src, dst) to Finish, for a condition that holds only once
// every component has made its copy (a hook the owner re-installs, say).
// src and dst are the component and its copy; a function rather than a
// closure, so that a fork builds none.
func (fk *Forker) Check(fn func(src, dst any) error, src, dst any) {
	fk.checks = append(fk.checks, forkCheck{fn, src, dst})
}

// failf records a fork error; Finish returns it.
func (fk *Forker) failf(format string, args ...any) {
	fk.errs = append(fk.errs, fmt.Errorf(format, args...))
}

// Finish completes the copy. It fails when a pending event of the source
// was claimed by no component or by two, a node with a handler has none on
// the copy, a deferred check fails, or any component recorded an error.
//
// Every claim arms a timer on the copy under the claimed event's key, and a
// timer's sub is its seq, unique among pending timers, so the copy's timers
// are the claims: claimed twice is a sub armed twice, and the source's
// pending events are all claimed when the copy has as many distinct ones.
func (fk *Forker) Finish() (*Sim, error) {
	s, d := fk.src, fk.dst
	subs := pendingSubs(d, fk.subs[:0])
	slices.Sort(subs)
	distinct := len(subs)
	for i := 1; i < len(subs); i++ {
		if subs[i] == subs[i-1] {
			if distinct == len(subs) {
				fk.failf("simnet: pending event (seq %d) claimed twice", subs[i])
			}
			distinct--
		}
	}
	if pending := len(s.near) + len(s.cal.over) + s.cal.wheelN; distinct < pending {
		first := unclaimed(s, subs)
		fk.failf("simnet: %d pending event(s) claimed by no component (the first at %v, prio %#x); a bare Schedule closure cannot be forked", pending-distinct, first.at, first.prio)
	}
	fk.subs = subs[:0]
	for i, n := range s.nodeOrder {
		if n.Handler != nil && d.nodeOrder[i].Handler == nil {
			fk.failf("simnet: node %s has a handler and its copy has none", n.Name)
		}
	}
	for _, c := range fk.checks {
		if err := c.fn(c.src, c.dst); err != nil {
			fk.errs = append(fk.errs, err)
		}
	}
	err := errors.Join(fk.errs...)
	// The copy keeps its forker for the next fork into it, but not the
	// source or the components the checks named.
	fk.src, fk.checks, fk.errs = nil, reuse(fk.checks), nil
	if err != nil {
		return nil, err
	}
	return d, nil
}

// pendingSubs appends the subs of the timers s has armed, into storage
// sized for all of them.
func pendingSubs(s *Sim, subs []uint64) []uint64 {
	if n := len(s.near) + len(s.cal.over) + s.cal.wheelN; cap(subs) < n {
		subs = make([]uint64, 0, n)
	}
	for i := range s.near {
		subs = append(subs, s.near[i].sub)
	}
	for i := range s.cal.over {
		subs = append(subs, s.cal.over[i].sub)
	}
	for _, head := range s.cal.heads {
		for ev := head; ev != nil; ev = ev.next {
			subs = append(subs, ev.key.sub)
		}
	}
	return subs
}

// unclaimed returns the key of the first of s's pending timers, in dispatch
// order, whose sub is not among the sorted claimed ones.
func unclaimed(s *Sim, claimed []uint64) orderKey {
	var first orderKey
	found := false
	note := func(k orderKey) {
		if _, ok := slices.BinarySearch(claimed, k.sub); !ok && (!found || k.less(&first)) {
			first, found = k, true
		}
	}
	for i := range s.near {
		note(s.near[i].orderKey)
	}
	for i := range s.cal.over {
		note(s.cal.over[i].orderKey)
	}
	for _, head := range s.cal.heads {
		for ev := head; ev != nil; ev = ev.next {
			note(ev.key)
		}
	}
	return first
}
