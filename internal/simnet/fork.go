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
// nothing more, and seeding a source costs more than the rest of a fork.
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
	st.src = rand.NewSource(st.seed).(rand.Source64)
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

// fork returns an unbuilt stream at the same position, or nil for a stream
// never built.
func (st *stream) fork() *stream {
	if st == nil {
		return nil
	}
	return &stream{seed: st.seed, draws: st.draws}
}

// Forker makes a deep copy of a simulation that has not been dispatching
// since it was last run: Sim.Fork copies the engine's own state, and the
// protocol components copy theirs through the forker, which maps every
// node, port, link and pending timer of the source to its copy. A component
// that holds another's object — a daemon its stack, say — is handed that
// object's copy by whoever drives the fork.
//
// The engine cannot copy a callback: a pending event's fn closes over the
// component that scheduled it. So the copy's queue starts empty, and each
// component claims its pending timers (Timer), re-arming them on the copy
// with callbacks bound to its own copy. A claimed timer keeps its original
// (at, prio, sub) key and the copy's seq counter is the source's, so
// the copy dispatches exactly what the source would have. Finish fails when
// a pending event of the source was claimed by no one — a bare Schedule
// closure, say — or a node's handler or a link's capture tap has no copy.
//
// A fork only reads the source, so one source may be forked on several
// goroutines at once, provided nothing runs it meanwhile.
type Forker struct {
	src, dst *Sim
	claimed  map[*event]struct{}
	checks   []func() error
	errs     []error
}

// Fork starts a copy of s: clock, counters, random streams, nodes, ports,
// links with their frames in flight and egress queues, and the frame pool.
// Components copy their state and claim their timers through the returned
// Forker; Finish completes the copy.
func (s *Sim) Fork() *Forker {
	d := &Sim{
		now:            s.now,
		frontier:       slices.Clone(s.frontier),
		seq:            s.seq,
		seed:           s.seed,
		rng:            s.rng.fork(),
		nodes:          make(map[string]*Node, len(s.nodes)),
		nodeOrder:      make([]*Node, 0, len(s.nodeOrder)),
		links:          make([]*Link, 0, len(s.links)),
		frames:         s.frames.Fork(),
		curOwner:       -1,
		DefaultLatency: s.DefaultLatency,
		events:         s.events,
	}
	d.cal.cur = s.cal.cur
	ports := 0
	for _, n := range s.nodeOrder {
		ports += len(n.Ports)
	}
	// A component claims a timer or two per port (connection, session,
	// adjacency) and per node.
	size := 2*ports + 2*len(s.nodeOrder)
	fk := &Forker{src: s, dst: d, claimed: make(map[*event]struct{}, size)}
	if s.curOwner != -1 {
		fk.failf("simnet: fork while dispatching an event of node %d", s.curOwner)
	}
	for _, n := range s.nodeOrder {
		nn := &Node{Name: n.Name, Sim: d, Ports: make([]*Port, len(n.Ports)), id: n.id, rng: n.rng.fork(), fwdClock: n.fwdClock}
		for _, p := range n.Ports[1:] {
			nn.Ports[p.Index] = &Port{Node: nn, Index: p.Index, MAC: p.MAC, up: p.up, Counters: p.Counters}
		}
		d.nodes[nn.Name] = nn
		d.nodeOrder = append(d.nodeOrder, nn)
	}
	for _, l := range s.links {
		if len(l.taps) > 0 {
			fk.failf("simnet: link %s<->%s has capture taps, which a fork cannot copy", l.A.Name(), l.B.Name())
		}
		nl := &Link{A: fk.Port(l.A), B: fk.Port(l.B), Latency: l.Latency, bandwidth: l.bandwidth, maxQueue: l.maxQueue}
		nl.A.Link, nl.B.Link = nl, nl
		nl.dirA.wire(nl, nl.A, nl.B)
		nl.dirB.wire(nl, nl.B, nl.A)
		d.forkDir(&nl.dirA, &l.dirA)
		d.forkDir(&nl.dirB, &l.dirB)
		d.links = append(d.links, nl)
	}
	return fk
}

// forkDir copies the transmit state of direction src into dst, which wire
// has bound to the copied link: frames in flight (their bytes copied), the
// egress queue's releases, the impairment and its stream, the counters. A
// busy direction's record joins the copy's wire heap keyed to its next frame.
func (s *Sim) forkDir(dst, src *dirState) {
	dst.busyUntil = src.busyUntil
	dst.rel = relRing{ring: src.rel.ring, buf: slices.Clone(src.rel.buf)}
	dst.overflows, dst.overflowBytes = src.overflows, src.overflowBytes
	dst.imp, dst.impaired = src.imp, src.impaired
	dst.lost, dst.corrupted = src.lost, src.corrupted
	dst.fluidBps, dst.fluidBytes, dst.fluidAt = src.fluidBps, src.fluidBytes, src.fluidAt
	dst.rng = src.rng.fork()
	dst.txSeq = src.txSeq
	n := src.fly.n
	if n == 0 {
		return
	}
	buf := make([]flight, len(src.fly.buf))
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

// Sim returns the copy.
func (fk *Forker) Sim() *Sim { return fk.dst }

// Node returns the copy of a node of the source.
func (fk *Forker) Node(n *Node) *Node { return fk.dst.nodeOrder[n.id] }

// Port returns the copy of a port of the source.
func (fk *Forker) Port(p *Port) *Port { return fk.Node(p.Node).Ports[p.Index] }

// Timer claims t, a timer of the source, for the copy: the returned timer
// runs fn, and if t is pending it is armed on the copy under t's own key. A
// nil t gives nil.
func (fk *Forker) Timer(t *Timer, fn func()) *Timer {
	if t == nil {
		return nil
	}
	nt := &Timer{sim: fk.dst, fn: fn}
	if !t.pending() {
		return nt
	}
	if _, dup := fk.claimed[t.ev]; dup {
		fk.failf("simnet: pending event at %v claimed twice", t.ev.key.at)
		return nt
	}
	fk.claimed[t.ev] = struct{}{}
	ev := fk.dst.alloc()
	ev.kind, ev.fn, ev.key = evFunc, fn, t.ev.key
	fk.dst.arm(ev)
	nt.ev, nt.gen = ev, ev.gen
	return nt
}

// Check defers fn to Finish, for a condition that holds only once every
// component has made its copy (a hook the owner re-installs, say).
func (fk *Forker) Check(fn func() error) { fk.checks = append(fk.checks, fn) }

// failf records a fork error; Finish returns it.
func (fk *Forker) failf(format string, args ...any) {
	fk.errs = append(fk.errs, fmt.Errorf(format, args...))
}

// Finish completes the copy. It fails when a pending event of the source
// was not claimed, a node with a handler has none on the copy, a deferred
// check fails, or any component recorded an error.
func (fk *Forker) Finish() (*Sim, error) {
	unclaimed, first := 0, orderKey{}
	note := func(ev *event) {
		if _, ok := fk.claimed[ev]; !ok {
			if unclaimed == 0 || ev.key.less(&first) {
				first = ev.key
			}
			unclaimed++
		}
	}
	s := fk.src
	for i := range s.near {
		note(s.near[i].ev)
	}
	for i := range s.cal.over {
		note(s.cal.over[i].ev)
	}
	for _, head := range s.cal.heads {
		for ev := head; ev != nil; ev = ev.next {
			note(ev)
		}
	}
	if unclaimed > 0 {
		fk.failf("simnet: %d pending event(s) claimed by no component (the first at %v, prio %#x); a bare Schedule closure cannot be forked", unclaimed, first.at, first.prio)
	}
	for i, n := range s.nodeOrder {
		if n.Handler != nil && fk.dst.nodeOrder[i].Handler == nil {
			fk.failf("simnet: node %s has a handler and its copy has none", n.Name)
		}
	}
	for _, check := range fk.checks {
		if err := check(); err != nil {
			fk.errs = append(fk.errs, err)
		}
	}
	if err := errors.Join(fk.errs...); err != nil {
		return nil, err
	}
	return fk.dst, nil
}
