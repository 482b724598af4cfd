package harness

import "sync"

// fork returns a deep copy of the fabric that runs exactly as f would from
// here: the simulator (clock, queue, frames in flight, random streams) and
// every component on it, each timer armed under its original key and every
// callback bound to the copy. The topology is shared; nothing writes it
// after Build. f is only read, so one fabric may be forked on several
// goroutines at once as long as none of them runs it; once the forks are
// made, f and each of them may run on, each on its own goroutine.
//
// The copy is written into into, a fabric of f's configuration that an
// earlier trial released (warmMemo.release), reusing its memory; a nil into
// is new memory, which the same copy fills.
func (f *Fabric) fork(into *Fabric) (*Fabric, error) {
	g := into
	if g == nil {
		g = &Fabric{}
	} else if configOf(g.Opts) != configOf(f.Opts) {
		panic("harness: fork into a fabric of another configuration")
	}
	fk := f.Sim.Fork(g.Sim)
	bound, probe := g.bound[:0], g.probe
	if cap(bound) < len(f.bound) {
		bound = make([]binding, 0, len(f.bound))
	}
	*g = Fabric{
		Opts:     f.Opts,
		Sim:      fk.Sim(),
		Topo:     f.Topo,
		Log:      f.Log.Fork(g.Log),
		Speakers: orMake(g.Speakers, len(f.Speakers)),
		BFDs:     orMake(g.BFDs, len(f.BFDs)),
		Routers:  orMake(g.Routers, len(f.Routers)),
		Stacks:   orMake(g.Stacks, len(f.Stacks)),
		bound:    bound,
		started:  f.started,
		probeSeq: f.probeSeq,
	}
	// Stacks first: the daemons' copies attach to the stacks' copies. Each
	// component is written into its counterpart of the same name.
	for _, b := range f.bound {
		name := b.node.Name
		nb := binding{node: fk.Node(b.node)}
		if b.stack != nil {
			nb.stack = b.stack.Fork(fk, g.Stacks[name])
			g.Stacks[name] = nb.stack
		}
		if b.router != nil {
			nb.router = b.router.Fork(fk, g.Log, g.Routers[name])
			g.Routers[name] = nb.router
		}
		g.bound = append(g.bound, nb)
	}
	for _, b := range f.bound {
		name := b.node.Name
		sp := f.Speakers[name]
		if sp == nil {
			continue
		}
		stack := g.Stacks[name]
		nsp := sp.Fork(fk, stack, g.Log, g.Speakers[name])
		g.Speakers[name] = nsp
		if mgr := f.BFDs[name]; mgr != nil {
			nm := mgr.Fork(fk, stack, g.BFDs[name])
			g.BFDs[name] = nm
			// Build adds a peer and its BFD session per fabric port, in the
			// same order, so the i-th session is the i-th peer's.
			for i, s := range nm.Sessions() {
				s.OnDown = nsp.Peers()[i].BFDDown
			}
		}
	}
	if f.probe != nil {
		g.probe = f.probe.fork(fk, g, probe)
	}
	if _, err := fk.Finish(); err != nil {
		return nil, err
	}
	return g, nil
}

// orMake returns m, or a new map sized for n entries when m is nil.
func orMake[M ~map[K]V, K comparable, V any](m M, n int) M {
	if m == nil {
		return make(M, n)
	}
	return m
}

// warmMemo serves the fabrics of the trials the pool runs. A bring-up is a
// pure function of Options, and so is the lead-in a trial runs on it before
// its faults (leadIn); a sweep asks for the same few again and again, since
// every cell of a (topology, protocol) row warms the same n trial seeds and
// most share a lead-in. So the memo keeps one fabric per (trial Options,
// lead-in), which is never run, only forked: for noLeadIn the warm
// snapshot, brought up once; for any other lead-in a fork of the snapshot
// run through the lead-in once. Every trial runs on a fork of one of them
// (atInjection).
//
// Those forks are recycled. A pooled Run* hands its fabric back once its
// result is read (release), and the next trial fork of the same
// configuration is written into it instead of into new memory, so a sweep
// allocates one trial fabric per worker and configuration.
//
// It holds the kept and released fabrics of one configuration — Options but
// the seed — at a time: a request for any other empties it first. That
// bounds its memory to one row's seeds, and keeps a sweep from reusing an
// earlier one's bring-ups unless it starts where that one ended (a sweep
// over more than one protocol never does).
type warmMemo struct {
	mu      sync.Mutex
	config  Options
	fabrics map[memoKey]*warmEntry
	spare   []*Fabric // released trial fabrics of config, to fork into
	// warmups counts the bring-ups the memo made, forks the forks it made
	// of kept fabrics, recycled those of them written into a released
	// fabric, leadIns the lead-ins.
	warmups, forks, recycled, leadIns int
}

// memoKey names one kept fabric: a trial's Options and its lead-in.
type memoKey struct {
	opts Options
	lead leadIn
}

// warmEntry is one kept fabric, or the error making it returned. ready
// closes when either is set.
type warmEntry struct {
	ready chan struct{}
	f     *Fabric
	err   error
}

var memo warmMemo //simlint:shared the trial pool's memo: every field is guarded by mu; its kept fabrics are only ever forked, never run, and a released fabric is written into by one fork and handed to that fork's trial alone

// configOf returns opts' configuration: the Options but the seed.
func configOf(opts Options) Options {
	opts.Seed = 0
	return opts
}

// atInjection returns a fabric for opts run through lead, at the instant a
// trial injects its faults: a fork of the memo's kept fabric for (opts,
// lead), written into a released fabric when the memo holds one.
func (m *warmMemo) atInjection(opts Options, lead leadIn) (*Fabric, error) {
	f, err := m.kept(opts, lead)
	if err != nil {
		return nil, err
	}
	return m.fork(f, true)
}

// kept returns the memo's fabric for (opts, lead), making it first if the
// memo has none, and waits until it is ready. A memo of another
// configuration is emptied first.
func (m *warmMemo) kept(opts Options, lead leadIn) (*Fabric, error) {
	m.mu.Lock()
	if config := configOf(opts); m.fabrics == nil || config != m.config {
		m.config, m.spare, m.fabrics = config, nil, make(map[memoKey]*warmEntry)
	}
	key := memoKey{opts, lead}
	e := m.fabrics[key]
	if e != nil {
		m.mu.Unlock()
		<-e.ready
		return e.f, e.err
	}
	e = &warmEntry{ready: make(chan struct{})}
	m.fabrics[key] = e
	if lead == noLeadIn {
		m.warmups++
	} else {
		m.leadIns++
	}
	m.mu.Unlock()
	defer close(e.ready)
	if lead == noLeadIn {
		e.f, e.err = bringUp(opts)
	} else if e.f, e.err = m.kept(opts, noLeadIn); e.err == nil {
		e.f, e.err = lead.after(m.fork(e.f, false))
	}
	return e.f, e.err
}

// fork forks f, a kept fabric, into a released fabric if recycle is set and
// the memo holds one of f's configuration.
func (m *warmMemo) fork(f *Fabric, recycle bool) (*Fabric, error) {
	var into *Fabric
	m.mu.Lock()
	m.forks++
	if n := len(m.spare); recycle && n > 0 && m.config == configOf(f.Opts) {
		into, m.spare = m.spare[n-1], m.spare[:n-1]
		m.recycled++
	}
	m.mu.Unlock()
	return f.fork(into)
}

// release takes back f, the fabric of a pooled trial whose result has been
// read, for a later fork of its configuration to write into. The trial
// must not touch f again: under -tags invariants running it panics.
func (m *warmMemo) release(f *Fabric) {
	f.Sim.Release()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.fabrics != nil && m.config == configOf(f.Opts) {
		m.spare = append(m.spare, f)
	}
}

// counts returns how many bring-ups, forks, recycled forks and lead-ins the
// memo has made.
func (m *warmMemo) counts() (warmups, forks, recycled, leadIns int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.warmups, m.forks, m.recycled, m.leadIns
}
