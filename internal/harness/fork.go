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

// warmMemo serves the bring-ups made inside the trial pool. A bring-up is a
// pure function of Options, and a sweep asks for the same few again and
// again: every cell of a (topology, protocol) row warms the same n trial
// seeds. So the memo keeps each warm fabric as a snapshot that is never run
// and hands out forks of it.
//
// A failure or loss trial then runs a lead-in that is the same for all four
// test cases (leadIn), so the memo keeps a second level: one lead-in fabric
// per (trial Options, lead-in), a fork of the snapshot run through the
// lead-in once and then, like the snapshot, only ever forked. Every case
// runs on a fork of it.
//
// Those forks are recycled. A pooled RunFailure or RunLoss hands its fabric
// back once its result is read (release), and the next fork of the same
// configuration is written into it instead of into new memory, so a sweep
// allocates one trial fabric per worker and configuration.
//
// It holds the snapshots, lead-in fabrics and released fabrics of one
// configuration — Options but the seed — at a time: a request for any other
// empties it first. That bounds its memory to one row's seeds, and keeps a
// sweep from reusing an earlier one's bring-ups unless it starts where that
// one ended (a sweep over more than one protocol never does).
type warmMemo struct {
	mu      sync.Mutex
	config  Options
	entries map[Options]*warmEntry
	leads   map[leadKey]*warmEntry
	spare   []*Fabric // released trial fabrics of config, to fork into
	// warmups counts the bring-ups the memo made, forks the forks it made
	// of snapshots and of lead-in fabrics, recycled those of them written
	// into a released fabric, leadIns the lead-ins.
	warmups, forks, recycled, leadIns int
}

// warmEntry is one snapshot or lead-in fabric, or the error making it
// returned. ready closes when either is set.
type warmEntry struct {
	ready chan struct{}
	f     *Fabric
	err   error
}

// leadKey names one lead-in fabric: a trial's Options and its lead-in.
type leadKey struct {
	opts Options
	lead leadIn
}

var memo warmMemo //simlint:shared the trial pool's memo: every field is guarded by mu; its snapshots and lead-in fabrics are only ever forked, never run, and a released fabric is written into by one fork and handed to that fork's trial alone

// configOf returns opts' configuration: the Options but the seed.
func configOf(opts Options) Options {
	opts.Seed = 0
	return opts
}

// scope empties the memo unless it holds opts' configuration. m.mu is held.
func (m *warmMemo) scope(opts Options) {
	if config := configOf(opts); m.entries == nil || config != m.config {
		m.config, m.spare = config, nil
		m.entries, m.leads = make(map[Options]*warmEntry), make(map[leadKey]*warmEntry)
	}
}

// entry returns the fabric of key in entries, making it with build if the
// memo has none, and waits until it is ready. m.mu is held on entry and
// released on return.
func entry[K comparable](m *warmMemo, entries map[K]*warmEntry, key K, build func() (*Fabric, error)) (*Fabric, error) {
	e := entries[key]
	if e == nil {
		e = &warmEntry{ready: make(chan struct{})}
		entries[key] = e
		m.mu.Unlock()
		e.f, e.err = build()
		close(e.ready)
	} else {
		m.mu.Unlock()
		<-e.ready
	}
	return e.f, e.err
}

// warm returns a fork of the snapshot for opts, bringing it up first if the
// memo has none.
func (m *warmMemo) warm(opts Options) (*Fabric, error) {
	m.mu.Lock()
	m.scope(opts)
	f, err := entry(m, m.entries, opts, func() (*Fabric, error) {
		m.mu.Lock()
		m.warmups++
		m.mu.Unlock()
		return bringUp(opts)
	})
	if err != nil {
		return nil, err
	}
	return m.forkOf(f, false)
}

// atInjection returns a fabric for opts run through lead, at the instant a
// test case is injected: a fork of the memo's lead-in fabric for (opts,
// lead), which it makes first if it has none, written into a released
// fabric when it holds one.
func (m *warmMemo) atInjection(opts Options, lead leadIn) (*Fabric, error) {
	m.mu.Lock()
	m.scope(opts)
	f, err := entry(m, m.leads, leadKey{opts, lead}, func() (*Fabric, error) {
		m.mu.Lock()
		m.leadIns++
		m.mu.Unlock()
		return warmThrough(opts, lead)
	})
	if err != nil {
		return nil, err
	}
	return m.forkOf(f, true)
}

// forkOf forks f, a snapshot or lead-in fabric, into a released fabric if
// recycle is set and the memo holds one of f's configuration.
func (m *warmMemo) forkOf(f *Fabric, recycle bool) (*Fabric, error) {
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
	if m.entries != nil && m.config == configOf(f.Opts) {
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
