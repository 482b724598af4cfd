package harness

import (
	"sync"

	"repro/internal/bfd"
	"repro/internal/bgp"
	"repro/internal/ipstack"
	"repro/internal/mrmtp"
	"repro/internal/topology"
)

// fork returns a deep copy of the fabric that runs exactly as f would from
// here: the simulator (clock, queue, frames in flight, random streams) and
// every component on it, each timer armed under its original key and every
// callback bound to the copy. The topology is shared; nothing writes it
// after Build. f is only read, so one fabric may be forked on several
// goroutines at once as long as none of them runs it; once the forks are
// made, f and each of them may run on, each on its own goroutine.
func (f *Fabric) fork() (*Fabric, error) {
	fk := f.Sim.Fork()
	g := &Fabric{
		Opts:     f.Opts,
		Sim:      fk.Sim(),
		Topo:     f.Topo,
		Log:      f.Log.Fork(),
		Speakers: make(map[string]*bgp.Speaker, len(f.Speakers)),
		BFDs:     make(map[string]*bfd.Manager, len(f.BFDs)),
		Routers:  make(map[string]*mrmtp.Router, len(f.Routers)),
		Stacks:   make(map[string]*ipstack.Stack, len(f.Stacks)),
		bound:    make([]binding, len(f.bound)),
		started:  f.started,
		probeSeq: f.probeSeq,
	}
	// Stacks first: the daemons' copies attach to the stacks' copies.
	for i, b := range f.bound {
		nb := binding{node: fk.Node(b.node)}
		if b.stack != nil {
			nb.stack = b.stack.Fork(fk)
			g.Stacks[b.node.Name] = nb.stack
		}
		if b.router != nil {
			nb.router = b.router.Fork(fk, g.Log)
			g.Routers[b.node.Name] = nb.router
		}
		g.bound[i] = nb
	}
	for _, d := range f.Topo.Routers() {
		sp := f.Speakers[d.Name]
		if sp == nil {
			continue
		}
		stack := g.Stacks[d.Name]
		nsp := sp.Fork(fk, stack, g.Log)
		g.Speakers[d.Name] = nsp
		if mgr := f.BFDs[d.Name]; mgr != nil {
			nm := mgr.Fork(fk, stack)
			g.BFDs[d.Name] = nm
			// Build adds a peer and its BFD session per fabric port, in the
			// same order, so the i-th session is the i-th peer's.
			for i, s := range nm.Sessions() {
				s.OnDown = nsp.Peers()[i].BFDDown
			}
		}
	}
	if f.probe != nil {
		g.probe = f.probe.fork(fk, g)
	}
	if _, err := fk.Finish(); err != nil {
		return nil, err
	}
	return g, nil
}

// warmMemo serves the bring-ups made inside the trial pool. A bring-up is a
// pure function of Options, and a sweep asks for the same few again and
// again: every cell of a (topology, protocol) row warms the same n trial
// seeds. So the memo keeps each warm fabric as a snapshot that is never run
// and hands out forks of it.
//
// A failure or loss trial then runs a lead-in that is the same for all four
// test cases (leadIn), so the memo serves the injection instant too: the
// first case of a (trial seed, lead-in) to ask runs the lead-in on its fork
// of the snapshot, forks the result once for each other case, stashes those
// forks, and runs on the lead-in fabric itself. Each other case takes its
// stashed fork. A case whose fork is already taken (a cell asked twice)
// makes a fresh lead-in and refills only the empty slots. A sweep of the
// four cases thus forks four times per (trial seed, lead-in), once per
// trial, and runs the lead-in once.
//
// It holds the snapshots and stashed forks of one configuration — Options
// but the seed — at a time: a request for any other empties it first. That
// bounds its memory to one row's seeds, and keeps a sweep from reusing an
// earlier one's bring-ups unless it starts where that one ended (a sweep
// over more than one protocol never does).
type warmMemo struct {
	mu      sync.Mutex
	config  Options
	entries map[Options]*warmEntry
	stash   map[stashKey]*Fabric
	// warmups counts the bring-ups the memo made, forks the forks it made
	// of snapshots and of lead-in fabrics, leadIns the lead-ins.
	warmups, forks, leadIns int
}

// warmEntry is one snapshot, or the error its bring-up returned. ready
// closes when either is set.
type warmEntry struct {
	ready chan struct{}
	f     *Fabric
	err   error
}

// stashKey names one stashed fork: a trial's Options, its lead-in, and the
// test case it is kept for.
type stashKey struct {
	opts Options
	lead leadIn
	tc   topology.FailureCase
}

var memo warmMemo //simlint:shared the trial pool's memo: every field is guarded by mu, its snapshots are only ever forked, never run, and each stashed fork is handed to one trial and dropped from the memo

// configOf returns opts' configuration: the Options but the seed.
func configOf(opts Options) Options {
	opts.Seed = 0
	return opts
}

// scope empties the memo unless it holds opts' configuration. m.mu is held.
func (m *warmMemo) scope(opts Options) {
	if config := configOf(opts); m.entries == nil || config != m.config {
		m.config, m.entries, m.stash = config, make(map[Options]*warmEntry), make(map[stashKey]*Fabric)
	}
}

// warm returns a fork of the snapshot for opts, bringing it up first if the
// memo has none.
func (m *warmMemo) warm(opts Options) (*Fabric, error) {
	m.mu.Lock()
	m.scope(opts)
	e := m.entries[opts]
	if e == nil {
		e = &warmEntry{ready: make(chan struct{})}
		m.entries[opts] = e
		m.warmups++
		m.mu.Unlock()
		e.f, e.err = bringUp(opts)
		close(e.ready)
	} else {
		m.mu.Unlock()
		<-e.ready
	}
	if e.err != nil {
		return nil, e.err
	}
	m.mu.Lock()
	m.forks++
	m.mu.Unlock()
	return e.f.fork()
}

// atInjection returns a fabric for opts run through lead, at the instant
// test case tc is injected: tc's stashed fork if the memo holds one, else a
// fresh lead-in, whose forks fill the empty slots of the other cases.
func (m *warmMemo) atInjection(opts Options, lead leadIn, tc topology.FailureCase) (*Fabric, error) {
	key := stashKey{opts, lead, tc}
	m.mu.Lock()
	m.scope(opts)
	if g := m.stash[key]; g != nil {
		delete(m.stash, key)
		m.mu.Unlock()
		return g, nil
	}
	m.mu.Unlock()
	f, err := warmThrough(opts, lead)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	m.leadIns++
	var empty []stashKey
	for _, c := range topology.AllFailureCases() {
		if k := (stashKey{opts, lead, c}); c != tc && m.stash[k] == nil {
			empty = append(empty, k)
		}
	}
	m.forks += len(empty)
	m.mu.Unlock()
	forks := make([]*Fabric, len(empty))
	for i := range empty {
		if forks[i], err = f.fork(); err != nil {
			return nil, err
		}
	}
	// Only a concurrent lead-in of the same key, which the pool never runs
	// (the trials of a cell differ in seed), or a change of configuration
	// can have moved the stash meanwhile: keep only what still fits.
	m.mu.Lock()
	for i, k := range empty {
		if m.stash[k] == nil && m.config == configOf(opts) {
			m.stash[k] = forks[i]
		}
	}
	m.mu.Unlock()
	return f, nil
}

// counts returns how many bring-ups, forks and lead-ins the memo has made.
func (m *warmMemo) counts() (warmups, forks, leadIns int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.warmups, m.forks, m.leadIns
}
