package harness

import (
	"sync"

	"repro/internal/bfd"
	"repro/internal/bgp"
	"repro/internal/ipstack"
	"repro/internal/mrmtp"
)

// fork returns a deep copy of the fabric that runs exactly as f would from
// here: the simulator (clock, queue, frames in flight, random streams) and
// every component on it, each timer armed under its original key and every
// callback bound to the copy. The topology is shared; nothing writes it
// after Build. f is only read, so one fabric may be forked on several
// goroutines at once as long as none of them runs it.
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
// It holds the snapshots of one configuration — Options but the seed — at a
// time: a request for any other empties it first. That bounds its memory to
// one row's seeds, and keeps a sweep from reusing an earlier one's
// bring-ups unless it starts where that one ended (a sweep over more than
// one protocol never does).
type warmMemo struct {
	mu      sync.Mutex
	config  Options
	entries map[Options]*warmEntry
	// warmups counts the bring-ups the memo made, forks the forks it handed
	// out.
	warmups, forks int
}

// warmEntry is one snapshot, or the error its bring-up returned. ready
// closes when either is set.
type warmEntry struct {
	ready chan struct{}
	f     *Fabric
	err   error
}

var memo warmMemo //simlint:shared the trial pool's bring-up memo: every field is guarded by mu, and the snapshots it holds are only ever forked, never run

// warm returns a fork of the snapshot for opts, bringing it up first if the
// memo has none.
func (m *warmMemo) warm(opts Options) (*Fabric, error) {
	config := opts
	config.Seed = 0
	m.mu.Lock()
	if m.entries == nil || config != m.config {
		m.config, m.entries = config, make(map[Options]*warmEntry)
	}
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

// counts returns how many bring-ups and forks the memo has made.
func (m *warmMemo) counts() (warmups, forks int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.warmups, m.forks
}
