package fluid

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

// oracleSolver is the solver with the path index it kept before the hashed
// chains: a map from a rendered key — the kind, then every link ID's four
// bytes — to the group owning it. Admit, AdmitPhantom and Repath are as they
// were written against it, over the embedded Solver's own groups and links;
// Advance, Reallocate and Leave are the Solver's, which never read an index.
type oracleSolver struct {
	*Solver
	index  map[string]int32
	keyBuf []byte
}

func newOracleSolver(cfg Config) *oracleSolver {
	return &oracleSolver{Solver: New(cfg), index: make(map[string]int32)}
}

func (s *oracleSolver) pathKey(path []LinkID, phantom bool) []byte {
	b := s.keyBuf[:0]
	if phantom {
		b = append(b, 'P')
	} else {
		b = append(b, 'F')
	}
	for _, id := range path {
		b = append(b, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	s.keyBuf = b
	return b
}

func (s *oracleSolver) groupFor(path []LinkID, latency time.Duration, phantom bool) (*group, int32) {
	key := s.pathKey(path, phantom)
	if gi, ok := s.index[string(key)]; ok {
		return s.groups[gi], gi
	}
	g := &group{path: append([]LinkID(nil), path...), latency: latency, phantom: phantom}
	gi := int32(len(s.groups))
	s.groups = append(s.groups, g)
	s.index[string(key)] = gi
	for _, lid := range path {
		s.links[lid].groups = append(s.links[lid].groups, gi)
	}
	return g, gi
}

func (s *oracleSolver) Admit(id uint32, bytes int64, path []LinkID, latency, at time.Duration) {
	g, gi := s.groupFor(path, latency, false)
	s.pending = append(s.pending, pendingAdmit{gi: gi, bytes: float64(bytes), at: at, id: id})
	g.n++
	s.active++
	if s.active > s.peak {
		s.peak = s.active
	}
}

func (s *oracleSolver) AdmitPhantom(path []LinkID) Handle {
	g, gi := s.groupFor(path, 0, true)
	g.n++
	return Handle(gi)
}

func (s *oracleSolver) Repath(resolve func(id uint32) (path []LinkID, latency time.Duration, ok bool)) {
	for gi, g := range s.groups {
		if g.phantom || g.empty() {
			continue
		}
		newPath, lat, ok := resolve(g.min(&s.blocks).id)
		if !ok || samePath(g.path, newPath) {
			continue
		}
		delete(s.index, string(s.pathKey(g.path, false)))
		for _, lid := range g.path {
			s.links[lid].groups = removeGroup(s.links[lid].groups, int32(gi))
		}
		g.path = append(g.path[:0], newPath...)
		g.latency = lat
		for _, lid := range g.path {
			s.links[lid].groups = append(s.links[lid].groups, int32(gi))
		}
	}
}

// indexPair drives a Solver and the oracle with the same calls and holds
// them together after each: the group of every admission, every group's
// path and latency, every link's group list and every completion.
type indexPair struct {
	t      *testing.T
	s      *Solver
	o      *oracleSolver
	now    time.Duration
	id     uint32
	handle []Handle
	// The repaths so far that moved a group onto a path another group was
	// indexed under, and that retired a key naming another group.
	onto, stolen int
}

func newIndexPair(t *testing.T, links int) *indexPair {
	p := &indexPair{t: t, s: New(Config{RateCapBps: 66e6}), o: newOracleSolver(Config{RateCapBps: 66e6})}
	for i := 0; i < links; i++ {
		p.s.AddLink(200e6, nil)
		p.o.AddLink(200e6, nil)
	}
	return p
}

// admit admits a fluid flow on path and returns the group it joined.
func (p *indexPair) admit(bytes int64, path []LinkID) int32 {
	p.id++
	lat := time.Duration(len(path)) * time.Microsecond
	p.s.Admit(p.id, bytes, path, lat, p.now)
	p.o.Admit(p.id, bytes, path, lat, p.now)
	got, want := p.s.pending[len(p.s.pending)-1].gi, p.o.pending[len(p.o.pending)-1].gi
	if got != want {
		p.t.Fatalf("flow %d on %v joins group %d, the string index says %d", p.id, path, got, want)
	}
	p.compare("admit")
	return got
}

func (p *indexPair) admitPhantom(path []LinkID) Handle {
	got, want := p.s.AdmitPhantom(path), p.o.AdmitPhantom(path)
	if got != want {
		p.t.Fatalf("phantom on %v joins group %d, the string index says %d", path, got, want)
	}
	p.handle = append(p.handle, got)
	p.compare("admit phantom")
	return got
}

func (p *indexPair) leave(i int) {
	h := p.handle[i]
	p.handle = slices.Delete(p.handle, i, i+1)
	p.s.Leave(h)
	p.o.Leave(h)
	p.compare("leave")
}

// repath re-resolves both solvers' groups through the same resolve.
func (p *indexPair) repath(resolve func(id uint32) ([]LinkID, time.Duration, bool)) {
	keyed := func(path []LinkID) (int32, bool) {
		gi, ok := p.o.index[string(p.o.pathKey(path, false))]
		return gi, ok
	}
	for gi, g := range p.o.groups {
		if g.phantom || g.empty() {
			continue
		}
		if path, _, ok := resolve(g.min(&p.o.blocks).id); ok && !samePath(path, g.path) {
			if other, ok := keyed(path); ok && other != int32(gi) {
				p.onto++
			}
			if other, ok := keyed(g.path); ok && other != int32(gi) {
				p.stolen++
			}
		}
	}
	p.s.Repath(resolve)
	p.o.Repath(resolve)
	p.compare("repath")
}

// epoch advances both solvers by step and reallocates.
func (p *indexPair) epoch(step time.Duration) {
	p.now += step
	for _, phase := range []func(*Solver, time.Duration) []Completion{(*Solver).Advance, (*Solver).Reallocate} {
		got, want := phase(p.s, p.now), phase(p.o.Solver, p.now)
		if !slices.Equal(got, want) {
			p.t.Fatalf("at %v the solver completes %v, the oracle %v", p.now, got, want)
		}
	}
	p.compare("epoch")
}

func (p *indexPair) compare(after string) {
	if len(p.s.groups) != len(p.o.groups) {
		p.t.Fatalf("after %s: %d groups, the oracle has %d", after, len(p.s.groups), len(p.o.groups))
	}
	for gi, g := range p.s.groups {
		o := p.o.groups[gi]
		if !slices.Equal(g.path, o.path) || g.latency != o.latency || g.phantom != o.phantom || g.n != o.n {
			p.t.Fatalf("after %s: group %d is %v (%v, phantom %v, %d flows), the oracle's %v (%v, phantom %v, %d flows)",
				after, gi, g.path, g.latency, g.phantom, g.n, o.path, o.latency, o.phantom, o.n)
		}
	}
	for lid, l := range p.s.links {
		if !slices.Equal(l.groups, p.o.links[lid].groups) {
			p.t.Fatalf("after %s: link %d carries groups %v, the oracle's %v", after, lid, l.groups, p.o.links[lid].groups)
		}
	}
}

// TestRepathRetiresKey walks the two cases of Repath's retire-by-key rule
// that a map lookup settles without a thought and a chain must get right,
// against the string index and against the group numbers the rule implies.
func TestRepathRetiresKey(t *testing.T) {
	P, Q, R := []LinkID{0, 1}, []LinkID{0, 2}, []LinkID{3, 2}
	to := func(paths map[uint32][]LinkID) func(uint32) ([]LinkID, time.Duration, bool) {
		return func(id uint32) ([]LinkID, time.Duration, bool) {
			path, ok := paths[id]
			return path, time.Millisecond, ok
		}
	}
	expect := func(t *testing.T, what string, got, want int32) {
		t.Helper()
		if got != want {
			t.Fatalf("%s: group %d, want %d", what, got, want)
		}
	}

	// A group repathed onto a path another live group is indexed under:
	// later flows on that path join the group indexed there, and the
	// repathed group's old path is free for a new one.
	t.Run("onto an indexed path", func(t *testing.T) {
		p := newIndexPair(t, 4)
		expect(t, "first flow on P", p.admit(1<<30, P), 0)
		expect(t, "first flow on Q", p.admit(1<<30, Q), 1)
		p.epoch(time.Millisecond)
		p.repath(to(map[uint32][]LinkID{1: Q, 2: Q}))
		expect(t, "a flow on Q", p.admit(1<<30, Q), 1)
		expect(t, "a flow on P", p.admit(1<<30, P), 2)
		p.epoch(time.Millisecond)
	})

	// A group repathed twice: the key its second move retires names the
	// group created on the path it had moved to, which loses its key.
	t.Run("old key names another group", func(t *testing.T) {
		p := newIndexPair(t, 4)
		expect(t, "first flow on P", p.admit(1<<30, P), 0)
		p.epoch(time.Millisecond)
		p.repath(to(map[uint32][]LinkID{1: Q}))
		expect(t, "first flow on Q after the move", p.admit(1<<30, Q), 1)
		p.epoch(time.Millisecond)
		p.repath(to(map[uint32][]LinkID{1: R, 2: Q}))
		expect(t, "a flow on Q after the second move", p.admit(1<<30, Q), 2)
		expect(t, "a flow on R", p.admit(1<<30, R), 3)
		expect(t, "a flow on P", p.admit(1<<30, P), 4)
		p.epoch(time.Millisecond)
	})
}

// TestIndexMatchesStringIndex drives the solver and the string-keyed oracle
// with the same seeded interleaving of admissions (fluid and phantom, on a
// few paths that share links), departures, repaths that move groups back and
// forth between paths other groups are indexed under, refused resolutions
// and epochs that complete flows, and holds them together after every call.
func TestIndexMatchesStringIndex(t *testing.T) {
	onto, stolen := 0, 0
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := newIndexPair(t, 6)
		paths := [][]LinkID{{0}, {0, 1}, {0, 2}, {1, 2}, {3, 4, 5}, {0, 4, 5}, {3, 1}, {2}}
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(10); {
			case op < 4:
				p.admit(1000+rng.Int63n(2_000_000), paths[rng.Intn(len(paths))])
			case op < 6:
				p.admitPhantom(paths[rng.Intn(len(paths))])
			case op < 7:
				if len(p.handle) > 0 {
					p.leave(rng.Intn(len(p.handle)))
				}
			case op < 8:
				shift, refuse := rng.Intn(len(paths)), uint32(2+rng.Intn(4))
				p.repath(func(id uint32) ([]LinkID, time.Duration, bool) {
					return paths[(int(id)+shift)%len(paths)], time.Duration(shift) * time.Microsecond, id%refuse != 0
				})
			default:
				p.epoch(time.Duration(1+rng.Intn(50)) * time.Millisecond)
			}
		}
		for i := 0; i < 200 && p.s.Active() > 0; i++ {
			p.epoch(100 * time.Millisecond)
		}
		if p.s.Active() != 0 {
			t.Fatalf("seed %d: %d flows never complete", seed, p.s.Active())
		}
		onto += p.onto
		stolen += p.stolen
	}
	if onto == 0 || stolen == 0 {
		t.Errorf("%d repaths onto an indexed path and %d retiring another group's key: the script misses a case", onto, stolen)
	}
	t.Logf("%d repaths onto an indexed path, %d retiring another group's key", onto, stolen)
}
