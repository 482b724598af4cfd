package fluid

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

func approx(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s = %g, want %g (±%g)", what, got, want, tol)
	}
}

// One flow on one link, no cap: the flow gets the whole link and finishes
// at bytes*8/cap plus the path latency offset, at the exact crossing
// instant inside an epoch.
func TestSingleFlowExactFCT(t *testing.T) {
	s := New(Config{})
	l := s.AddLink(100_000_000, nil) // 100 Mb/s
	path := []LinkID{l}
	lat := 500 * time.Microsecond

	s.Advance(0)
	s.Admit(1, 1_250_000, path, lat, 0) // 0.1 s at 100 Mb/s
	if cs := s.Reallocate(0); len(cs) != 0 {
		t.Fatal("flow completed at admission: nothing has been served yet")
	}

	var got []Completion
	for now := 5 * time.Millisecond; now <= 200*time.Millisecond; now += 5 * time.Millisecond {
		got = append(got, s.Advance(now)...)
		got = append(got, s.Reallocate(now)...)
	}
	if len(got) != 1 {
		t.Fatalf("completions = %d, want 1", len(got))
	}
	const admitted = 0
	want := 100*time.Millisecond + lat
	if fct := got[0].Done - admitted; fct != want {
		t.Fatalf("FCT = %v, want %v", fct, want)
	}
	if got[0].Done != 100*time.Millisecond+lat {
		t.Fatalf("Done = %v, want the 100ms crossing plus the %v latency", got[0].Done, lat)
	}
	if s.Active() != 0 || s.Peak() != 1 {
		t.Fatalf("active=%d peak=%d, want 0/1", s.Active(), s.Peak())
	}
}

// Two flows sharing a bottleneck split it evenly; a third flow on a
// disjoint link is unaffected. The classic progressive-filling example.
func TestMaxMinShares(t *testing.T) {
	s := New(Config{})
	shared := s.AddLink(100_000_000, nil)
	private := s.AddLink(40_000_000, nil)

	s.Advance(0)
	s.Admit(1, 1<<30, []LinkID{shared}, 0, 0)
	s.Admit(2, 1<<30, []LinkID{shared}, 0, 0)
	s.Admit(3, 1<<30, []LinkID{private}, 0, 0)
	s.Reallocate(0)

	approx(t, s.groups[0].rate, 50e6, 1, "shared per-flow rate")
	approx(t, s.groups[1].rate, 40e6, 1, "private flow rate")
}

// A flow crossing both a wide and a narrow link is frozen at the narrow
// link's share, and the wide link's leftover goes to its other flows —
// the second filling iteration.
func TestProgressiveFillingSecondIteration(t *testing.T) {
	s := New(Config{})
	narrow := s.AddLink(10_000_000, nil)
	wide := s.AddLink(100_000_000, nil)

	s.Advance(0)
	s.Admit(1, 1<<30, []LinkID{narrow, wide}, 0, 0) // bottlenecked at 10M
	s.Admit(2, 1<<30, []LinkID{wide}, 0, 0)         // gets the 90M leftover
	s.Reallocate(0)

	approx(t, s.groups[0].rate, 10e6, 1, "narrow-path rate")
	approx(t, s.groups[1].rate, 90e6, 1, "wide-path leftover rate")
}

// The per-flow cap binds before the link does.
func TestRateCap(t *testing.T) {
	s := New(Config{RateCapBps: 5e6})
	l := s.AddLink(100_000_000, nil)
	s.Advance(0)
	s.Admit(1, 1<<30, []LinkID{l}, 0, 0)
	s.Reallocate(0)
	approx(t, s.groups[0].rate, 5e6, 1, "capped rate")
}

// A flow admitted between epochs gets retroactive service credit: its FCT
// is measured from its own arrival instant, not the next epoch boundary.
func TestMidEpochAdmissionExact(t *testing.T) {
	s := New(Config{})
	l := s.AddLink(80_000_000, nil) // 10 MB/s
	path := []LinkID{l}

	s.Advance(0)
	s.Admit(1, 10_000_000, path, 0, 0) // keeps the group's rate warm for 1 s
	s.Reallocate(0)

	// Arrives 3 ms into the [0, 10ms] epoch; its credit backdates service
	// at its post-allocation share from exactly 3 ms.
	s.Advance(10 * time.Millisecond)
	s.Admit(2, 1_000_000, path, 0, 3*time.Millisecond)
	var got []Completion
	got = append(got, s.Reallocate(10*time.Millisecond)...)

	for now := 20 * time.Millisecond; now <= 3*time.Second; now += 10 * time.Millisecond {
		got = append(got, s.Advance(now)...)
		got = append(got, s.Reallocate(now)...)
	}
	if len(got) != 2 {
		t.Fatalf("completions = %d, want 2", len(got))
	}
	// Hand integration: service(10ms) = 100 KB (flow 1 alone at 10 MB/s).
	// From 10 ms both flows share 80 Mb/s at 5 MB/s each; flow 2's credit
	// is 7 ms * 5 MB/s = 35 KB, so its threshold is 100KB - 35KB + 1MB =
	// 1.065 MB, reached at 10ms + (1.065MB-0.1MB)/5MBps = 203 ms — i.e. a
	// 1 MB transfer at its 5 MB/s share measured from its own 3 ms start.
	want2 := 203 * time.Millisecond
	var c2 Completion
	for _, c := range got {
		if c.ID == 2 {
			c2 = c
		}
	}
	if c2.ID != 2 {
		t.Fatal("flow 2 never completed")
	}
	// The path's latency is 0, so Done is the crossing instant itself.
	if c2.Done != want2 {
		t.Fatalf("flow 2 Done = %v, want %v", c2.Done, want2)
	}
	if fct := c2.Done - 3*time.Millisecond; fct != 200*time.Millisecond {
		t.Fatalf("flow 2 FCT = %v, want %v", fct, 200*time.Millisecond)
	}
}

// A flow small enough to finish before the epoch it is resolved in ends is
// reported done by Reallocate with its exact analytic FCT.
func TestImmediateCompletion(t *testing.T) {
	s := New(Config{})
	l := s.AddLink(80_000_000, nil)
	path := []LinkID{l}
	// Latency is a property of the path group: both flows share it.
	s.Advance(0)
	s.Admit(1, 1<<30, path, 100*time.Microsecond, 0)
	s.Reallocate(0)
	s.Advance(10 * time.Millisecond)
	// Arrives 2 ms into the epoch; its share is 40 Mb/s = 5 MB/s beside
	// the long flow, so 10 KB takes 2 ms: done by 4 ms, before the 10 ms
	// boundary.
	s.Admit(2, 10_000, path, 100*time.Microsecond, 2*time.Millisecond)
	cs := s.Reallocate(10 * time.Millisecond)
	if len(cs) != 1 || cs[0].ID != 2 {
		t.Fatalf("completions = %+v, want exactly flow 2", cs)
	}
	if want := 2*time.Millisecond + 100*time.Microsecond; cs[0].Done-2*time.Millisecond != want {
		t.Fatalf("immediate FCT = %v, want %v", cs[0].Done-2*time.Millisecond, want)
	}
	if cs[0].Done != 4*time.Millisecond+100*time.Microsecond {
		t.Fatalf("immediate Done = %v, want 4ms plus the 100µs latency", cs[0].Done)
	}
	if s.Active() != 1 {
		t.Fatalf("active = %d, want 1 (only the long flow)", s.Active())
	}
}

// Phantom demand halves the fluid flow's share but never reserves wire
// capacity itself; Leave restores the full share.
func TestPhantomDemand(t *testing.T) {
	var applied int64
	s := New(Config{})
	l := s.AddLink(100_000_000, func(bps int64, _ time.Duration) { applied = bps })
	path := []LinkID{l}

	s.Advance(0)
	s.Admit(1, 1<<30, path, 0, 0)
	h := s.AdmitPhantom(path)
	s.Reallocate(0)
	approx(t, s.groups[0].rate, 50e6, 1, "fluid share beside phantom")
	if applied != 50_000_000 {
		t.Fatalf("applied fluid load = %d, want 50M (phantom demand must not reserve wire)", applied)
	}

	s.Leave(h)
	s.Advance(time.Millisecond)
	s.Reallocate(time.Millisecond)
	approx(t, s.groups[0].rate, 100e6, 1, "share after phantom leaves")
	if applied != 100_000_000 {
		t.Fatalf("applied fluid load = %d, want 100M", applied)
	}
}

// Repath moves a group's reservation to the newly resolved path.
func TestRepath(t *testing.T) {
	s := New(Config{})
	a := s.AddLink(100_000_000, nil)
	b := s.AddLink(100_000_000, nil)
	s.Advance(0)
	s.Admit(7, 1<<30, []LinkID{a}, 0, 0)
	s.Reallocate(0)

	s.Repath(func(id uint32) ([]LinkID, time.Duration, bool) {
		if id != 7 {
			t.Fatalf("repath representative = %d, want 7", id)
		}
		return []LinkID{b}, 0, true
	})
	s.Advance(time.Millisecond)
	s.Reallocate(time.Millisecond)
	if s.links[a].lastApplied != 0 || s.links[b].lastApplied != 100_000_000 {
		t.Fatalf("reservations after repath: a=%d b=%d, want 0/100M",
			s.links[a].lastApplied, s.links[b].lastApplied)
	}
}

// TestRepathKeepsPhantomPath pins a known gap (EXPERIMENTS.md, known delta
// 6): Repath moves fluid groups only, so a packet-path flow's phantom demand
// stays on the path it was admitted on after a failure moves the packets —
// and hybrid mode sends exactly the flows that straddle a failure to the
// packet path. Here the fluid group follows the resolver to link b while the
// phantom keeps squeezing link a, which then carries no fluid at all.
func TestRepathKeepsPhantomPath(t *testing.T) {
	s := New(Config{})
	a := s.AddLink(100_000_000, nil)
	b := s.AddLink(100_000_000, nil)
	s.Advance(0)
	s.Admit(7, 1<<30, []LinkID{a}, 0, 0)
	h := s.AdmitPhantom([]LinkID{a})
	s.Reallocate(0)

	var asked []uint32
	s.Repath(func(id uint32) ([]LinkID, time.Duration, bool) {
		asked = append(asked, id)
		return []LinkID{b}, 0, true
	})
	if len(asked) != 1 || asked[0] != 7 {
		t.Fatalf("Repath resolved flows %v, want only the fluid group's representative 7", asked)
	}
	if p := s.groups[h].path; len(p) != 1 || p[0] != a {
		t.Fatalf("the phantom group's path after Repath is %v, want it left on link %d", p, a)
	}
	s.Advance(time.Millisecond)
	s.Reallocate(time.Millisecond)
	if g := s.links[a].groups; len(g) != 1 || g[0] != int32(h) || s.links[b].lastApplied != 100_000_000 {
		t.Fatalf("after Repath link a serves groups %v, link b carries %d bps: want the phantom alone on a and the fluid flow on all of b",
			g, s.links[b].lastApplied)
	}
	approx(t, s.groups[h].rate, 100e6, 1, "the phantom's share of link a")
}

// The same admission sequence produces bit-identical completions — the
// determinism contract the hybrid engine's artifacts rest on.
func TestDeterministicReplay(t *testing.T) {
	run := func() []Completion {
		s := New(Config{RateCapBps: 66_666_666})
		l1 := s.AddLink(200_000_000, nil)
		l2 := s.AddLink(200_000_000, nil)
		var out []Completion
		s.Advance(0)
		for i := uint32(1); i <= 500; i++ {
			path := []LinkID{l1}
			if i%3 == 0 {
				path = []LinkID{l1, l2}
			}
			at := time.Duration(i) * 17 * time.Microsecond
			s.Admit(i, int64(1000*i), path, time.Microsecond, at)
		}
		for now := 10 * time.Millisecond; now <= 12*time.Second; now += 10 * time.Millisecond {
			out = append(out, s.Advance(now)...)
			out = append(out, s.Reallocate(now)...)
		}
		return append([]Completion(nil), out...)
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) != 500 {
		t.Fatalf("replay lengths: %d vs %d (want 500 each)", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// A million concurrent members stay cheap: admission and completion are a
// heap push/pop each, not a timer each. This is a correctness smoke at
// scale, not a benchmark.
func TestMillionMembers(t *testing.T) {
	if testing.Short() {
		t.Skip("million-member smoke skipped in -short")
	}
	s := New(Config{RateCapBps: 66e6})
	l := s.AddLink(200_000_000, nil)
	path := []LinkID{l}
	s.Advance(0)
	const n = 1_000_000
	for i := uint32(1); i <= n; i++ {
		s.Admit(i, 1_000_000, path, 0, time.Duration(i)*time.Nanosecond)
	}
	s.Reallocate(0)
	if s.Active() != n || s.Peak() != n {
		t.Fatalf("active=%d peak=%d, want %d", s.Active(), s.Peak(), n)
	}
	// At 200 Mb/s shared by 10^6 flows each needing 1 MB, draining takes
	// 4*10^10 s; advance a slice and confirm ordering holds, then drain
	// explicitly by over-advancing.
	got := s.Advance(40_000 * time.Hour)
	if len(got) == 0 {
		t.Fatal("no completions after advancing")
	}
	// Equal thresholds tie-break by admission order, so IDs pop in
	// sequence — the determinism anchor at scale.
	for i, c := range got[:1000] {
		if c.ID != uint32(i+1) {
			t.Fatalf("completion %d has ID %d, want %d (admission-order tie-break)", i, c.ID, i+1)
		}
	}
}

// plainHeap is the member queue as it was before the run: every member on
// one binary heap under memberLess. It stays as the oracle of the queue that
// replaced it.
type plainHeap []member

func (h plainHeap) Len() int           { return len(h) }
func (h plainHeap) Less(i, j int) bool { return memberLess(h[i], h[j]) }
func (h plainHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *plainHeap) Push(x any)        { *h = append(*h, x.(member)) }
func (h *plainHeap) Pop() any {
	old := *h
	m := old[len(old)-1]
	*h = old[:len(old)-1]
	return m
}

// queueCheck is one group's member queue driven beside the plain heap it
// must match.
type queueCheck struct {
	g                    group
	oracle               plainHeap
	top                  float64        // the largest threshold pushed so far
	held                 map[int32]bool // every block the group's run has held
	viaRun, grew, pushed int            // members filed on the run, blocks chained behind another
}

// TestMemberQueueMatchesHeap drives two groups' queues, which share one
// block pool as the groups of one Solver do, and a plain heap beside each
// with the same 10⁵ members — random thresholds from a small set so that ties
// are common, ascending stretches (which the run keeps), descending ones
// (which it cannot), pops interleaved with the pushes, a drain of both to
// empty in the middle so that the runs restart — and compares every popped
// member, and every minimum Repath would pick its representative from. The
// runs cross block boundaries, and blocks one group's pops free are taken by
// the other's pushes. After every stretch each block is on exactly one
// chain: one group's run, or the free list.
func TestMemberQueueMatchesHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	var pool blockPool
	qs := [2]*queueCheck{{held: map[int32]bool{}}, {held: map[int32]bool{}}}
	seq, pushed, popped := uint32(0), 0, 0
	push := func(q *queueCheck, threshold float64) {
		seq++
		m := member{threshold: threshold, id: seq ^ 0x5a5a, seq: seq}
		inHeap, last := len(q.g.heap), q.g.last
		q.g.push(m, &pool)
		if len(q.g.heap) == inHeap {
			q.viaRun++
		}
		if q.g.last != last {
			q.held[q.g.last] = true
			if last != 0 {
				q.grew++
			}
		}
		q.top = max(q.top, threshold)
		heap.Push(&q.oracle, m)
		q.pushed++
		pushed++
	}
	pop := func(q *queueCheck) {
		if q.g.empty() != (len(q.oracle) == 0) {
			t.Fatalf("after %d pushes and %d pops the queue says empty=%v, the heap holds %d", pushed, popped, q.g.empty(), len(q.oracle))
		}
		if q.g.empty() {
			return
		}
		want := heap.Pop(&q.oracle).(member)
		if rep := *q.g.min(&pool); rep != want {
			t.Fatalf("pop %d: the queue's minimum is %+v, the heap's %+v", popped, rep, want)
		}
		if got := q.g.pop(&pool); got != want {
			t.Fatalf("pop %d: the queue yields %+v, the heap %+v", popped, got, want)
		}
		popped++
	}
	// chains checks that the runs and the free list partition the pool.
	chains := func(when string) {
		owner := make(map[int32]string)
		walk := func(name string, b, last int32) {
			for steps := 0; b != 0; steps++ {
				if other, ok := owner[b]; ok || steps > len(pool.blocks) {
					t.Fatalf("%s: block %d is on %s's chain and on %s's", when, b, other, name)
				}
				owner[b] = name
				if b == last {
					break
				}
				b = pool.next[b-1]
			}
		}
		walk("group 0", qs[0].g.first, qs[0].g.last)
		walk("group 1", qs[1].g.first, qs[1].g.last)
		walk("the free list", pool.free, -1)
		if len(owner) != len(pool.blocks) {
			t.Fatalf("%s: %d of %d blocks are on a chain", when, len(owner), len(pool.blocks))
		}
	}
	base := 0.0
	for pushed < 100_000 {
		q := qs[rng.Intn(2)]
		n := 1 + rng.Intn(400)
		if rng.Intn(2) == 0 {
			base = q.top // the next stretch starts where the run can take it
		}
		switch shape := rng.Intn(4); shape {
		case 0: // random, with ties
			for i := 0; i < n; i++ {
				push(q, base+float64(rng.Intn(50)))
			}
		case 1: // ascending, equal neighbours included
			for i := 0; i < n; i++ {
				base += float64(rng.Intn(3))
				push(q, base)
			}
		case 2: // descending
			for i := 0; i < n; i++ {
				push(q, base+float64(n-i))
			}
		case 3: // pushes and pops interleaved, on both queues
			for i := 0; i < n; i++ {
				push(q, base+float64(rng.Intn(2000)))
				if rng.Intn(3) > 0 {
					pop(qs[rng.Intn(2)])
				}
			}
		}
		for k := rng.Intn(n); k > 0; k-- {
			pop(q)
		}
		if pushed > 50_000 && pushed < 50_400 {
			for _, q := range qs {
				for !q.g.empty() {
					pop(q)
				}
				pop(q) // both empty
			}
			if pool.free == 0 {
				t.Fatal("two drained queues left no block on the free list")
			}
		}
		chains(fmt.Sprintf("after %d pushes and %d pops", pushed, popped))
	}
	for _, q := range qs {
		for len(q.oracle) > 0 {
			pop(q)
		}
		pop(q)
	}
	chains("drained")
	if popped != pushed {
		t.Fatalf("%d members pushed, %d popped", pushed, popped)
	}
	traded := 0
	for b := range qs[0].held {
		if qs[1].held[b] {
			traded++
		}
	}
	for i, q := range qs {
		if q.viaRun < q.pushed/10 || q.viaRun > q.pushed*9/10 {
			t.Errorf("group %d: %d of %d members went through the run: the script exercises one structure only", i, q.viaRun, q.pushed)
		}
		if q.grew < 10 {
			t.Errorf("group %d: its run chained a block behind another %d times", i, q.grew)
		}
	}
	if traded < 2 {
		t.Errorf("%d blocks of %d were held by both groups' runs: the script trades none through the free list", traded, len(pool.blocks))
	}
}

// BenchmarkMemberQueue times a member's whole stay — admission, the push
// its threshold earns, the pop — for 10⁵ flows on one path whose thresholds
// ascend (flows of one size or growing: every member joins the run) or are
// random (a mix of sizes: most go to the heap). One solver serves every
// iteration, so the queue's slices are at their final size after the first.
func BenchmarkMemberQueue(b *testing.B) {
	const n = 100_000
	rng := rand.New(rand.NewSource(24))
	sizes := map[string][]int64{"ascending": make([]int64, n), "random": make([]int64, n)}
	for i := 0; i < n; i++ {
		sizes["ascending"][i] = int64(1000 + i)
		sizes["random"][i] = 1000 + rng.Int63n(10_000_000)
	}
	for _, name := range []string{"ascending", "random"} {
		b.Run(name, func(b *testing.B) {
			s := New(Config{RateCapBps: 66e6})
			path := []LinkID{s.AddLink(1e15, nil)} // every flow runs at the cap: 10 MB takes 1.2 s
			now := time.Duration(0)
			s.Advance(now)
			round := func() {
				for id, bytes := range sizes[name] {
					s.Admit(uint32(id+1), bytes, path, 0, now)
				}
				s.Reallocate(now)
				now += 2 * time.Second
				if got := s.Advance(now); len(got) != n {
					b.Fatalf("%d of %d members completed", len(got), n)
				}
				s.Reallocate(now)
			}
			round()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				round()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/member")
		})
	}
}
