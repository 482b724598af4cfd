package framepool

import (
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/budget"
	"repro/internal/invariant"
)

func TestGetReturnsZeroedExactLength(t *testing.T) {
	p := New()
	b := p.Get(85)
	if len(b) != 85 {
		t.Fatalf("len = %d, want 85", len(b))
	}
	for i := range b {
		b[i] = 0xAA
	}
	p.Put(b)
	c := p.Get(85)
	if len(c) != 85 {
		t.Fatalf("recycled len = %d, want 85", len(c))
	}
	for i, v := range c {
		if v != 0 {
			t.Fatalf("recycled buffer not zeroed at %d: %#x", i, v)
		}
	}
	if s := p.Stats(); s.Recycled != 1 {
		t.Errorf("Recycled = %d, want 1 (stats %+v)", s.Recycled, s)
	}
}

func TestRecycleAcrossSizesWithinClass(t *testing.T) {
	p := New()
	b := p.Get(100) // class 128
	p.Put(b)
	c := p.Get(128) // same class, larger length
	if len(c) != 128 || cap(c) < 128 {
		t.Fatalf("len=%d cap=%d, want 128/≥128", len(c), cap(c))
	}
	if s := p.Stats(); s.Recycled != 1 {
		t.Errorf("Recycled = %d, want 1", s.Recycled)
	}
}

func TestOversizedBypassesBuckets(t *testing.T) {
	p := New()
	b := p.Get(10000)
	if len(b) != 10000 {
		t.Fatalf("len = %d", len(b))
	}
	p.Put(b) // cap ≥ 4096: lands in the largest class
	c := p.Get(4096)
	if s := p.Stats(); s.Recycled != 1 {
		t.Errorf("oversized buffer not recycled into largest class: %+v", s)
	}
	_ = c
}

func TestForeignAndNilPut(t *testing.T) {
	p := New()
	p.Put(nil)              // no-op
	p.Put(make([]byte, 10)) // cap below every class: rejected
	if s := p.Stats(); s.Returned != 0 || s.InUse != 0 {
		t.Errorf("tiny/nil Put should be rejected: %+v", s)
	}
	p.Put(make([]byte, 200)) // foreign but poolable
	if s := p.Stats(); s.Returned != 1 || s.InUse != -1 {
		t.Errorf("foreign Put: %+v", s)
	}
	b := p.Get(64) // class 64: the cap-200 buffer entered the 128 class, so this misses
	_ = b
}

func TestOccupancyStats(t *testing.T) {
	p := New()
	a := p.Get(64)
	b := p.Get(64)
	if s := p.Stats(); s.InUse != 2 || s.Peak != 2 || s.Fresh != 2 {
		t.Fatalf("after two Gets: %+v", s)
	}
	p.Put(a)
	if s := p.Stats(); s.InUse != 1 || s.Peak != 2 || s.Returned != 1 {
		t.Fatalf("after one Put: %+v", s)
	}
	p.Put(b)
	c := p.Get(64)
	if s := p.Stats(); s.InUse != 1 || s.Peak != 2 || s.Recycled != 1 {
		t.Fatalf("after recycle: %+v", s)
	}
	p.Put(c)
}

func TestGetZero(t *testing.T) {
	p := New()
	if b := p.Get(0); b != nil {
		t.Errorf("Get(0) = %v, want nil", b)
	}
	if s := p.Stats(); s.InUse != 0 {
		t.Errorf("Get(0) counted: %+v", s)
	}
}

// TestGetPutAllocs pins the pool's budget: once every class has stock, a
// Get and its Put allocate nothing, whatever the size.
func TestGetPutAllocs(t *testing.T) {
	p := New()
	sizes := []int{1, 100, 200, 500, 1000, 1500, 4096} // one per class
	cycle := func() {
		for _, n := range sizes {
			p.Put(p.Get(n))
		}
	}
	if allocs, bytes := budget.PerRun(200, cycle); allocs != 0 || bytes != 0 {
		t.Errorf("Get and Put allocate %d objects and %d B per op, want 0 and 0", allocs, bytes)
	}
	if s := p.Stats(); s.Fresh != uint64(len(sizes)) {
		t.Errorf("%d fresh buffers for %d sizes", s.Fresh, len(sizes))
	}
}

// TestPutGrowthDoubles pins what a burst's returns cost the free lists:
// 20 000 frames of one class coming back at once allocate at most twice
// the bucket they leave behind, because a full bucket of 256 or more
// entries doubles. append's 1.25× steps past 256 cost about five times.
func TestPutGrowthDoubles(t *testing.T) {
	if invariant.Enabled || budget.Race {
		t.Skip("measured in the plain build: the ledger allocates per Put, and the race build allocates the block slices.Grow appends")
	}
	const n = 20_000
	frames := make([][]byte, n)
	for i := range frames {
		frames[i] = make([]byte, 64)
	}
	p := New()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, b := range frames {
		p.Put(b)
	}
	runtime.ReadMemStats(&after)
	bucket := uint64(cap(p.buckets[0])) * uint64(unsafe.Sizeof(frames[0]))
	if len(p.buckets[0]) != n {
		t.Fatalf("the bucket holds %d buffers, want %d", len(p.buckets[0]), n)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 2*bucket {
		t.Errorf("%d Puts allocate %d B for a %d B bucket, want at most twice it", n, grew, bucket)
	}
}

// eagerFork is the Fork that allocated the source's whole stock up front: a
// fresh buffer per free buffer of p, with its capacity, in its bucket. It is
// the oracle of TestForkMatchesEagerFork.
func eagerFork(p *Pool) *Pool {
	q := &Pool{stats: p.stats, dbg: newDebugState()}
	for i, bucket := range p.buckets {
		if len(bucket) == 0 {
			continue
		}
		stock := make([][]byte, len(bucket), cap(bucket))
		for j, b := range bucket {
			stock[j] = make([]byte, 0, cap(b))
			q.trackPut(stock[j])
		}
		q.buckets[i] = stock
	}
	return q
}

// TestForkMatchesEagerFork drives the same random Get, Put and Fork script
// into pools forked by Fork and by eagerFork, forks of forks included, and
// compares every pool's Stats after every step: what a fork owes is
// counted exactly as the stock it no longer copies.
func TestForkMatchesEagerFork(t *testing.T) {
	sizes := []int{1, 60, 64, 65, 100, 128, 200, 500, 1000, 1500, 2048, 4000, 4096, 5000}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		type world struct {
			lazy, eager *Pool
			lazyHeld    [][]byte
			eagerHeld   [][]byte
		}
		worlds := []*world{{lazy: New(), eager: New()}}
		for step := 0; step < 3000; step++ {
			w := worlds[rng.Intn(len(worlds))]
			switch op := rng.Intn(20); {
			case op == 0 && len(worlds) < 8:
				worlds = append(worlds, &world{lazy: w.lazy.Fork(nil), eager: eagerFork(w.eager)})
			case op < 11 || len(w.lazyHeld) == 0:
				n := sizes[rng.Intn(len(sizes))]
				w.lazyHeld = append(w.lazyHeld, w.lazy.Get(n))
				w.eagerHeld = append(w.eagerHeld, w.eager.Get(n))
			default:
				i := rng.Intn(len(w.lazyHeld))
				w.lazy.Put(w.lazyHeld[i])
				w.eager.Put(w.eagerHeld[i])
				last := len(w.lazyHeld) - 1
				w.lazyHeld[i], w.eagerHeld[i] = w.lazyHeld[last], w.eagerHeld[last]
				w.lazyHeld, w.eagerHeld = w.lazyHeld[:last], w.eagerHeld[:last]
			}
			for i, w := range worlds {
				if got, want := w.lazy.Stats(), w.eager.Stats(); got != want {
					t.Fatalf("seed %d step %d pool %d: Fork stats %+v, eager fork %+v", seed, step, i, got, want)
				}
			}
		}
	}
}

// TestForkAllocs pins what a fork costs: one Pool (280 B, a 288 B size
// class) whatever stock the source holds, because the stock is owed rather
// than copied.
func TestForkAllocs(t *testing.T) {
	if invariant.Enabled {
		t.Skip("the invariants ledger allocates its maps per pool")
	}
	for _, stock := range []int{0, 1000} {
		p := New()
		held := make([][]byte, stock)
		for i := range held {
			held[i] = p.Get(1 + i%4096)
		}
		for _, b := range held {
			p.Put(b)
		}
		var q *Pool
		allocs, bytes := budget.PerRun(100, func() { q = p.Fork(nil) })
		if allocs != 1 || bytes != 288 {
			t.Errorf("forking a pool stocked with %d buffers allocates %d objects and %d B, want 1 and 288", stock, allocs, bytes)
		}
		if q.Stats() != p.Stats() {
			t.Errorf("fork stats %+v, source %+v", q.Stats(), p.Stats())
		}
	}
}

// TestCloneTakesSpares: a fork into a pool holding more free buffers than
// the source's stock keeps the surplus, and buffers handed to Spare, for
// Clone, which copies into one of the same capacity and allocates only
// when none is left. Neither moves a counter.
func TestCloneTakesSpares(t *testing.T) {
	src := New()
	src.Put(src.Get(64)) // a stock of one 64-byte buffer
	old := New()
	var held [][]byte
	for range 3 {
		held = append(held, old.Get(64))
	}
	for _, b := range held {
		old.Put(b)
	}
	dead := make([]byte, 10, 128) // a frame that was in flight
	q := src.Fork(old)
	q.Spare(dead)
	if q.Stats() != src.Stats() {
		t.Fatalf("fork stats %+v, source %+v", q.Stats(), src.Stats())
	}
	frame := []byte{1, 2, 3}
	frame = append(make([]byte, 0, 64), frame...)
	mine := map[*byte]bool{}
	for _, b := range held {
		mine[&b[:1][0]] = true
	}
	for i := range 3 {
		c := q.Clone(frame)
		if len(c) != 3 || cap(c) != 64 || c[0] != 1 || c[2] != 3 {
			t.Fatalf("clone %d is %v (cap %d), want a copy of %v with its capacity", i, c, cap(c), frame)
		}
		if got, want := mine[&c[:1][0]], i < 2; got != want {
			t.Errorf("clone %d in a spare buffer: %v, want %v (two are left beyond the stock of one)", i, got, want)
		}
	}
	if c := q.Clone(make([]byte, 5, 128)); &c[:1][0] != &dead[:1][0] {
		t.Error("a clone of a 128-byte frame did not take the spared one")
	}
	if q.Stats() != src.Stats() {
		t.Errorf("clones moved the fork's stats to %+v, source %+v", q.Stats(), src.Stats())
	}
}

func BenchmarkGetPut(b *testing.B) {
	p := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := p.Get(85)
		p.Put(buf)
	}
}
