// Package framepool recycles frame buffers for the packet hot path.
//
// A frame has exactly one owner at every instant (DESIGN.md §7). A TX path
// composes it into a single []byte drawn from the pool; Port.Send takes
// ownership onto the wire (the direction's flight ring); delivery hands it
// to the receiving handler, which either sends the same buffer on (transit:
// the TTL is decremented in place) or is its last owner and Puts it. A
// dropped frame dies inside the simulator, which Puts it, and so does a
// frame delivered to a node with no handler. A listener — UDP, TCP's
// OnData, ICMP — is not an owner but a borrower: what it is handed is valid
// until it returns, then the stack or router Puts the frame. No delivered
// frame leaves the pool for good.
//
// Get returns a zeroed buffer of exactly the requested length, so a pooled
// buffer is indistinguishable from a fresh make([]byte, n): recycling can
// never change simulation output, only allocation counts.
//
// The discipline — every Get is balanced by exactly one Put once the buffer
// is provably dead, never while an alias can still be read — has one
// enforcement, the runtime ledger (DESIGN.md §13): under -tags invariants a
// second Put of the same buffer panics, a buffer returned while a delivery
// event still holds it panics when Sim.Step reaches that event, and a
// returned buffer is filled with Poison so that a borrower which kept a
// slice reads garbage it can be tested for. A missing Put shows as InUse
// not returning to its baseline once traffic stops (TestFramePoolDrains,
// the allocation budgets of DESIGN.md §9, and the framepool rows of
// workload-telemetry.csv pinned by closlab's TestGoldenArtifacts).
//
// A bucket is a free list that grows as a burst returns its frames: every
// frame of a BGP table sync in flight at once comes back within a few
// milliseconds. A full bucket of 256 or more entries doubles, so the lists
// a burst leaves behind cost about twice what they hold, where append's
// 1.25× steps past 256 cost about five times.
package framepool

import "slices"

// classSizes are the bucket capacities, chosen around the repo's frame
// population: control keep-alives sit at 66–100 bytes, workload MTUs at
// 1500, encapsulated jumbo cases below 4 KiB. Larger requests bypass the
// pool entirely.
var classSizes = [...]int{64, 128, 256, 512, 1024, 2048, 4096}

// Stats is a snapshot of pool occupancy, surfaced in the workload telemetry
// CSV so a leak-on-path regression is visible at runtime too.
type Stats struct {
	// InUse is Gets minus Puts: the number of lent buffers not yet
	// returned — frames in flight or queued behind ARP. Every delivered
	// frame comes back once its handler returns, so on a closed workload
	// InUse returns to its pre-traffic level give or take control frames on
	// the wire; a level that climbs with packets sent is a leak. Foreign
	// buffers entering via Put can push it below zero.
	InUse int
	// Peak is the high-water mark of InUse.
	Peak int
	// Recycled counts Gets served from the pool's stock: a bucket, or a
	// buffer a Fork owes, which is allocated then but counted as the
	// source's stock it stands for.
	Recycled uint64
	// Fresh counts Gets that found no stock and fell through to the
	// allocator.
	Fresh uint64
	// Returned counts accepted Puts.
	Returned uint64
}

// Pool is a size-bucketed freelist of frame buffers. It is not safe for
// concurrent use; each Sim owns its own pool.
type Pool struct {
	buckets [len(classSizes)][][]byte
	// owed[i] counts the buffers of class i a Fork took over from its
	// source's stock without allocating them. They sit under buckets[i]:
	// a Get that finds the bucket empty allocates one and counts it as
	// Recycled, as the source's stock would have been.
	owed [len(classSizes)]int
	// spare holds, by class, buffers of the simulation a Fork wrote over:
	// its free buffers beyond the source's stock and its frames that were in
	// flight (Spare). Clone copies the source's frames in flight into them.
	// Behind a pointer, so that a pool that never had any stays one size
	// class smaller.
	spare *[len(classSizes)][][]byte
	stats Stats
	dbg   *debugState // non-nil only under -tags invariants
}

// New creates an empty pool.
func New() *Pool {
	return &Pool{dbg: newDebugState()}
}

// classFor returns the smallest bucket whose capacity holds n, or -1 when n
// exceeds every class.
func classFor(n int) int {
	for i, s := range classSizes {
		if n <= s {
			return i
		}
	}
	return -1
}

// putClass returns the largest bucket whose capacity the buffer satisfies,
// or -1 when the buffer is smaller than every class. Buckets therefore only
// ever hold buffers with cap ≥ the class size, which is what makes a
// bucket hit in Get safe to slice to any n ≤ class size.
func putClass(c int) int {
	for i := len(classSizes) - 1; i >= 0; i-- {
		if c >= classSizes[i] {
			return i
		}
	}
	return -1
}

// Get returns a zeroed buffer of length n, recycling a returned one when
// the size class has stock. The caller owns the buffer until it hands it
// off (Port.Send takes ownership) or returns it with Put.
func (p *Pool) Get(n int) []byte {
	if n <= 0 {
		return nil
	}
	p.stats.InUse++
	if p.stats.InUse > p.stats.Peak {
		p.stats.Peak = p.stats.InUse
	}
	if ci := classFor(n); ci >= 0 {
		if bs := p.buckets[ci]; len(bs) > 0 {
			b := bs[len(bs)-1][:n]
			bs[len(bs)-1] = nil
			p.buckets[ci] = bs[:len(bs)-1]
			for i := range b {
				b[i] = 0
			}
			p.stats.Recycled++
			p.trackGet(b)
			return b
		}
		if p.owed[ci] > 0 {
			p.owed[ci]--
			p.stats.Recycled++
		} else {
			p.stats.Fresh++
		}
		b := make([]byte, n, classSizes[ci])
		p.trackGet(b)
		return b
	}
	p.stats.Fresh++
	b := make([]byte, n)
	p.trackGet(b)
	return b
}

// Put returns a dead buffer to the pool. The caller must hold the only
// live reference: returning a buffer that a scheduled event, a pending
// queue, or a protocol handler can still read is the corruption the
// -tags invariants build panics on (a double Put here, a buffer recycled
// in flight at delivery). Put accepts foreign buffers (ones born from make
// rather than Get) and nil (a no-op), so drop paths need not track a
// buffer's origin.
func (p *Pool) Put(b []byte) {
	if cap(b) == 0 {
		return
	}
	ci := putClass(cap(b))
	if ci < 0 {
		return
	}
	p.trackPut(b)
	p.stats.InUse--
	p.stats.Returned++
	bs := p.buckets[ci]
	if len(bs) == cap(bs) && len(bs) >= 256 {
		bs = slices.Grow(bs, len(bs)) // append would grow it by 1.25×
	}
	p.buckets[ci] = append(bs, b[:0])
}

// Stats returns a snapshot of the pool's occupancy counters.
func (p *Pool) Stats() Stats { return p.stats }

// Holds reports whether b is, or reslices, a buffer the pool holds: a slice
// kept after its frame was returned, which reads whatever the buffer carries
// next. A reslice b[i:] ends where its buffer does, so the last byte of the
// capacity identifies the buffer.
func (p *Pool) Holds(b []byte) bool {
	if cap(b) == 0 {
		return false
	}
	end := &b[:cap(b)][cap(b)-1]
	for _, bucket := range p.buckets {
		for _, held := range bucket {
			if &held[:cap(held)][cap(held)-1] == end {
				return true
			}
		}
	}
	return false
}

// Fork returns a pool for a copy of the simulation that owns p, written
// into into — the pool of a copy an earlier fork made — or a new one: p's
// counters, and p's free stock, so that the copy's Gets recycle and fall
// through to the allocator exactly where p's would. into's own free buffers
// stand for as much of that stock as they cover, and the rest is owed: an
// owed buffer is allocated by the Get that takes it, so a fork costs the
// same whatever p holds. What into holds beyond the stock is kept aside for
// Clone.
func (p *Pool) Fork(into *Pool) *Pool {
	q := into
	if q == nil {
		q = &Pool{}
	}
	q.stats, q.dbg = p.stats, newDebugState()
	for i, bucket := range p.buckets {
		stock := p.owed[i] + len(bucket)
		kept := q.buckets[i]
		if q.spare != nil {
			spare := q.spare[i]
			for len(kept) < stock && len(spare) > 0 {
				last := len(spare) - 1
				kept = append(kept, spare[last])
				spare[last] = nil
				spare = spare[:last]
			}
			q.spare[i] = spare
		}
		if len(kept) > stock {
			for _, b := range kept[stock:] {
				q.Spare(b)
			}
			clear(kept[stock:])
			kept = kept[:stock]
		}
		for _, b := range kept {
			q.trackStock(b)
		}
		q.buckets[i], q.owed[i] = kept, stock-len(kept)
	}
	return q
}

// Spare keeps b aside for Clone: a buffer of the simulation a Fork into p
// writes over, which died with it and is in no bucket. It is not counted.
func (p *Pool) Spare(b []byte) {
	ci := putClass(cap(b))
	if ci < 0 {
		return
	}
	if p.spare == nil {
		p.spare = new([len(classSizes)][][]byte)
	}
	p.spare[ci] = append(p.spare[ci], b[:0])
}

// Clone copies b, a buffer the source of a Fork has lent out, for the
// fork's pool: same length and capacity, into a spare buffer when the Fork
// kept one of that capacity, else a new one. It is not counted, since the
// fork's counters already count the buffer as in use.
func (p *Pool) Clone(b []byte) []byte {
	if b == nil {
		return nil
	}
	if ci := putClass(cap(b)); ci >= 0 && p.spare != nil {
		if spare := p.spare[ci]; len(spare) > 0 && cap(spare[len(spare)-1]) == cap(b) {
			last := len(spare) - 1
			c := spare[last][:len(b)]
			spare[last] = nil
			p.spare[ci] = spare[:last]
			copy(c, b)
			return c
		}
	}
	c := make([]byte, len(b), cap(b))
	copy(c, b)
	return c
}
