//go:build invariants

package framepool

import "repro/internal/invariant"

// Under -tags invariants every buffer the pool has ever touched carries a
// generation counter, bumped each time it is returned. A stale handle — a
// reference taken before a Put — no longer matches the buffer's current
// generation, and Check panics instead of letting the reuse silently
// corrupt a frame in flight. A returned buffer is also scribbled with
// Poison, which turns a read through a retained alias into visible garbage.
// This ledger is the enforcement of the pool discipline (DESIGN.md §13).

type debugState struct {
	free map[*byte]bool   // buffers currently sitting in a bucket
	gen  map[*byte]uint32 // bumped on every Put
}

func newDebugState() *debugState {
	return &debugState{free: map[*byte]bool{}, gen: map[*byte]uint32{}}
}

// base identifies a buffer by its backing array's first element, valid for
// any slice with nonzero capacity.
func base(b []byte) *byte { return &b[:cap(b)][0] }

func (p *Pool) trackGet(b []byte) {
	delete(p.dbg.free, base(b))
}

// Poison is the byte a returned buffer is filled with under -tags
// invariants. Get zeroes what it hands out, so poison never reaches a
// frame; it only reaches a reader that kept a slice across the Put — a UDP
// listener retaining dg.Payload past its return sees Poison, not the next
// packet's bytes.
const Poison = 0xDB

func (p *Pool) trackPut(b []byte) {
	k := base(b)
	invariant.Assert(!p.dbg.free[k], "framepool: double Put of the same buffer")
	p.dbg.free[k] = true
	p.dbg.gen[k]++
	b = b[:cap(b)]
	for i := range b {
		b[i] = Poison
	}
}

// trackStock enters b, a returned buffer a forked pool keeps as stock, in a
// ledger that starts empty.
func (p *Pool) trackStock(b []byte) {
	p.dbg.free[base(b)] = true
}

// Handle captures a buffer's identity and generation for a later staleness
// check.
type Handle struct {
	base *byte
	gen  uint32
}

// Handle snapshots b's current generation. The zero Handle checks clean.
func (p *Pool) Handle(b []byte) Handle {
	if cap(b) == 0 {
		return Handle{}
	}
	k := base(b)
	return Handle{base: k, gen: p.dbg.gen[k]}
}

// Check asserts that the buffer behind h has not been returned to the pool
// since the handle was taken: a mismatch means someone Put a buffer that
// was still in flight (use-after-Put).
func (p *Pool) Check(h Handle) {
	if h.base == nil {
		return
	}
	invariant.Assert(p.dbg.gen[h.base] == h.gen,
		"framepool: buffer recycled while still in flight (use-after-Put)")
}
