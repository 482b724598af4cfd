//go:build invariants

package framepool

import "testing"

// The corruption-detection tests only exist under -tags invariants: release
// builds carry no generation bookkeeping to violate.

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

func TestDoublePutPanics(t *testing.T) {
	p := New()
	b := p.Get(64)
	p.Put(b)
	mustPanic(t, "double Put", func() { p.Put(b) })
}

func TestDoublePutOfAliasPanics(t *testing.T) {
	// Two slices over the same backing array are the same buffer: returning
	// both is the aliasing bug the generation map must catch.
	p := New()
	b := p.Get(128)
	alias := b[:64]
	p.Put(b)
	mustPanic(t, "Put of an alias of a returned buffer", func() { p.Put(alias) })
}

func TestStaleHandleCheckPanics(t *testing.T) {
	p := New()
	b := p.Get(64)
	h := p.Handle(b) // snapshot while the buffer is legitimately in flight
	p.Check(h)       // still current: must not panic
	p.Put(b)
	mustPanic(t, "Check of a handle taken before Put", func() { p.Check(h) })
}

func TestHandleTracksRecycledGeneration(t *testing.T) {
	p := New()
	b := p.Get(64)
	p.Put(b)
	c := p.Get(64) // same backing array, new generation
	h := p.Handle(c)
	p.Check(h) // current generation: clean
	p.Put(c)
	mustPanic(t, "Check across a recycle", func() { p.Check(h) })
}

func TestZeroHandleChecksClean(t *testing.T) {
	p := New()
	p.Check(Handle{})      // zero handle: no-op
	p.Check(p.Handle(nil)) // nil buffer: no-op
}

func TestPutPoisonsAndGetZeroes(t *testing.T) {
	// A reader holding a slice across Put sees Poison, never stale frame
	// bytes; the next borrower of the buffer still gets zeroes.
	p := New()
	b := p.Get(100)
	for i := range b {
		b[i] = 0xAA
	}
	p.Put(b)
	for i, v := range b[:cap(b)] {
		if v != Poison {
			t.Fatalf("byte %d of a returned buffer = %#x, want Poison %#x", i, v, Poison)
		}
	}
	for i, v := range p.Get(128) {
		if v != 0 {
			t.Fatalf("byte %d of the recycled buffer = %#x, want 0", i, v)
		}
	}
}
