package fluid

import (
	"reflect"
	"testing"

	"repro/internal/budget"
)

// TestAdmitAllocs pins what admitting a flow onto a path the solver already
// knows costs in allocations: nothing. The path is hashed to a 64-bit key and
// confirmed against the group's own path, and the admission waits in the
// pending list (grown here before the measurement) until Reallocate files
// it. When the key was a rendered string it was one string per Admit, until
// the bytes were probed without becoming one.
func TestAdmitAllocs(t *testing.T) {
	s := New(Config{RateCapBps: 66e6})
	path := []LinkID{s.AddLink(1e9, nil), s.AddLink(1e9, nil), s.AddLink(1e9, nil)}
	id := uint32(0)
	admit := func() {
		id++
		s.Admit(id, 100_000, path, 0, 0)
	}
	for i := 0; i < 512; i++ {
		admit()
	}
	s.Reallocate(0)
	if allocs, bytes := budget.PerRun(200, admit); allocs != 0 || bytes != 0 {
		t.Errorf("Admit on an existing group allocates %d objects and %d B per op, want 0 and 0", allocs, bytes)
	}
	if len(s.groups) != 1 || s.Active() != int(id) {
		t.Fatalf("%d groups and %d active flows after %d admissions on one path", len(s.groups), s.Active(), id)
	}
}

// TestMemberLayout pins the per-flow records of the solver: a member of a
// group's queue and a Completion are 16 bytes (a threshold or an instant and
// two 32-bit words), a pending admission 24, and none holds a pointer, so
// that a member block is an exact 8 KiB size class the collector never
// scans. The admission instant is not kept: the caller derives the FCT from
// Completion.Done.
func TestMemberLayout(t *testing.T) {
	for _, c := range []struct {
		name string
		v    any
		size uintptr
	}{
		{"member", member{}, 16},
		{"Completion", Completion{}, 16},
		{"pendingAdmit", pendingAdmit{}, 24},
		{"memberBlock", memberBlock{}, 8 << 10},
	} {
		typ := reflect.TypeOf(c.v)
		if typ.Size() != c.size {
			t.Errorf("a %s is %d bytes, want %d", c.name, typ.Size(), c.size)
		}
		if budget.HoldsPointer(typ) {
			t.Errorf("a %s holds a pointer", c.name)
		}
	}
}
