package workload

import (
	"reflect"
	"testing"
	"time"
	"unsafe"

	"repro/internal/budget"
	"repro/internal/fluid"
	"repro/internal/invariant"
)

// fluidRunAllocs is what a whole ModeFluid engine costs in heap objects for
// the given number of flows — New, the run to completion and Report — on one
// uncontended solver link, so that only the engine's and the solver's own
// bookkeeping is counted. The rig under it is built outside the measurement.
func fluidRunAllocs(t *testing.T, flows int) (allocs, bytes uint64) {
	t.Helper()
	const runs = 3
	rigs := make([]*rig, runs+1) // PerRun warms up with one extra call
	for i := range rigs {
		rigs[i] = newRig(t, 1)
	}
	call := 0
	return budget.PerRun(runs, func() {
		w := rigs[call]
		call++
		solver := fluid.New(fluid.Config{RateCapBps: 66e6})
		path := []fluid.LinkID{solver.AddLink(1e15, nil)}
		cfg := DefaultConfig(1)
		cfg.Mode = ModeFluid
		cfg.Flows = flows
		cfg.Sizes = FixedSize(100_000)
		cfg.MeanArrival = 2 * time.Second / time.Duration(flows)
		cfg.RateInterval = 50 * time.Millisecond
		cfg.Solver = solver
		cfg.PathOf = func(*Flow) ([]fluid.LinkID, time.Duration, bool) { return path, 0, true }
		e, err := New(w.sim, w.hosts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.Start()
		for i := 0; i < 60 && !e.Done(); i++ {
			w.sim.RunFor(time.Second)
		}
		if r := e.Report(nil); r.Completed != flows || r.FluidFlows != flows {
			t.Fatalf("completed %d and carried %d of %d flows as fluid", r.Completed, r.FluidFlows, flows)
		}
	})
}

// TestFluidFlowAllocs pins the flat flow table: a fluid flow is a slot in the
// schedule and a member of its path group's queue, never a heap object of its
// own. Ten times the flows cost ten more objects: the solver's pending and
// completion lists double, and the group's run grows a block at a time from
// the solver's free list, to which each block its pops empty returns. Both
// figures are the measured ones with no slack. With one Flow object per flow
// and a string per Admit they were 4 097 and 40 181; with an 80-byte slot
// holding a pointer and a run that doubled, 58 / 231 482 and 70 / 2 210 746.
// At 20 000 flows a fluid flow costs about 71 bytes: its 48-byte slot, its
// 24-byte member and its share of the lists.
func TestFluidFlowAllocs(t *testing.T) {
	if invariant.Enabled || budget.Race {
		t.Skip("budget measured without -tags invariants and without -race")
	}
	small, smallBytes := fluidRunAllocs(t, 2_000)
	large, largeBytes := fluidRunAllocs(t, 20_000)
	if small != 55 || smallBytes != 160_352 || large != 65 || largeBytes != 1_411_813 {
		t.Errorf("a fluid run allocates %d objects and %d B for 2 000 flows and %d and %d B for 20 000, want 55 and 160 352, 65 and 1 411 813",
			small, smallBytes, large, largeBytes)
	}
}

// TestFlowSlotLayout pins the slot a million-flow schedule is made of: at
// most 48 bytes and no pointer, so that the schedule is one allocation the
// collector never scans. Packet-path state lives in Engine.pkts, reached by
// index.
func TestFlowSlotLayout(t *testing.T) {
	if size := unsafe.Sizeof(Flow{}); size > 48 {
		t.Errorf("a Flow slot is %d bytes, want at most 48", size)
	}
	typ := reflect.TypeOf(Flow{})
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); holdsPointer(f.Type) {
			t.Errorf("Flow.%s is a %s, which holds a pointer", f.Name, f.Type)
		}
	}
}

// holdsPointer reports whether a value of type t holds a pointer the
// collector must scan.
func holdsPointer(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.Chan,
		reflect.Func, reflect.Interface, reflect.String:
		return true
	case reflect.Array:
		return t.Len() > 0 && holdsPointer(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if holdsPointer(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}
