package workload

import (
	"fmt"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"repro/internal/budget"
	"repro/internal/fluid"
	"repro/internal/invariant"
	"repro/internal/simnet"
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
// holding a pointer and a run that doubled, 58 / 231 482 and 70 / 2 210 746;
// with a 48-byte slot, 55 / 160 352 and 65 / 1 411 813; with a 24-byte member,
// a 24-byte completion and a 32-byte pending admission, 55 / 127 616 and
// 65 / 1 092 357. At 20 000 flows a fluid flow costs about 53 bytes: its
// 32-byte slot, its 16-byte member and its share of the lists.
func TestFluidFlowAllocs(t *testing.T) {
	if invariant.Enabled || budget.Race {
		t.Skip("budget measured without -tags invariants and without -race")
	}
	small, smallBytes := fluidRunAllocs(t, 2_000)
	large, largeBytes := fluidRunAllocs(t, 20_000)
	if small != 55 || smallBytes != 120_984 || large != 65 || largeBytes != 1_061_021 {
		t.Errorf("a fluid run allocates %d objects and %d B for 2 000 flows and %d and %d B for 20 000, want 55 and 120 984, 65 and 1 061 021",
			small, smallBytes, large, largeBytes)
	}
}

// TestFlowSlotLayout pins the slot a million-flow schedule is made of:
// exactly 32 bytes and no pointer, so that the schedule is one allocation the
// collector never scans. Packet-path state lives in Engine.pkts, reached by
// index; the ID and the packet count are derived, not stored.
func TestFlowSlotLayout(t *testing.T) {
	if size := unsafe.Sizeof(Flow{}); size != 32 {
		t.Errorf("a Flow slot is %d bytes, want 32", size)
	}
	typ := reflect.TypeOf(Flow{})
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); budget.HoldsPointer(f.Type) {
			t.Errorf("Flow.%s is a %s, which holds a pointer", f.Name, f.Type)
		}
	}
}

// TestSampleRowLayout pins what a telemetry tick stores of one series:
// exactly 32 bytes and no pointer, so that a tick's row is one allocation of
// an exact size class the collector never scans. Util is derived from the
// two byte counts when the sample is read, and the four counters are 32-bit
// (narrow panics on one that does not fit).
func TestSampleRowLayout(t *testing.T) {
	if size := unsafe.Sizeof(sampleRow{}); size != 32 {
		t.Errorf("a sampleRow is %d bytes, want 32", size)
	}
	if typ := reflect.TypeOf(sampleRow{}); budget.HoldsPointer(typ) {
		t.Errorf("a sampleRow holds a pointer")
	}
}

// samplerRunAllocs is what sampling ticks ticks of links idle links — 2·links
// series — costs the heap. Each run samples a sampler of its own, made,
// watching and started outside the measurement.
func samplerRunAllocs(links, ticks int) (allocs, bytes uint64) {
	const runs = 3
	sims := make([]*simnet.Sim, runs+1) // PerRun warms up with one extra call
	for i := range sims {
		sim := simnet.New(1)
		s := NewSampler(sim, time.Millisecond)
		for j := 0; j < links; j++ {
			a, b := sim.AddNode(fmt.Sprintf("a%d", j)), sim.AddNode(fmt.Sprintf("b%d", j))
			s.Watch(sim.Connect(a.AddPort(), b.AddPort()))
		}
		s.Start()
		sims[i] = sim
	}
	call := 0
	return budget.PerRun(runs, func() {
		sims[call].RunFor(time.Duration(ticks) * time.Millisecond)
		call++
	})
}

// TestSamplerKeepsOnlyItsSamples pins what telemetry costs: each tick makes
// one row at its exact size, a sample per series, and nothing else grows
// with the number of series. Sixteen links instead of two (32 series
// instead of 4) add exactly the 28 more 32-byte rows each tick keeps, so no
// sample is copied when the sampler grows. The rest is one row a tick plus
// the two per-tick indexes doubling, a row header and a pool sample a tick:
// 25 objects and 160 368 B over 1 000 ticks. Both row sizes are size
// classes of their own (4·32 = 128 B, 32·32 = 1 024 B), and the figures are
// the measured ones with no slack. With a 64-byte sample in a slice per
// direction grown by append, the same runs allocated 62 and 398 objects and
// 952 712 and 6 914 696 B; with the 56-byte LinkSample stored, 1 025 objects
// both, and 384 368 and 1 952 368 B.
func TestSamplerKeepsOnlyItsSamples(t *testing.T) {
	if invariant.Enabled || budget.Race {
		t.Skip("budget measured without -tags invariants and without -race")
	}
	const ticks = 1000
	few, fewBytes := samplerRunAllocs(2, ticks)
	many, manyBytes := samplerRunAllocs(16, ticks)
	row := uint64(unsafe.Sizeof(sampleRow{}))
	if row != 32 || manyBytes-fewBytes != ticks*28*row {
		t.Errorf("28 more series cost %d B over %d ticks, want %d: 28 more rows of %d B a tick",
			manyBytes-fewBytes, ticks, ticks*28*32, row)
	}
	if few != 1025 || fewBytes != 288_368 || many != 1025 || manyBytes != 1_184_368 {
		t.Errorf("sampling %d ticks allocates %d objects and %d B over 4 series and %d and %d B over 32, want 1 025 and 288 368, 1 025 and 1 184 368",
			ticks, few, fewBytes, many, manyBytes)
	}
}
