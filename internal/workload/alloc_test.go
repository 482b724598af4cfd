package workload

import (
	"testing"
	"time"

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
// own. Ten times the flows cost the same objects plus 13 doubling steps of the
// slices that hold them (the group's run, the solver's pending and completion
// lists). Both figures are the measured ones with no slack; with one Flow
// object per flow and a string per Admit they were 4 097 and 40 181. The run
// and Report's sized completion list left both where they were: flows of one
// size never reach the group's heap, the run doubles exactly as the heap did,
// and the completions a launch can observe are one slice at either size.
// The bytes fell by 32 when packet size, pacing and port left Config for
// constants: the Engine holds its Config by value. The solver's index of
// path groups lost its string keys and their scratch buffer for 64-bit keys
// chained through the groups: two objects and 96 B fewer.
func TestFluidFlowAllocs(t *testing.T) {
	if invariant.Enabled || budget.Race {
		t.Skip("budget measured without -tags invariants and without -race")
	}
	small, smallBytes := fluidRunAllocs(t, 2_000)
	large, largeBytes := fluidRunAllocs(t, 20_000)
	if small != 58 || smallBytes != 231_482 || large != 70 || largeBytes != 2_210_746 {
		t.Errorf("a fluid run allocates %d objects and %d B for 2 000 flows and %d and %d B for 20 000, want 58 and 231 482, 70 and 2 210 746",
			small, smallBytes, large, largeBytes)
	}
}
