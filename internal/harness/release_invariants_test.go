//go:build invariants

package harness

import (
	"testing"
	"time"

	"repro/internal/topology"
)

// TestReleasedFabricRefusesToRun: a pooled trial that hands its fabric back
// and then runs it on would be running in memory the next fork of its
// configuration writes, so the released fabric's simulator panics on Run
// and on Step, until a fork writes into it and hands it out again.
func TestReleasedFabricRefusesToRun(t *testing.T) {
	opts := DefaultOptions(topology.TwoPodSpec(), ProtoMRMTP, 31)
	opts.pooled = true
	f, err := atInjection(opts, phaseLeadIn)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := measureFailure(f, func(f *Fabric) (time.Duration, error) { return f.Fail(topology.TC2) }); err != nil {
		t.Fatal(err)
	}
	done(f)
	const want = "released for a fork to write into"
	mustPanic(t, want, func() { f.Sim.RunFor(SettleTime) })
	mustPanic(t, want, func() { f.Sim.Step() })

	// The next trial of the configuration is forked into it and runs.
	g, err := atInjection(opts, phaseLeadIn)
	if err != nil {
		t.Fatal(err)
	}
	if g != f {
		t.Fatal("the next trial's fabric is not the released one")
	}
	g.Sim.RunFor(time.Second)
}
