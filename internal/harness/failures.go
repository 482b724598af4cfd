package harness

import (
	"time"

	"repro/internal/chaos"
	"repro/internal/metrics"
	"repro/internal/topology"
)

// This file extends the paper's four interface-failure cases (§IX:
// "Extended failure test cases") with any other fault — a whole-node crash,
// an interface TC1–TC4 do not name — and with interface flapping, using the
// same measurement pipeline.

// RunFault measures convergence/blast/overhead after one fault: a device
// dying (closlab's nodefail row crashes the pod spine S-1-1, the worst
// single-router loss for the monitored column) or an interface the TC1–TC4
// failure points do not name (a zone spine's uplink in the four-tier
// fabric).
func RunFault(opts Options, fault chaos.Fault) (metrics.Analysis, error) {
	f, err := warmThrough(opts, phaseLeadIn)
	if err != nil {
		return metrics.Analysis{}, err
	}
	return measureFailure(f, func(f *Fabric) (time.Duration, error) { return f.Inject(fault) })
}

// FlapResult is a flapping-interface run: the log's analysis of the
// control-plane churn while one interface bounced, and whether the fabric
// converged again afterwards.
type FlapResult struct {
	metrics.Analysis
	Recovered bool
}

// RunFlap bounces the TC1 interface (down downTime, up upTime) `flaps`
// times, a chaos.FlapStorm, and measures the churn. With MR-MTP's
// Slow-to-Accept, up periods shorter than three hello intervals never
// re-admit the neighbor, so churn stays bounded; protocols that re-establish
// eagerly pay a full reconvergence per flap. The interface is finally left
// up and the fabric given time to stabilize. No flap, or a zero down or up
// time, is an error: it would measure nothing.
func RunFlap(opts Options, flaps int, downTime, upTime time.Duration) (FlapResult, error) {
	r, _, err := runFlap(opts, flaps, downTime, upTime)
	return r, err
}

// runFlap is RunFlap that also returns the log its result analyzed.
func runFlap(opts Options, flaps int, downTime, upTime time.Duration) (FlapResult, *metrics.Log, error) {
	f, err := warm(opts)
	if err != nil {
		return FlapResult{}, nil, err
	}
	link, err := f.caseLink(topology.TC1)
	if err != nil {
		return FlapResult{}, nil, err
	}
	period := downTime + upTime
	storm := chaos.Fault{Kind: chaos.FlapStorm, Link: link, Flaps: flaps,
		Period: chaos.Duration(period), Duty: float64(upTime) / float64(period)}
	f.Log.Reset()
	if _, err := f.Inject(storm); err != nil {
		return FlapResult{}, nil, err
	}
	// Count churn during the flapping window only.
	f.Sim.RunFor(storm.End())
	a := f.Log.Analyze(0)
	// Let the final up period stick and verify recovery.
	f.Sim.RunFor(30 * time.Second)
	return FlapResult{Analysis: a, Recovered: f.CheckConverged() == nil}, f.Log, nil
}
