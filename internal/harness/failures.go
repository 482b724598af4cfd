package harness

import (
	"fmt"
	"time"

	"repro/internal/topology"
)

// This file extends the paper's four interface-failure cases (§IX:
// "Extended failure test cases") with whole-node failures and interface
// flapping, using the same measurement pipeline.

// FailNode fails every interface of a device at once (a crash or power
// event), each through FailPoint, so the Log holds one failure event per
// interface. The node itself sees all ports down; every neighbor discovers
// through its own timers, exactly as with single-interface failures.
func (f *Fabric) FailNode(name string) (time.Duration, error) {
	node := f.Sim.Node(name)
	if node == nil {
		return 0, fmt.Errorf("harness: no node %s", name)
	}
	at := f.Sim.Now()
	for port := 1; port < len(node.Ports); port++ {
		if _, err := f.FailPoint(topology.FailurePoint{Device: name, Port: port}); err != nil {
			return 0, err
		}
	}
	return at, nil
}

// RunNodeFailure measures convergence/blast/overhead when a whole device
// dies (default: the pod spine S-1-1, the worst single-router loss for the
// monitored column). The result carries no failure case.
func RunNodeFailure(opts Options, victim string) (FailureResult, error) {
	return measureFailure(opts, 0, func(f *Fabric) (time.Duration, error) { return f.FailNode(victim) })
}

// RunPortFailure measures convergence/blast/overhead when one named
// interface fails, for interfaces the TC1–TC4 failure points do not name (a
// zone spine's uplink in the four-tier fabric). The result carries no
// failure case.
func RunPortFailure(opts Options, fp topology.FailurePoint) (FailureResult, error) {
	return measureFailure(opts, 0, func(f *Fabric) (time.Duration, error) { return f.FailPoint(fp) })
}

// FlapResult summarizes a flapping-interface run: how much control-plane
// churn the fabric suffered while one interface bounced.
type FlapResult struct {
	Protocol     Protocol
	Flaps        int
	ControlMsgs  int
	ControlBytes int
	RouteEvents  int
	// Recovered reports whether the fabric was converged again at the end.
	Recovered bool
}

// RunFlap bounces the TC1 interface (down downTime, up upTime) `flaps`
// times and measures the churn. With MR-MTP's Slow-to-Accept, up periods
// shorter than three hello intervals never re-admit the neighbor, so churn
// stays bounded; protocols that re-establish eagerly pay a full
// reconvergence per flap. The interface is finally left up and the fabric
// given time to stabilize.
func RunFlap(opts Options, flaps int, downTime, upTime time.Duration) (FlapResult, error) {
	f, err := warm(opts)
	if err != nil {
		return FlapResult{}, err
	}
	fp, err := f.Topo.FailurePoint(topology.TC1)
	if err != nil {
		return FlapResult{}, err
	}
	f.Log.Reset()
	for i := 0; i < flaps; i++ {
		if _, err := f.FailPoint(fp); err != nil {
			return FlapResult{}, err
		}
		f.Sim.RunFor(downTime)
		f.Sim.Node(fp.Device).Port(fp.Port).Restore()
		f.Sim.RunFor(upTime)
	}
	// Count churn during the flapping window only.
	a := f.Log.Analyze(0)
	routes, _ := routeChurn(f, 0)
	// Let the final up period stick and verify recovery.
	f.Sim.RunFor(30 * time.Second)
	return FlapResult{
		Protocol:     opts.Protocol,
		Flaps:        flaps,
		ControlMsgs:  a.ControlMessages,
		ControlBytes: a.ControlBytes,
		RouteEvents:  routes,
		Recovered:    f.CheckConverged() == nil,
	}, nil
}
