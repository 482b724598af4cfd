package mrmtp

import (
	"testing"
	"time"

	"repro/internal/simnet"
)

// reachableOracle is reachable as it was written before it read
// dataCandidates: the held-row liveness test, the downstream and top-tier
// test, and the uplink-mark test, each by hand, with the uplink predicate
// inlined. holdReachability holds the router's rule to it.
func reachableOracle(r *Router, root byte) bool {
	if r.Cfg.Tier == 1 && root == r.rootVID {
		return true
	}
	for _, e := range r.held(root) {
		if adj := r.adj(e.port); adj != nil && adj.state == adjUp && adj.port.Up() {
			return true
		}
	}
	if r.topTier() || r.downstream.has(root) {
		return false
	}
	for _, adj := range r.adjs {
		if adj.state != adjUp || !adj.port.Up() {
			continue
		}
		if adj.neighborTier <= r.Cfg.Tier && adj.neighborTier != 0 {
			continue
		}
		if !adj.unreachable.has(root) && !adj.unreachable.has(DefaultRoot) {
			return true
		}
	}
	return false
}

// holdReachability fails the test where any router's reachable disagrees
// with reachableOracle for any root, DefaultRoot included.
func holdReachability(t testing.TB, routers ...*Router) {
	t.Helper()
	for _, r := range routers {
		for root := range 256 {
			if got, want := r.reachable(byte(root)), reachableOracle(r, byte(root)); got != want {
				t.Fatalf("%s at %v: reachable(%d) = %v, the hand-written rule says %v", r.Node.Name, r.sim().Now(), root, got, want)
			}
		}
	}
}

// runFor runs the column's simulation for d, holding its routers'
// reachability to the oracle throughout (runHeld).
func (c *column) runFor(t testing.TB, d time.Duration) {
	t.Helper()
	runHeld(t, c.sim, d, c.tor, c.tor2, c.spine, c.top)
}

// runHeld runs sim for d in 10 µs steps. It holds the routers' reachability
// to reachableOracle before the first step and after every step that moved
// what reachable reads: a router's forwarding-state clock, which its tables
// and its own ports' carrier move.
func runHeld(t testing.TB, sim *simnet.Sim, d time.Duration, routers ...*Router) {
	t.Helper()
	stamp := func() uint64 {
		var n uint64
		for _, r := range routers {
			n += r.Node.ForwardingStamp()
		}
		return n
	}
	holdReachability(t, routers...)
	last := stamp()
	for end := sim.Now() + d; sim.Now() < end; {
		sim.RunUntil(min(sim.Now()+10*time.Microsecond, end))
		if now := stamp(); now != last {
			holdReachability(t, routers...)
			last = now
		}
	}
}
