package bgp

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/invariant"
	"repro/internal/netaddr"
)

// TestUpdateFanoutAllocs pins what one UPDATE costs in allocations from end
// to end: a hub with eight established peers hears a new best path from the
// first, re-advertises it to the other seven, and the run drains — seven
// segments marshalled, delivered, parsed, decided on and acknowledged. Paths
// alternate so that every run really changes the exported path; timers are
// parked so nothing else happens on the clock. The figure is the measured
// one with no slack. The working sets of handleUpdate, decide and flush, the
// marshalled UPDATE and the rendered TCP segment are speaker-, peer- and
// endpoint-owned scratch, so the hub's side of it allocates nothing; the six
// per receiver are the two frames of the exchange (UPDATE and ACK: a frame
// delivered to TCP never returns to the pool), the payload copy TCP hands to
// OnData, SplitStream's message list, and the AS path (kept by the
// Adj-RIB-In) and NLRI list that parseUpdate builds. It was 195 on b663e43.
func TestUpdateFanoutAllocs(t *testing.T) {
	if invariant.Enabled {
		t.Skip("checkFIB allocates after every decision under -tags invariants")
	}
	tn := newTestNet()
	hub := tn.router("hub", 64512, true)
	for i := 0; i < 8; i++ {
		tn.link(tn.router(fmt.Sprintf("n%d", i), 64601+uint16(i), true), hub)
	}
	for _, r := range tn.routers {
		r.sp.Cfg.Timers.Keepalive = time.Hour
		r.sp.Cfg.Timers.Hold = 0
		r.sp.log = nil
	}
	tn.sim.Start()
	tn.sim.RunFor(3 * time.Second)
	if got := hub.sp.EstablishedCount(); got != 8 {
		t.Fatalf("hub has %d established sessions, want 8", got)
	}
	from := hub.sp.Peers()[0]
	paths := [2][]uint16{{from.RemoteAS, 64901}, {from.RemoteAS, 64902}}
	nlri := []netaddr.Prefix{rack11}
	sent := hub.sp.Stats.UpdatesSent
	run := 0
	avg := testing.AllocsPerRun(100, func() {
		hub.sp.handleUpdate(from, Update{ASPath: paths[run%2], NextHop: from.Neighbor, NLRI: nlri})
		run++
		tn.sim.RunFor(5 * time.Millisecond)
	})
	if got := hub.sp.Stats.UpdatesSent - sent; got != 7*uint64(run) {
		t.Fatalf("hub sent %d UPDATEs over %d runs, want 7 per run", got, run)
	}
	if avg != 42 {
		t.Errorf("one UPDATE fanned out to seven peers allocates %.0f, want 42", avg)
	}
}
