package harness

import (
	"testing"
	"time"

	"repro/internal/simnet"
	"repro/internal/topology"
)

// setLoss drops frames with the given probability on both directions of
// every link, rack links included (so the pings of
// TestMRMTPLossyFailureRecovery retry).
func setLoss(f *Fabric, rate float64) {
	for _, link := range f.Sim.Links() {
		link.Impair(link.A, simnet.Impairment{LossRate: rate})
		link.Impair(link.B, simnet.Impairment{LossRate: rate})
	}
}

// lossyMTPOptions widens the dead timer for lossy substrates. The paper
// observed exactly this sensitivity ("further reduction of the keep-alive
// interval resulted in false failure detection", §VI.F): a 100 ms dead
// timer misses a neighbor after two lost hellos, which at 5-10% frame loss
// happens every few seconds somewhere in the fabric. Five hello intervals
// make a false detection a once-per-hour event.
func lossyMTPOptions(proto Protocol, seed int64) Options {
	opts := DefaultOptions(topology.TwoPodSpec(), proto, seed)
	opts.MTPDead = 250 * time.Millisecond
	return opts
}

func TestMRMTPConvergesOverLossyLinks(t *testing.T) {
	// The paper's §III.C claim: reliability is built into the message
	// exchanges. With 10% random frame loss on every link, the meshed
	// trees must still form — JOIN retransmission and periodic
	// re-advertisement recover every lost handshake step.
	f, err := Build(lossyMTPOptions(ProtoMRMTP, 77))
	if err != nil {
		t.Fatal(err)
	}
	setLoss(f, 0.10)
	f.Start()
	f.Sim.RunFor(30 * time.Second)
	if err := f.CheckConverged(); err != nil {
		t.Fatalf("MR-MTP did not converge over 10%% lossy links: %v", err)
	}
}

func TestBGPConvergesOverLossyLinks(t *testing.T) {
	// BGP rides TCP: retransmission recovers lost segments, so the
	// fabric converges over a 5% lossy substrate (more slowly).
	f, err := Build(DefaultOptions(topology.TwoPodSpec(), ProtoBGP, 77))
	if err != nil {
		t.Fatal(err)
	}
	setLoss(f, 0.05)
	f.Start()
	f.Sim.RunFor(60 * time.Second)
	if err := f.CheckConverged(); err != nil {
		t.Fatalf("BGP did not converge over 5%% lossy links: %v", err)
	}
}

func TestMRMTPLossyFailureRecovery(t *testing.T) {
	// Failure handling must also survive loss: LOST updates are sent on
	// multiple tree branches, so a single dropped frame cannot hide the
	// failure from the rest of the fabric forever (the periodic
	// advertise/dead-timer machinery catches stragglers).
	f, err := Build(lossyMTPOptions(ProtoMRMTP, 78))
	if err != nil {
		t.Fatal(err)
	}
	setLoss(f, 0.05)
	f.Start()
	f.Sim.RunFor(30 * time.Second)
	if err := f.CheckConverged(); err != nil {
		t.Fatalf("setup: %v", err)
	}
	if _, err := f.Fail(topology.TC1); err != nil {
		t.Fatal(err)
	}
	f.Sim.RunFor(5 * time.Second)
	// The surviving plane must still deliver: probe with ping (rack
	// links are lossy too here, so allow retries).
	ok := false
	for attempt := 0; attempt < 10 && !ok; attempt++ {
		res, err := Ping(f, 11, 14, 500*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		ok = res.OK
	}
	if !ok {
		t.Error("no ping made it across after failure on a lossy fabric")
	}
}

func TestQuickToDetectFalseFailuresUnderLoss(t *testing.T) {
	// The flip side, reproduced deliberately: with the paper's 100 ms
	// dead timer, a 10% lossy fabric *does* suffer false failure
	// detections — the reason the paper could not shrink its timers
	// further on the shared FABRIC testbed.
	f, err := Build(DefaultOptions(topology.TwoPodSpec(), ProtoMRMTP, 80))
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	f.Sim.RunFor(5 * time.Second) // converge cleanly first
	setLoss(f, 0.10)
	var before uint64
	for _, r := range f.Routers {
		before += r.Stats.NeighborsLost
	}
	f.Sim.RunFor(60 * time.Second)
	var after uint64
	for _, r := range f.Routers {
		after += r.Stats.NeighborsLost
	}
	if after == before {
		t.Error("expected false failure detections at 10% loss with a 100ms dead timer")
	}
	t.Logf("false neighbor-down events in 60s at 10%% loss: %d", after-before)
}

func TestLossInjectionActuallyDrops(t *testing.T) {
	f, err := Build(DefaultOptions(topology.TwoPodSpec(), ProtoMRMTP, 79))
	if err != nil {
		t.Fatal(err)
	}
	setLoss(f, 0.5)
	f.Start()
	f.Sim.RunFor(5 * time.Second)
	var lost uint64
	for _, l := range f.Sim.Links() {
		lost += l.Stats(l.A).Lost + l.Stats(l.B).Lost
	}
	if lost == 0 {
		t.Error("50% loss rate dropped nothing")
	}
}
