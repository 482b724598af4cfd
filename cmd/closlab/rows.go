package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/topology"
)

// This file holds the rows that print the paper's listings (tables) and the
// §IX extensions (ablation, scale). Like the figures they go through sweep,
// so -trials and -seed mean the same thing on every row.

const ms = time.Millisecond

var mrmtpOnly = []harness.Protocol{harness.ProtoMRMTP}

func millis(d time.Duration) float64 { return float64(d) / float64(ms) }

// The paper's listings show one pod spine and one top spine.
const listingSpine, listingTop = "S-1-1", "T-1"

// tables prints, per topology and data plane, what the paper's listings
// show of a converged fabric: configuration (Listings 1–2), routing state of
// the listing devices (Listings 3 and 5) and of every router by size
// (§VII.H), the spine's neighbor view, and the Fig. 1 traceroute.
func tables(e *env) error {
	_, err := sweep(e, e.specs, dataPlaneProtocols, 1, []struct{}{{}}, renderListings, single[string],
		func(_ topology.Spec, _ harness.Protocol, _ struct{}, text string) { emitf("%s\n", text) })
	return err
}

func renderListings(o harness.Options, _ struct{}) (string, error) {
	f, err := harness.Build(o)
	if err != nil {
		return "", err
	}
	if err := f.WarmUp(harness.WarmupTime); err != nil {
		return "", err
	}
	var b strings.Builder
	section := func(title, body string) { fmt.Fprintf(&b, "--- %s ---\n%s", title, body) }
	fmt.Fprintf(&b, "Listings — %s, %d-PoD (%d routers)\n", o.Protocol, o.Spec.Pods, len(f.Topo.Routers()))
	var entries func(router string) int
	if o.Protocol == harness.ProtoMRMTP {
		cfg, err := f.Topo.MRMTPConfig().Render()
		if err != nil {
			return "", err
		}
		spine := f.Routers[listingSpine]
		section("Listing 2 — fabric-wide MR-MTP configuration", string(cfg)+"\n")
		section("Listing 5 — VID table, "+listingTop, f.Routers[listingTop].RenderVIDTable())
		section("VID table, "+listingSpine, spine.RenderVIDTable())
		section("neighbors, "+listingSpine, spine.Summary()+"\n"+spine.RenderNeighbors()+spine.RenderUnreachable())
		entries = func(router string) int { return f.Routers[router].TableSize() }
	} else {
		cfg, err := f.Topo.BGPConfig(listingTop, true)
		if err != nil {
			return "", err
		}
		section("Listing 1 — FRR configuration (BGP/ECMP/BFD), "+listingTop, cfg)
		section("Listing 3 — kernel routing table, "+listingSpine, f.Stacks[listingSpine].FIB.Render())
		section("kernel routing table, "+listingTop, f.Stacks[listingTop].FIB.Render())
		section("show ip bgp, "+listingSpine, f.Speakers[listingSpine].RenderRIB())
		section("show ip bgp summary, "+listingSpine, f.Speakers[listingSpine].RenderSummary())
		entries = func(router string) int { return f.Stacks[router].FIB.Len() }
	}
	section("§VII.H — routing-state entries per router", "")
	for _, d := range f.Topo.Routers() {
		fmt.Fprintf(&b, "%-8s %d\n", d.Name, entries(d.Name))
	}
	// Last, because it is the one section that sends traffic.
	hops, err := harness.Traceroute(f, 11, 14, 16)
	if err != nil {
		return "", err
	}
	section("Fig. 1 — traceroute, server at VID 11 -> server at VID 14", harness.RenderHops(hops))
	return b.String(), nil
}

// ablation is one cell of the timer and design-choice sweeps: the protocol
// the knob belongs to, the failure case that exposes it, and the change to
// the paper's options.
type ablation struct {
	sweep, value string
	proto        harness.Protocol
	tc           topology.FailureCase
	set          func(*harness.Options)
}

// The failure case is the one the knob can move. Detection timers (hello,
// BFD multiplier, hold) show at TC1, where the far side must time out;
// fast-external-failover shows at TC2, where the failure's owner reacts at
// once or not at all. MRAI shows at TC3/TC4 only: a top spine that loses a
// pod spine withdraws that pod's two rack prefixes from each other peer as
// two changes, and RFC 4271 §9.2.1.1 pacing lets the first out at once and
// holds the second for the interval. TC4 is that delay alone (TC3 adds the
// hold timer in front of it); at TC1/TC2 one prefix is withdrawn, one change
// per peer, and every MRAI value reads the same.
var ablations = []ablation{
	{"MR-MTP hello (dead = 2x)", "25ms", harness.ProtoMRMTP, topology.TC1, func(o *harness.Options) { o.MTPHello, o.MTPDead = 25*ms, 50*ms }},
	{"MR-MTP hello (dead = 2x)", "50ms", harness.ProtoMRMTP, topology.TC1, func(o *harness.Options) { o.MTPHello, o.MTPDead = 50*ms, 100*ms }},
	{"MR-MTP hello (dead = 2x)", "100ms", harness.ProtoMRMTP, topology.TC1, func(o *harness.Options) { o.MTPHello, o.MTPDead = 100*ms, 200*ms }},
	{"MR-MTP hello (dead = 2x)", "200ms", harness.ProtoMRMTP, topology.TC1, func(o *harness.Options) { o.MTPHello, o.MTPDead = 200*ms, 400*ms }},
	{"BFD detect multiplier", "2", harness.ProtoBGPBFD, topology.TC1, func(o *harness.Options) { o.BFD.DetectMult = 2 }},
	{"BFD detect multiplier", "3", harness.ProtoBGPBFD, topology.TC1, func(o *harness.Options) { o.BFD.DetectMult = 3 }},
	{"BFD detect multiplier", "5", harness.ProtoBGPBFD, topology.TC1, func(o *harness.Options) { o.BFD.DetectMult = 5 }},
	{"BGP keepalive/hold", "1s/3s", harness.ProtoBGP, topology.TC1, func(o *harness.Options) { o.BGPTimers.Keepalive, o.BGPTimers.Hold = time.Second, 3*time.Second }},
	{"BGP keepalive/hold", "3s/9s", harness.ProtoBGP, topology.TC1, func(o *harness.Options) { o.BGPTimers.Keepalive, o.BGPTimers.Hold = 3*time.Second, 9*time.Second }},
	{"BGP MRAI", "0s", harness.ProtoBGP, topology.TC4, func(o *harness.Options) { o.BGPTimers.MRAI = 0 }},
	{"BGP MRAI", "500ms", harness.ProtoBGP, topology.TC4, func(o *harness.Options) { o.BGPTimers.MRAI = 500 * ms }},
	{"BGP MRAI", "2s", harness.ProtoBGP, topology.TC4, func(o *harness.Options) { o.BGPTimers.MRAI = 2 * time.Second }},
	{"BGP fast-external-failover", "on", harness.ProtoBGP, topology.TC2, func(o *harness.Options) { o.BGPNoFastFailover = false }},
	{"BGP fast-external-failover", "off", harness.ProtoBGP, topology.TC2, func(o *harness.Options) { o.BGPNoFastFailover = true }},
}

func ablationSweeps(e *env) error {
	specs := e.specs[:1]
	emitf("Ablations (DESIGN.md §6) — %d-PoD, convergence after the failure case each knob can move:\n", specs[0].Pods)
	emitf("%-28s %-8s %-14s %-5s %16s\n", "sweep", "value", "protocol", "case", "convergence ms")
	for _, a := range ablations {
		_, err := sweep(e, specs, []harness.Protocol{a.proto}, e.trials, []ablation{a},
			func(o harness.Options, a ablation) (metrics.Analysis, error) {
				a.set(&o)
				return harness.RunFailure(o, a.tc)
			}, harness.SummarizeFailures,
			func(_ topology.Spec, proto harness.Protocol, a ablation, s harness.FailureSummary) {
				emitf("%-28s %-8s %-14s %-5s %16.1f\n", a.sweep, a.value, proto, a.tc, millis(s.Convergence))
			})
		if err != nil {
			return err
		}
	}
	emitf("\nSlow-to-Accept — TC1 interface toggling 8x (down 150ms, up 120ms), MR-MTP:\n")
	emitf("%-14s %10s %12s %10s\n", "accept after", "msgs", "ctl bytes", "recovered")
	_, err := sweep(e, specs, mrmtpOnly, e.trials, []int{1, 3},
		func(o harness.Options, accept int) (harness.FlapResult, error) {
			o.MTPAccept = accept
			return harness.RunFlap(o, 8, 150*ms, 120*ms)
		}, harness.SummarizeFlaps,
		func(_ topology.Spec, _ harness.Protocol, accept int, s harness.FlapSummary) {
			emitf("%-14s %10.0f %12.0f %10v\n", fmt.Sprintf("%d hello(s)", accept), s.ControlMsgs, s.ControlBytes, s.Recovered)
		})
	emitf("\n")
	return err
}

// scale extends the evaluation along the paper's two §IX axes under MR-MTP:
// more PoDs (TC1) and one more tier (a zone spine's uplink, the four-tier
// analogue of TC3). It owns its fabric sizes, so it takes no -pods.
func scale(e *env) error {
	emitf("Scale (paper §IX) — MR-MTP, one interface failure per fabric size:\n")
	emitf("%-26s %-14s %14s %8s %12s\n", "fabric", "failure", "convergence ms", "blast", "ctl bytes")
	row := func(fabric, failure string, s harness.FailureSummary) {
		emitf("%-26s %-14s %14.1f %8.0f %12.0f\n", fabric, failure, millis(s.Convergence), s.BlastRadius, s.ControlBytes)
	}
	var specs []topology.Spec
	for _, pods := range []int{2, 4, 8, 16} {
		spec := topology.TwoPodSpec()
		spec.Pods = pods
		specs = append(specs, spec)
	}
	_, err := sweep(e, specs, mrmtpOnly, e.trials, []topology.FailureCase{topology.TC1},
		harness.RunFailure, harness.SummarizeFailures,
		func(spec topology.Spec, _ harness.Protocol, tc topology.FailureCase, s harness.FailureSummary) {
			row(fmt.Sprintf("%d-PoD", spec.Pods), tc.String(), s)
		})
	if err != nil {
		return err
	}
	fourTier := topology.Spec{Pods: 4, Zones: 2, LeavesPerPod: 2,
		SpinesPerPod: 2, UplinksPerSpine: 2, UplinksPerZone: 2, ServersPerLeaf: 1}
	_, err = sweep(e, []topology.Spec{fourTier}, mrmtpOnly, e.trials, []topology.FailurePoint{{Device: "A-1-1", Port: 1}},
		harness.RunPortFailure, harness.SummarizeFailures,
		func(spec topology.Spec, _ harness.Protocol, fp topology.FailurePoint, s harness.FailureSummary) {
			row(fmt.Sprintf("4-tier (%d zones x %d PoDs)", spec.Zones, spec.Pods/spec.Zones), fmt.Sprintf("%s eth%d", fp.Device, fp.Port), s)
		})
	emitf("\n")
	return err
}
