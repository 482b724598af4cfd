package harness

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/pathtrace"
	"repro/internal/simnet"
	"repro/internal/topology"
)

// buildTraceRun builds a warm fabric with the prober fleet started and two
// seconds of probing behind it.
func buildTraceRun(t *testing.T, proto Protocol, seed int64) (*Fabric, *traceRun) {
	t.Helper()
	f, err := Build(DefaultOptions(topology.TwoPodSpec(), proto, seed))
	if err != nil {
		t.Fatal(err)
	}
	// One flow per leaf pair: hop-attribution assertions want a small
	// deterministic fleet, not ECMP sweep width.
	run := newTraceRun(f, 1)
	if err := f.WarmUp(WarmupTime); err != nil {
		t.Fatal(err)
	}
	run.start()
	f.Sim.RunFor(2 * time.Second)
	return f, run
}

// wantTiers is the tier sequence a probe walks leaf-to-leaf: up to a spine
// and back down intra-pod, over the top tier cross-pod.
func wantTiers(intraPod bool) []topology.Tier {
	if intraPod {
		return []topology.Tier{topology.TierSpine, topology.TierLeaf}
	}
	return []topology.Tier{topology.TierSpine, topology.TierTop, topology.TierSpine, topology.TierLeaf}
}

// TestTraceHopAttribution is the end-to-end time-exceeded contract: for
// every prober, the per-TTL reply addresses observed on the wire match the
// walk predicted from the protocol's own forwarding state — MR-MTP VID
// paths answer from router identities, BGP ECMP paths from ingress
// interfaces, and the destination ToR from its gateway in both planes.
func TestTraceHopAttribution(t *testing.T) {
	for _, proto := range []Protocol{ProtoMRMTP, ProtoBGP} {
		t.Run(proto.String(), func(t *testing.T) {
			_, run := buildTraceRun(t, proto, 21)
			cells := 0
			for i, p := range run.tracer.Probers() {
				v := run.vants[i]
				hops, _ := run.forwardWalk(i, p.Cfg.MaxTTL)
				if len(hops) != p.Cfg.MaxTTL {
					t.Fatalf("prober %d (%s->%s): walk length %d, want %d",
						i, v.src.Name, v.dst.Name, len(hops), p.Cfg.MaxTTL)
				}
				for h, tier := range wantTiers(v.src.Pod == v.dst.Pod) {
					if hops[h].dev.Tier != tier {
						t.Fatalf("prober %d hop %d is %s (tier %v), want tier %v",
							i, h+1, hops[h].dev.Name, hops[h].dev.Tier, tier)
					}
				}
				for _, s := range p.Snapshot() {
					hop := hops[s.TTL-1]
					if !s.Seen {
						t.Errorf("prober %d TTL %d: no reply seen", i, s.TTL)
						continue
					}
					if s.Addr != hop.addr {
						t.Errorf("prober %d (%s->%s) TTL %d: replied from %s, walk predicts %s (%s)",
							i, v.src.Name, v.dst.Name, s.TTL, s.Addr, hop.addr, hop.dev.Name)
					}
					if want := hop.dev == v.dst; s.Reached != want {
						t.Errorf("prober %d TTL %d: Reached=%t, want %t", i, s.TTL, s.Reached, want)
					}
					if s.Lost != 0 {
						t.Errorf("prober %d TTL %d: %d probes lost on a healthy fabric", i, s.TTL, s.Lost)
					}
					// Pin the per-plane address scheme, not just walk
					// self-consistency.
					if hop.dev == v.dst {
						if s.Addr != topology.LeafGatewayIP(v.dst) {
							t.Errorf("prober %d TTL %d: destination replied from %s, want gateway", i, s.TTL, s.Addr)
						}
					} else if proto == ProtoMRMTP && s.Addr != routerID(hop.dev) {
						t.Errorf("prober %d TTL %d: hop replied from %s, want router identity %s",
							i, s.TTL, s.Addr, routerID(hop.dev))
					}
					cells++
				}
			}
			if cells == 0 {
				t.Fatal("no cells verified")
			}
		})
	}
}

// TestTraceHopAttributionUnderOneWayDown drops one transmit direction of a
// walked spine→top link mid-run: cells probing at or past the dark link
// record loss while the TTL-1 cell keeps exact attribution — the per-hop
// statistics isolate the failing hop.
func TestTraceHopAttributionUnderOneWayDown(t *testing.T) {
	for _, proto := range []Protocol{ProtoMRMTP, ProtoBGP} {
		t.Run(proto.String(), func(t *testing.T) {
			f, run := buildTraceRun(t, proto, 23)
			target := -1
			for i, p := range run.tracer.Probers() {
				if p.Cfg.MaxTTL == 4 {
					target = i
					break
				}
			}
			if target < 0 {
				t.Fatal("no cross-pod prober")
			}
			hops, _ := run.forwardWalk(target, 4)
			if len(hops) != 4 {
				t.Fatalf("walk length %d, want 4", len(hops))
			}
			// The spine→top TX port from the walked path, impaired one-way:
			// the reverse direction and the spine's reply path stay clean.
			spine := hops[0].dev
			var port *simnet.Port
			for _, p := range f.Sim.Node(spine.Name).Ports[1:] {
				if p.Link != nil && p.Peer().Node.Name == hops[1].dev.Name {
					port = p
					break
				}
			}
			if port == nil {
				t.Fatalf("no port %s->%s", spine.Name, hops[1].dev.Name)
			}

			before := map[int]pathtrace.HopSnapshot{}
			for _, s := range run.tracer.Probers()[target].Snapshot() {
				before[s.TTL] = s
			}
			port.Link.Impair(port, simnet.Impairment{Down: true})
			f.Sim.RunFor(time.Second)

			for _, s := range run.tracer.Probers()[target].Snapshot() {
				b := before[s.TTL]
				if s.TTL == 1 {
					if s.Lost != b.Lost {
						t.Errorf("TTL 1 lost %d probes behind an impairment past its hop", s.Lost-b.Lost)
					}
					if s.Addr != hops[0].addr {
						t.Errorf("TTL 1 attribution moved to %s under the impairment", s.Addr)
					}
					continue
				}
				if s.Lost <= b.Lost {
					t.Errorf("TTL %d recorded no loss across the dark %s->%s link",
						s.TTL, spine.Name, hops[1].dev.Name)
				}
			}
		})
	}
}

// TestTraceCampaignLocalizesCatalog runs every catalog scenario end to end
// on both protocols: each must localize an accepted link with zero false
// accusals, and the verdict must land after injection.
func TestTraceCampaignLocalizesCatalog(t *testing.T) {
	if testing.Short() {
		t.Skip("full trace campaigns in -short mode")
	}
	for _, proto := range []Protocol{ProtoMRMTP, ProtoBGP} {
		for _, sc := range TraceCatalog() {
			r, err := RunTrace(DefaultOptions(topology.TwoPodSpec(), proto, 31), sc)
			if err != nil {
				t.Fatalf("%s %s: %v", proto, sc.Name, err)
			}
			if !r.Localized {
				t.Errorf("%s %s: not localized (accusations: %+v)", proto, sc.Name, r.Accusations)
			}
			if r.FalseAccusals != 0 {
				t.Errorf("%s %s: %d false accusals: %+v", proto, sc.Name, r.FalseAccusals, r.Accusations)
			}
			if r.Localized && r.TimeToLocalize <= 0 {
				t.Errorf("%s %s: non-positive time-to-localize %v", proto, sc.Name, r.TimeToLocalize)
			}
			if r.ProbesSent == 0 || r.RepliesReceived == 0 {
				t.Errorf("%s %s: probe fleet idle (sent %d, received %d)",
					proto, sc.Name, r.ProbesSent, r.RepliesReceived)
			}
		}
	}
}

// TestTraceAcceptsImpairedDirection holds the scorer's accepted links to the
// simulator: for every catalog spec, the directions carrying an impairment
// once the faults have fired are exactly the links a correct verdict may
// name. Every other fault kind is refused with an error naming it.
func TestTraceAcceptsImpairedDirection(t *testing.T) {
	for _, spec := range TraceCatalog() {
		accept, err := acceptedLinks(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		f, err := Build(DefaultOptions(topology.TwoPodSpec(), ProtoMRMTP, 1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := chaos.Apply(f.Sim, spec); err != nil {
			t.Fatal(err)
		}
		f.Sim.RunFor(spec.Faults[0].Start.D() + time.Millisecond)
		impaired := make(map[pathtrace.DirectedLink]bool)
		for _, l := range f.Sim.Links() {
			for _, from := range []*simnet.Port{l.A, l.B} {
				if l.Impaired(from) != (simnet.Impairment{}) {
					impaired[pathtrace.DirectedLink{From: from.Node.Name, To: from.Peer().Node.Name}] = true
				}
			}
		}
		if !reflect.DeepEqual(accept, impaired) {
			t.Errorf("%s: accepts %v, the faults impair %v", spec.Name, accept, impaired)
		}
	}
	for _, spec := range ChaosCatalog() {
		kind := spec.Faults[0].Kind
		if kind == chaos.GrayLoss || kind == chaos.LinkImpair {
			continue
		}
		_, err := RunTrace(DefaultOptions(topology.TwoPodSpec(), ProtoMRMTP, 1), spec)
		if err == nil || !strings.Contains(err.Error(), string(kind)) {
			t.Errorf("%s: RunTrace error %v, want one naming %q", spec.Name, err, kind)
		}
	}
}

// TestTraceVerdictFollowsTiedFaultAction: a verdict joins the injector's log
// when the sweep makes it, so a fault action at the same instant — scheduled
// at Apply, before any sweep — comes first. The second run adds a fault that
// re-installs the first one's profile at the first verdict's instant: the
// simulation is unchanged, and a fault action now shares the verdict's tick.
func TestTraceVerdictFollowsTiedFaultAction(t *testing.T) {
	if testing.Short() {
		t.Skip("full trace campaigns in -short mode")
	}
	opts := DefaultOptions(topology.TwoPodSpec(), ProtoMRMTP, 31)
	spec := TraceCatalog()[0] // trace-gray-spine
	first, err := RunTrace(opts, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Accusations) == 0 {
		t.Fatal("no verdict to tie a fault action to")
	}
	fault := spec.Faults[0]
	at := first.Accusations[0].At
	tied := fault
	tied.Start = chaos.Duration(at - (first.InjectedAt - fault.Start.D()))
	tied.Duration = chaos.Duration(fault.End() - tied.Start.D())
	spec.Faults = append(spec.Faults, tied)
	second, err := RunTrace(opts, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(second.Accusations, first.Accusations) {
		t.Fatalf("re-installing the same profile moved the verdicts: %+v, was %+v", second.Accusations, first.Accusations)
	}
	tiedAction := second.Events[0] // the first fault's impair action, at the verdict's instant
	tiedAction.At = at
	for i, ev := range second.Events {
		if ev.Kind != AccusationEventKind {
			continue
		}
		if ev.At != at || i == 0 || second.Events[i-1] != tiedAction {
			t.Errorf("timeline %+v: want the tied impair action right before the verdict at %v", second.Events, at)
		}
		return
	}
	t.Fatalf("no verdict in the timeline %+v", second.Events)
}

// TestTraceParallelMatchesSequential pins trial pooling: worker count must
// not leak into summaries or rendered artifacts.
func TestTraceParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("full fabric trials in -short mode")
	}
	sc := TraceCatalog()[1] // trace-gray-leaf
	opts := DefaultOptions(topology.TwoPodSpec(), ProtoMRMTP, 3)

	old := Workers
	defer func() { Workers = old }()

	trial := func(o Options) (TraceResult, error) { return RunTrace(o, sc) }
	render := func(c Cell[TraceSummary, TraceResult]) [][]byte {
		cells := []Cell[TraceSummary, TraceResult]{c}
		js, err := RenderSummaryJSON(cells)
		if err != nil {
			t.Fatal(err)
		}
		return [][]byte{
			RenderTraceHopsCSV(cells), RenderTraceAccusationsCSV(cells),
			RenderTimelineCSV(cells), js,
		}
	}

	Workers = 1
	seq, err := RunCell(opts, 3, trial, SummarizeTrace)
	if err != nil {
		t.Fatal(err)
	}
	Workers = 4
	par, err := RunCell(opts, 3, trial, SummarizeTrace)
	if err != nil {
		t.Fatal(err)
	}
	// TraceSummary is flat and comparable by design, like ChaosSummary.
	if seq.Summary != par.Summary {
		t.Errorf("parallel summary differs from sequential:\nseq: %+v\npar: %+v", seq.Summary, par.Summary)
	}
	seqArts, parArts := render(seq), render(par)
	for i := range seqArts {
		if !bytes.Equal(seqArts[i], parArts[i]) {
			t.Errorf("artifact %d differs between worker counts", i)
		}
	}
	if !strings.HasPrefix(string(seqArts[1]), "protocol,pods,scenario,trial,t_us,link,cells,ratio,latency,correct,t_to_localize_us\n") {
		t.Errorf("unexpected accusations header: %q", strings.SplitN(string(seqArts[1]), "\n", 2)[0])
	}
}
