package harness

import (
	"fmt"
	"time"

	"repro/internal/chaos"
	"repro/internal/flowhash"
	"repro/internal/icmp"
	"repro/internal/ipstack"
	"repro/internal/ipv4"
	"repro/internal/mrmtp"
	"repro/internal/netaddr"
	"repro/internal/pathtrace"
	"repro/internal/topology"
)

// This file runs the observability-plane campaigns (DESIGN.md §12): a fleet
// of mtr-style probers walks every ordered leaf pair of a warm fabric at
// several ECMP flow variants, a localizer sweeps the resulting coverage
// matrix on the virtual clock, and a gray failure from the trace catalog is
// scored by time-to-localization — the virtual time from fault injection to
// the first accusation of the faulted directed link — plus the count of
// false accusals. The harness owns all topology knowledge: it predicts each
// probe's hop sequence by composing the protocols' own next-hop decisions
// (Fabric.walk: the probe's hash over mrmtp.Router.DataCandidates or the live
// next hops of ipstack.FIB.Lookup), so the coverage matrix tracks reroutes as
// they happen.

// AccusationEventKind tags the localizer verdicts a trace campaign appends
// to its injector's log, beside the fault actions, as it makes them.
const AccusationEventKind = chaos.Kind("accusation")

// The trace campaign's parameters. Only the fleet width varies, and only in
// the in-package tests (one flow per leaf pair keeps hop-attribution
// assertions on a small deterministic fleet), so it is newTraceRun's
// argument and the rest are constants.
const (
	// traceFlows is the number of ECMP flow variants probed per ordered leaf
	// pair (each pins one source port, and so one hashed path).
	traceFlows = 4
	// traceRound is one prober's probe interval (every TTL is probed once
	// per round).
	traceRound = 50 * time.Millisecond
	// traceSweepPeriod is the localizer's sweep interval.
	traceSweepPeriod = 100 * time.Millisecond
	// traceLeadIn is how long probers run before the localizer is armed and
	// the faults are injected — long enough to fill RTT baselines.
	traceLeadIn = 2 * time.Second
	// traceSettle extends the observation window past the campaign horizon.
	traceSettle = 2 * time.Second
	// traceHopSamplePeriod spaces the per-hop statistic samples exported to
	// trace-hops.csv.
	traceHopSamplePeriod = time.Second
	// traceCoverMemory is how long a cell's past covers stay in its blame
	// set, so a fault that already triggered rerouting is still blamed on
	// the path the lost probes actually took.
	traceCoverMemory = time.Second
)

// TraceCatalog returns the gray-failure scenarios the trace experiment
// scores, all targeting the monitored L-1-1/S-1-1/T-1 column (present in
// every standard spec). Loss rates sit well above the localizer's loss
// threshold so the signal clears detection within a few EWMA rounds;
// horizons leave room for the persistence streak to mature before scoring
// ends. Each fault's impaired direction is the link a correct verdict
// names (acceptedLinks).
func TraceCatalog() []chaos.Spec {
	const start = chaos.Duration(500 * time.Millisecond)
	return []chaos.Spec{
		{
			// Gray spine uplink: 30% loss on S-1-1 → T-1 only.
			Name: "trace-gray-spine",
			Faults: []chaos.Fault{{
				Kind: chaos.GrayLoss, Link: chaos.LinkRef{Device: "S-1-1", Peer: "T-1"},
				Start: start, Duration: chaos.Duration(6 * time.Second), LossRate: 0.3,
			}},
		},
		{
			// Gray leaf uplink: the same loss one tier down.
			Name: "trace-gray-leaf",
			Faults: []chaos.Fault{{
				Kind: chaos.GrayLoss, Link: chaos.LinkRef{Device: "L-1-1", Peer: "S-1-1"},
				Start: start, Duration: chaos.Duration(6 * time.Second), LossRate: 0.3,
			}},
		},
		{
			// Gray downlink: loss on the top spine's transmit side, hitting
			// reply paths and cross-pod down-traffic instead of the uplink
			// direction.
			Name: "trace-gray-down",
			Faults: []chaos.Fault{{
				Kind: chaos.GrayLoss, Link: chaos.LinkRef{Device: "T-1", Peer: "S-1-1"},
				Start: start, Duration: chaos.Duration(6 * time.Second), LossRate: 0.3,
			}},
		},
		{
			// Corrupted and delayed frames on the leaf uplink: the latency
			// anomaly path (corruption shows as loss, the added latency as
			// RTT inflation).
			Name: "trace-hello-impair",
			Faults: []chaos.Fault{{
				Kind: chaos.LinkImpair, Link: chaos.LinkRef{Device: "L-1-1", Peer: "S-1-1"},
				Start: start, Duration: chaos.Duration(6 * time.Second),
				CorruptRate: 0.25, ExtraLatency: chaos.Duration(30 * time.Millisecond),
				Jitter: chaos.Duration(30 * time.Millisecond),
			}},
		},
		{
			// Silent one-way blackhole at the top tier: every S-1-1 → T-1
			// frame vanishes with no carrier alarm. (chaos.OneWay raises an
			// optics alarm, which plain BGP's fast-external-failover heals
			// in milliseconds — not a gray failure; the silent variant is
			// what tracing is for.) MR-MTP's hello asymmetry keeps S-1-1
			// hashing into the dark link for the whole fault, while BGP
			// stays dark until T-1's hold timer expires, so both protocols
			// expose a localizable window.
			Name: "trace-blackhole-up",
			Faults: []chaos.Fault{{
				Kind: chaos.GrayLoss, Link: chaos.LinkRef{Device: "S-1-1", Peer: "T-1"},
				Start: start, Duration: chaos.Duration(6 * time.Second), LossRate: 1.0,
			}},
		},
	}
}

// acceptedLinks returns the directed links a correct verdict on spec may
// name: each fault's impaired direction, Link.Device → Link.Peer, since a
// gray-loss or impair fault impairs the port on Device. Any other fault kind
// is refused — the scorer has no rule for what it should accuse.
func acceptedLinks(spec chaos.Spec) (map[pathtrace.DirectedLink]bool, error) {
	accept := make(map[pathtrace.DirectedLink]bool, len(spec.Faults))
	for _, f := range spec.Faults {
		if f.Kind != chaos.GrayLoss && f.Kind != chaos.LinkImpair {
			return nil, fmt.Errorf("harness: trace campaigns score gray-loss and impair faults only, not %s", f.Kind)
		}
		accept[pathtrace.DirectedLink{From: f.Link.Device, To: f.Link.Peer}] = true
	}
	return accept, nil
}

// mrmtpProbeTransport injects probes at an MR-MTP ToR: the hop limit rides
// the encapsulation TTL.
type mrmtpProbeTransport struct{ r *mrmtp.Router }

func (t mrmtpProbeTransport) SendProbe(ipWire []byte, hopLimit int) {
	t.r.InjectData(ipWire, byte(hopLimit))
}

// bgpProbeTransport injects probes at a BGP leaf: the hop limit is already
// the probe's IP TTL, so the raw send carries it as-is.
type bgpProbeTransport struct{ s *ipstack.Stack }

func (t bgpProbeTransport) SendProbe(ipWire []byte, _ int) {
	t.s.SendIPRaw(ipWire)
}

// traceVantage binds one prober to its topology endpoints.
type traceVantage struct {
	src, dst *topology.Device
}

// tracePathHop is one predicted hop: the device a TTL-limited probe expires
// at, and the address its reply will carry.
type tracePathHop struct {
	dev  *topology.Device
	addr netaddr.IPv4
}

// stampedCover is one sweep's predicted cover for a cell.
type stampedCover struct {
	at    time.Duration
	links []pathtrace.DirectedLink
}

// TraceHopSample is one exported per-hop statistics row.
type TraceHopSample struct {
	At time.Duration
	pathtrace.HopSnapshot
}

// traceRun owns one campaign's prober fleet, coverage history, localizer,
// and the result it scores as the sweeps run.
type traceRun struct {
	f          *Fabric
	tracer     *pathtrace.Tracer
	loc        *pathtrace.Localizer
	vants      []traceVantage // by prober ID
	history    map[int][]stampedCover
	lastSample time.Duration

	// Set when the faults are applied: the injector whose log each verdict
	// joins and the links a correct verdict names.
	inj    *chaos.Injector
	accept map[pathtrace.DirectedLink]bool
	// res fills as the run goes: hop samples from arm on, verdicts as the
	// sweeps make them.
	res TraceResult
}

// newTraceRun registers the prober fleet on a built (not yet warm) fabric:
// every ordered leaf pair at `flows` ECMP variants, probing from the
// source ToR's gateway address with a TTL budget matching the pair's hop
// distance (2 intra-pod, 4 cross-pod).
func newTraceRun(f *Fabric, flows int) *traceRun {
	run := &traceRun{
		f:       f,
		tracer:  &pathtrace.Tracer{},
		loc:     pathtrace.NewLocalizer(),
		history: make(map[int][]stampedCover),
	}
	for _, src := range f.Topo.Leaves {
		node := f.Sim.Node(src.Name)
		var tr pathtrace.Transport
		if f.Opts.Protocol == ProtoMRMTP {
			tr = mrmtpProbeTransport{f.Routers[src.Name]}
		} else {
			tr = bgpProbeTransport{f.Stacks[src.Name]}
		}
		for _, dst := range f.Topo.Leaves {
			if dst == src {
				continue
			}
			maxTTL := 4
			if dst.Pod == src.Pod {
				maxTTL = 2
			}
			for flow := 0; flow < flows; flow++ {
				run.tracer.AddProber(pathtrace.ProberConfig{
					Src:    topology.LeafGatewayIP(src),
					Dst:    topology.LeafGatewayIP(dst),
					Flow:   flow,
					MaxTTL: maxTTL,
				}, node.Sim, tr)
				run.vants = append(run.vants, traceVantage{src: src, dst: dst})
			}
		}
		// Replies arrive as ICMP addressed to the vantage: the ToR's
		// gateway in both planes.
		dispatch := func(from netaddr.IPv4, m icmp.Message) { run.tracer.Dispatch(from, m) }
		if f.Opts.Protocol == ProtoMRMTP {
			f.Routers[src.Name].ListenICMP(dispatch)
		} else {
			f.Stacks[src.Name].ListenICMP(dispatch)
		}
	}
	return run
}

// start schedules every prober's self-rearming tick, phase-staggered across
// one round so the fleet does not fire in lockstep.
func (run *traceRun) start() {
	probers := run.tracer.Probers()
	n := len(probers)
	sim := run.f.Sim
	for i, p := range probers {
		p := p
		var tick func()
		tick = func() {
			p.Tick()
			sim.Schedule(traceRound, tick)
		}
		offset := traceRound * time.Duration(i) / time.Duration(n)
		sim.Schedule(offset, tick)
	}
}

// probeKey is the fabric flow key of prober i's probes.
func (run *traceRun) probeKey(i int) flowhash.Key {
	p := run.tracer.Probers()[i]
	return flowhash.Key{
		Src: p.Cfg.Src, Dst: p.Cfg.Dst, Proto: ipv4.ProtoUDP,
		SrcPort: p.SrcPort(), DstPort: pathtrace.TracePort,
	}
}

// hopAddr is the address the probe reply from this hop will carry:
// intermediate MR-MTP devices answer from their trace Identity, BGP routers
// from the ingress interface, and the destination ToR from its gateway in
// both planes.
func (run *traceRun) hopAddr(v traceVantage, dev *topology.Device, ingressIP netaddr.IPv4) netaddr.IPv4 {
	if dev == v.dst {
		return topology.LeafGatewayIP(dev)
	}
	if run.f.Opts.Protocol == ProtoMRMTP {
		return routerID(dev)
	}
	return ingressIP
}

// forwardWalk predicts prober i's current forward path up to maxTTL hops:
// the hop sequence (device plus reply address) and the directed links
// crossed. The walk truncates where the fabric would drop the probe.
func (run *traceRun) forwardWalk(i, maxTTL int) (hops []tracePathHop, links []pathtrace.DirectedLink) {
	v := run.vants[i]
	key := run.probeKey(i)
	run.f.walk(v.src, v.dst, key.Dst, key, maxTTL, func(dev *topology.Device, out *topology.Port) {
		next := out.Peer.Device
		links = append(links, pathtrace.DirectedLink{From: dev.Name, To: next.Name})
		hops = append(hops, tracePathHop{dev: next, addr: run.hopAddr(v, next, out.Peer.IP)})
	})
	return hops, links
}

// replyWalk predicts the links a reply from the given hop crosses on its
// way back to prober i's vantage. The reply is a fresh ICMP flow — hashed
// on (replier address, vantage address, ICMP) — so its path is independent
// of the probe's.
func (run *traceRun) replyWalk(i int, hop tracePathHop) []pathtrace.DirectedLink {
	v := run.vants[i]
	vantage := topology.LeafGatewayIP(v.src)
	key := flowhash.Key{Src: hop.addr, Dst: vantage, Proto: ipv4.ProtoICMP}
	var links []pathtrace.DirectedLink
	run.f.walk(hop.dev, v.src, vantage, key, pathtrace.MaxTTL, func(dev *topology.Device, out *topology.Port) {
		links = append(links, pathtrace.DirectedLink{From: dev.Name, To: out.Peer.Device.Name})
	})
	return links
}

// coverFor assembles one cell's current cover from the prober's forward
// walk: the forward links up to the probed TTL plus the reply path from
// that hop. A probe whose TTL exceeds a walk that reached the destination
// clamps there (the destination answers before checking TTL); one whose
// walk truncated earlier covers only the forward prefix — it is dropped,
// no reply exists.
func (run *traceRun) coverFor(i, ttl int, hops []tracePathHop, links []pathtrace.DirectedLink) []pathtrace.DirectedLink {
	n := ttl
	if n > len(hops) {
		if len(hops) == 0 || hops[len(hops)-1].dev != run.vants[i].dst {
			return append([]pathtrace.DirectedLink(nil), links...)
		}
		n = len(hops)
	}
	cover := append([]pathtrace.DirectedLink(nil), links[:n]...)
	return append(cover, run.replyWalk(i, hops[n-1])...)
}

// updateHistory folds a cell's current cover into its rolling cover
// history (pruned to CoverMemory) and returns the union — the cell's blame
// set — in first-seen order.
func (run *traceRun) updateHistory(key int, now time.Duration, cover []pathtrace.DirectedLink) []pathtrace.DirectedLink {
	hist := append(run.history[key], stampedCover{at: now, links: cover})
	cut := 0
	for cut < len(hist)-1 && now-hist[cut].at > traceCoverMemory {
		cut++
	}
	hist = hist[cut:]
	run.history[key] = hist
	var blame []pathtrace.DirectedLink
	seen := make(map[pathtrace.DirectedLink]bool)
	for _, h := range hist {
		for _, l := range h.links {
			if !seen[l] {
				seen[l] = true
				blame = append(blame, l)
			}
		}
	}
	return blame
}

// collectCells builds the coverage matrix: every prober's per-TTL rollups
// joined with the predicted covers, in deterministic prober-major order.
func (run *traceRun) collectCells(now time.Duration) []pathtrace.Cell {
	var cells []pathtrace.Cell
	for i, p := range run.tracer.Probers() {
		hops, links := run.forwardWalk(i, p.Cfg.MaxTTL)
		for _, s := range p.Snapshot() {
			cover := run.coverFor(i, s.TTL, hops, links)
			blame := run.updateHistory(s.Prober<<5|s.TTL, now, cover)
			cells = append(cells, pathtrace.Cell{HopSnapshot: s, Cover: cover, Blame: blame})
		}
	}
	return cells
}

// arm baselines the localizer on the healthy fabric and takes the first
// hop-statistics sample.
func (run *traceRun) arm() {
	now := run.f.Sim.Now()
	cells := run.collectCells(now)
	run.loc.Arm(now, cells)
	run.sample(now, cells)
}

// sweep is one localization pass: rebuild the coverage matrix, let the
// localizer judge it, and score each verdict as it is made — into the
// result, and as an accuse row into the injector's log, which so stays in
// dispatch order.
func (run *traceRun) sweep() {
	now := run.f.Sim.Now()
	cells := run.collectCells(now)
	res := &run.res
	for _, a := range run.loc.Sweep(now, cells) {
		ta := TraceAccusation{Accusation: a, Correct: run.accept[a.Link]}
		detail := "false"
		if ta.Correct {
			detail = "correct"
			if !res.Localized {
				res.Localized, res.TimeToLocalize = true, a.At-res.InjectedAt
			}
		} else {
			res.FalseAccusals++
		}
		res.Accusations = append(res.Accusations, ta)
		run.inj.Events = append(run.inj.Events, chaos.Event{
			At: a.At, Kind: AccusationEventKind, Action: "accuse", Target: a.Link.String(), Detail: detail,
		})
	}
	if now-run.lastSample >= traceHopSamplePeriod {
		run.sample(now, cells)
	}
}

func (run *traceRun) sample(now time.Duration, cells []pathtrace.Cell) {
	run.lastSample = now
	for i := range cells {
		run.res.Samples = append(run.res.Samples, TraceHopSample{At: now, HopSnapshot: cells[i].HopSnapshot})
	}
}

// TraceAccusation is one localizer verdict scored against the scenario.
type TraceAccusation struct {
	pathtrace.Accusation
	Correct bool
}

// TraceResult is one campaign trial.
type TraceResult struct {
	CellID

	Probers int
	Cells   int

	// Probe-fleet totals over the whole run.
	ProbesSent      uint64
	ProbesLost      uint64
	RepliesReceived uint64
	// TraceReplies counts time-exceeded answers from MR-MTP fabric
	// devices (zero in the BGP plane, where the IP stack answers).
	TraceReplies uint64

	// InjectedAt is the virtual time of the first fault action.
	InjectedAt time.Duration

	Accusations []TraceAccusation
	// Localized reports whether an accepted link was accused;
	// TimeToLocalize is then the delay from InjectedAt to that verdict.
	Localized      bool
	TimeToLocalize time.Duration
	FalseAccusals  int

	// Samples is the per-hop statistics export (trace-hops.csv).
	Samples []TraceHopSample
	// Events is the injector log, each verdict's accuse row appended when
	// it was made: one virtual-time-ordered timeline.
	Events []chaos.Event
}

// RunTrace executes one trace campaign trial: build, register the prober
// fleet, warm up, probe through a lead-in, arm the localizer, inject the
// spec, and sweep to the horizon plus settle, scoring each verdict as it is
// made.
func RunTrace(opts Options, spec chaos.Spec) (TraceResult, error) {
	if opts.Spec.Zones != 0 {
		return TraceResult{}, fmt.Errorf("harness: trace campaigns support the standard three-tier specs only")
	}
	accept, err := acceptedLinks(spec)
	if err != nil {
		return TraceResult{}, err
	}
	f, err := Build(opts)
	if err != nil {
		return TraceResult{}, err
	}
	run := newTraceRun(f, traceFlows)
	if err := f.WarmUp(WarmupTime); err != nil {
		return TraceResult{}, err
	}
	run.start()
	f.Sim.RunFor(traceLeadIn)
	run.arm()

	// The faults are scheduled before the first sweep: at a shared instant
	// the fault action dispatches, and enters the log, first.
	if run.inj, err = chaos.Apply(f.Sim, spec); err != nil {
		return TraceResult{}, err
	}
	run.accept = accept
	firstStart := spec.Faults[0].Start.D()
	for _, fault := range spec.Faults[1:] {
		if s := fault.Start.D(); s < firstStart {
			firstStart = s
		}
	}
	run.res.InjectedAt = f.Sim.Now() + firstStart
	var sweep func()
	sweep = func() {
		run.sweep()
		f.Sim.Schedule(traceSweepPeriod, sweep)
	}
	f.Sim.Schedule(traceSweepPeriod, sweep)
	f.Sim.RunFor(spec.Horizon() + traceSettle)

	res := run.res
	res.CellID = CellID{opts.Protocol, opts.Spec.Pods, spec.Name}
	res.Probers = len(run.tracer.Probers())
	res.Events = run.inj.Events
	snaps := run.tracer.Snapshot()
	res.Cells = len(snaps)
	for _, s := range snaps {
		res.ProbesSent += s.Sent
		res.ProbesLost += s.Lost
		res.RepliesReceived += s.Received
	}
	for _, d := range f.Topo.Routers() {
		if r := f.Routers[d.Name]; r != nil {
			res.TraceReplies += r.Stats.TraceReplies
		}
	}
	return res, nil
}

// TraceSummary aggregates trials of one (protocol, pods, scenario) cell; its
// json tags are the trace-summary.json schema. It is a flat comparable
// struct on purpose, like ChaosSummary: the pooling determinism test
// compares summaries with ==.
type TraceSummary struct {
	CellID
	Trials int `json:"trials"`

	Probers int `json:"probers"` // per trial (identical across trials by construction)

	// Localized counts trials whose accepted link was accused;
	// FalseAccusals sums wrong verdicts across all trials.
	Localized     int `json:"localized_trials"`
	FalseAccusals int `json:"false_accusals"`

	// Time-to-localization over the localized trials, in milliseconds.
	TTLocMsMean float64 `json:"time_to_localize_ms_mean"`
	TTLocMsMax  float64 `json:"time_to_localize_ms_max"`

	AccusationsMean   float64 `json:"accusations_mean"`
	ProbeLossRateMean float64 `json:"probe_loss_rate_mean"`
	TraceRepliesMean  float64 `json:"trace_replies_mean"`
}

// SummarizeTrace pools per-trial results in trial order, so parallel and
// sequential runs summarize bit-identically.
func SummarizeTrace(rs []TraceResult) TraceSummary {
	if len(rs) == 0 {
		return TraceSummary{}
	}
	s := TraceSummary{
		CellID:  rs[0].CellID,
		Trials:  len(rs),
		Probers: rs[0].Probers,
	}
	n := float64(len(rs))
	var ttlSum float64
	for _, r := range rs {
		if r.Localized {
			s.Localized++
			ms := float64(r.TimeToLocalize) / float64(time.Millisecond)
			ttlSum += ms
			if ms > s.TTLocMsMax {
				s.TTLocMsMax = ms
			}
		}
		s.FalseAccusals += r.FalseAccusals
		s.AccusationsMean += float64(len(r.Accusations)) / n
		if r.ProbesSent > 0 {
			s.ProbeLossRateMean += float64(r.ProbesLost) / float64(r.ProbesSent) / n
		}
		s.TraceRepliesMean += float64(r.TraceReplies) / n
	}
	if s.Localized > 0 {
		s.TTLocMsMean = ttlSum / float64(s.Localized)
	}
	return s
}
