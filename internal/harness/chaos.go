package harness

import (
	"time"

	"repro/internal/chaos"
	"repro/internal/metrics"
)

// This file runs fault-injection campaigns: a chaos.Spec is applied to a
// warm fabric while a probe flow crosses the monitored column, and the
// result captures what the paper's clean `ip link set down` methodology
// cannot — blackhole time under gray failures, reconvergence churn under
// flap storms, and the QDSA accept/reject transitions that show whether
// Slow-to-Accept actually dampens.

// ChaosResult is one campaign trial. Counter fields are deltas over the
// campaign window (injection through settle), not process lifetimes.
type ChaosResult struct {
	CellID

	// FaultActions is the number of injector actions executed.
	FaultActions int

	// Probe-flow loss: the probe sends every ProbeInterval, so missing
	// packets convert directly to blackhole time; MaxOutage is the
	// longest consecutive missing run.
	ProbeSent     uint64
	ProbeLost     uint64
	BlackholeTime time.Duration
	MaxOutage     time.Duration

	// Control-plane churn: the metrics log's analysis of the window.
	metrics.Analysis

	// QDSA transitions summed over all MR-MTP routers (zero in BGP modes).
	NeighborsLost     uint64
	NeighborsAccepted uint64
	HellosDampened    uint64
	AcceptResets      uint64

	// BGP session churn summed over all speakers (zero in MR-MTP mode).
	SessionResets       uint64
	SessionsEstablished uint64
	BFDDownTransitions  uint64
	BFDUpTransitions    uint64

	// Events is the injector log (virtual-time ordered).
	Events []chaos.Event
}

// chaosCounters is a snapshot of every cumulative protocol counter the
// campaign reports as a delta.
type chaosCounters struct {
	neighborsLost, neighborsAccepted, hellosDampened, acceptResets uint64
	sessionResets, sessionsEstablished                             uint64
	bfdDown, bfdUp                                                 uint64
}

// snapshotCounters sweeps the fabric's protocol state in the topology's
// deterministic router order.
func snapshotCounters(f *Fabric) chaosCounters {
	var c chaosCounters
	for _, d := range f.Topo.Routers() {
		if r := f.Routers[d.Name]; r != nil {
			c.neighborsLost += r.Stats.NeighborsLost
			c.neighborsAccepted += r.Stats.NeighborsAccepted
			c.hellosDampened += r.Stats.HellosDampened
			c.acceptResets += r.Stats.AcceptResets
		}
		if sp := f.Speakers[d.Name]; sp != nil {
			c.sessionResets += sp.Stats.SessionResets
			c.sessionsEstablished += sp.Stats.SessionsEstablished
		}
		if mgr := f.BFDs[d.Name]; mgr != nil {
			for _, s := range mgr.Sessions() {
				c.bfdDown += s.Stats.DownTransitions
				c.bfdUp += s.Stats.UpTransitions
			}
		}
	}
	return c
}

// RunChaos executes one campaign trial: warm up, start the probe flow,
// apply the spec, run to the horizon plus settle, and report loss, churn
// and transition deltas. The probe crosses the monitored L-1-1/S-1-1/T-1
// column (VID 11 → VID 14, port picked by PickFlowPort), the same path the
// catalog's faults target.
func RunChaos(opts Options, spec chaos.Spec) (ChaosResult, error) {
	r, _, err := runChaos(opts, spec)
	return r, err
}

// runChaos is RunChaos that also returns the log its result analyzed.
func runChaos(opts Options, spec chaos.Spec) (ChaosResult, *metrics.Log, error) {
	f, err := warmThrough(opts, nearLeadIn)
	if err != nil {
		return ChaosResult{}, nil, err
	}
	probe := f.probe

	before := snapshotCounters(f)
	f.Log.Reset()
	startAt := f.Sim.Now()
	startSeq := probe.sender.Sent()
	inj, err := chaos.Apply(f.Sim, spec, f.Log)
	if err != nil {
		return ChaosResult{}, nil, err
	}
	f.Sim.RunFor(spec.Horizon() + SettleTime)
	endSeq := probe.sender.Sent()
	probe.sender.Stop()
	f.Sim.RunFor(time.Second) // drain in-flight packets

	after := snapshotCounters(f)
	missing, longest := probe.receiver.Missing(startSeq, endSeq)
	return ChaosResult{
		CellID:              CellID{opts.Protocol, opts.Spec.Pods, spec.Name},
		FaultActions:        len(inj.Events),
		ProbeSent:           endSeq - startSeq,
		ProbeLost:           missing,
		BlackholeTime:       time.Duration(missing) * probe.cfg.Interval,
		MaxOutage:           time.Duration(longest) * probe.cfg.Interval,
		Analysis:            f.Log.Analyze(startAt),
		NeighborsLost:       after.neighborsLost - before.neighborsLost,
		NeighborsAccepted:   after.neighborsAccepted - before.neighborsAccepted,
		HellosDampened:      after.hellosDampened - before.hellosDampened,
		AcceptResets:        after.acceptResets - before.acceptResets,
		SessionResets:       after.sessionResets - before.sessionResets,
		SessionsEstablished: after.sessionsEstablished - before.sessionsEstablished,
		BFDDownTransitions:  after.bfdDown - before.bfdDown,
		BFDUpTransitions:    after.bfdUp - before.bfdUp,
		Events:              inj.Events,
	}, f.Log, nil
}

// ChaosSummary aggregates trials of one (protocol, pods, scenario) cell; its
// json tags are the chaos-summary.json schema. It is a flat comparable
// struct on purpose: the parallel-vs-sequential determinism test compares
// summaries with ==.
type ChaosSummary struct {
	CellID
	Trials int `json:"trials"`

	FaultActions int `json:"fault_actions"` // per trial (identical across trials by construction)

	ProbeLossRateMean float64 `json:"probe_loss_rate_mean"`
	BlackholeMsMean   float64 `json:"blackhole_ms_mean"`
	BlackholeMsMax    float64 `json:"blackhole_ms_max"`
	MaxOutageMsMean   float64 `json:"max_outage_ms_mean"`
	MaxOutageMsMax    float64 `json:"max_outage_ms_max"`

	RouteUpdatesMean   float64 `json:"route_updates_mean"`
	ReconvergencesMean float64 `json:"reconvergences_mean"`
	ReconvergencesMax  int     `json:"reconvergences_max"`
	ControlMsgsMean    float64 `json:"control_msgs_mean"`
	ControlBytesMean   float64 `json:"control_bytes_mean"`

	NeighborsLostMean     float64 `json:"neighbors_lost_mean"`
	NeighborsAcceptedMean float64 `json:"neighbors_accepted_mean"`
	HellosDampenedMean    float64 `json:"hellos_dampened_mean"`
	AcceptResetsMean      float64 `json:"accept_resets_mean"`

	SessionResetsMean       float64 `json:"session_resets_mean"`
	SessionsEstablishedMean float64 `json:"sessions_established_mean"`
	BFDDownMean             float64 `json:"bfd_down_transitions_mean"`
	BFDUpMean               float64 `json:"bfd_up_transitions_mean"`

	// ReconvPerUp is the dampening headline: reconvergence episodes per
	// accepted up-transition (MR-MTP neighbors accepted, or BGP sessions
	// re-established). ≤1 means each readmission cost at most one
	// convergence episode; flap-chasing protocols exceed it.
	ReconvPerUp float64 `json:"reconvergences_per_up_transition"`
}

// upTransitions is the protocol-appropriate "accepted an adjacency back"
// count for one trial.
func (r ChaosResult) upTransitions() uint64 {
	if r.NeighborsAccepted > 0 {
		return r.NeighborsAccepted
	}
	return r.SessionsEstablished
}

// SummarizeChaos pools per-trial results in trial order, so parallel and
// sequential runs summarize bit-identically.
func SummarizeChaos(rs []ChaosResult) ChaosSummary {
	if len(rs) == 0 {
		return ChaosSummary{}
	}
	s := ChaosSummary{
		CellID:       rs[0].CellID,
		Trials:       len(rs),
		FaultActions: rs[0].FaultActions,
	}
	n := float64(len(rs))
	var ups, reconv float64
	for _, r := range rs {
		if r.ProbeSent > 0 {
			s.ProbeLossRateMean += float64(r.ProbeLost) / float64(r.ProbeSent) / n
		}
		bh := float64(r.BlackholeTime) / float64(time.Millisecond)
		mo := float64(r.MaxOutage) / float64(time.Millisecond)
		s.BlackholeMsMean += bh / n
		s.MaxOutageMsMean += mo / n
		if bh > s.BlackholeMsMax {
			s.BlackholeMsMax = bh
		}
		if mo > s.MaxOutageMsMax {
			s.MaxOutageMsMax = mo
		}
		s.RouteUpdatesMean += float64(r.RouteEvents) / n
		s.ReconvergencesMean += float64(r.Waves) / n
		if r.Waves > s.ReconvergencesMax {
			s.ReconvergencesMax = r.Waves
		}
		s.ControlMsgsMean += float64(r.ControlMessages) / n
		s.ControlBytesMean += float64(r.ControlBytes) / n
		s.NeighborsLostMean += float64(r.NeighborsLost) / n
		s.NeighborsAcceptedMean += float64(r.NeighborsAccepted) / n
		s.HellosDampenedMean += float64(r.HellosDampened) / n
		s.AcceptResetsMean += float64(r.AcceptResets) / n
		s.SessionResetsMean += float64(r.SessionResets) / n
		s.SessionsEstablishedMean += float64(r.SessionsEstablished) / n
		s.BFDDownMean += float64(r.BFDDownTransitions) / n
		s.BFDUpMean += float64(r.BFDUpTransitions) / n
		ups += float64(r.upTransitions())
		reconv += float64(r.Waves)
	}
	if ups > 0 {
		s.ReconvPerUp = reconv / ups
	}
	return s
}

// ChaosCatalog returns the named scenario campaigns, one per scenario
// class, all targeting the monitored L-1-1/S-1-1/T-1 column the probe
// flow crosses (present in every standard spec). Timings are chosen
// against the paper's timer constants: QDSA hello 50 ms / dead 100 ms /
// accept 3, BGP hold 3 s, BFD 100 ms × 3.
func ChaosCatalog() []chaos.Spec {
	const start = chaos.Duration(500 * time.Millisecond)
	return []chaos.Spec{
		{
			// Slow storm: 200 ms down / 800 ms up. Every down exceeds the
			// dead interval and every up exceeds the accept window, so
			// both protocols see (and should survive) six clean cycles.
			Name: "flap-storm",
			Faults: []chaos.Fault{{
				Kind: chaos.FlapStorm, Link: chaos.LinkRef{Device: "L-1-1", Peer: "S-1-1"},
				Start: start, Flaps: 6, Period: chaos.Duration(time.Second), Duty: 0.8,
			}},
		},
		{
			// Burst storm: 150 ms down / 100 ms up. The up window is too
			// short for three consecutive hellos, so Slow-to-Accept keeps
			// the adjacency out for the whole storm (one loss episode, one
			// readmission at the end) while interface-tracking BGP chases
			// every single flap.
			Name: "flap-burst",
			Faults: []chaos.Fault{{
				Kind: chaos.FlapStorm, Link: chaos.LinkRef{Device: "L-1-1", Peer: "S-1-1"},
				Start: start, Flaps: 8, Period: chaos.Duration(250 * time.Millisecond), Duty: 0.4,
			}},
		},
		{
			// Gray spine uplink: 30% loss on S-1-1 → T-1 only. Hellos and
			// keepalives cross a sometimes-silent wire; the reverse
			// direction stays clean.
			Name: "gray-spine",
			Faults: []chaos.Fault{{
				Kind: chaos.GrayLoss, Link: chaos.LinkRef{Device: "S-1-1", Peer: "T-1"},
				Start: start, Duration: chaos.Duration(4 * time.Second), LossRate: 0.3,
			}},
		},
		{
			// Corrupted and delayed hellos on the leaf uplink: a quarter
			// of frames take a flipped byte, everything rides 30 ms extra
			// latency with up to 30 ms jitter.
			Name: "hello-impair",
			Faults: []chaos.Fault{{
				Kind: chaos.LinkImpair, Link: chaos.LinkRef{Device: "L-1-1", Peer: "S-1-1"},
				Start: start, Duration: chaos.Duration(4 * time.Second),
				CorruptRate: 0.25, ExtraLatency: chaos.Duration(30 * time.Millisecond),
				Jitter: chaos.Duration(30 * time.Millisecond),
			}},
		},
		{
			// One-way fiber cut at the top tier: T-1's receiver from
			// S-1-1 goes dark (T-1 alarms, S-1-1 keeps hearing T-1).
			Name: "oneway-top",
			Faults: []chaos.Fault{{
				Kind: chaos.OneWay, Link: chaos.LinkRef{Device: "T-1", Peer: "S-1-1"},
				Start: start, Duration: chaos.Duration(3 * time.Second),
			}},
		},
		{
			// Shared-risk group: both plane uplinks of S-1-1 die 2 ms
			// apart (S-1-1 reaches T-1 and T-3 in the Fig. 2 wiring).
			Name: "correlated-uplinks",
			Faults: []chaos.Fault{{
				Kind: chaos.Correlated,
				Links: []chaos.LinkRef{
					{Device: "S-1-1", Peer: "T-1"},
					{Device: "S-1-1", Peer: "T-3"},
				},
				Start: start, Duration: chaos.Duration(2 * time.Second),
				Stagger: chaos.Duration(2 * time.Millisecond),
			}},
		},
		{
			// Rolling maintenance: drain pod 1's spines one at a time,
			// with enough stagger that the second starts after the first
			// is back.
			Name: "rolling-drain",
			Faults: []chaos.Fault{{
				Kind: chaos.Drain, Nodes: []string{"S-1-1", "S-1-2"},
				Start: start, Duration: chaos.Duration(1500 * time.Millisecond),
				Stagger: chaos.Duration(3 * time.Second),
			}},
		},
	}
}
