package harness

import (
	"slices"
	"time"

	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/workload"
)

// This file runs the flow-level workload experiment: a heavy-tailed traffic
// mix offered to a rate-limited fabric, measuring flow completion time and
// per-uplink load balance for MR-MTP's hash versus BGP/ECMP — in steady
// state and with a failure injected while flows are in flight. It is the
// stress test the paper's single-probe methodology (§VI.D) does not cover.

// WorkloadConfig parameterizes a workload run on a fabric. Packet size and
// pacing are workload.DefaultConfig's.
type WorkloadConfig struct {
	Flows       int
	Pattern     workload.Pattern
	Sizes       workload.SizeDist
	MeanArrival time.Duration

	// LinkBps rate-limits every link (0 leaves links ideal); LinkQueue
	// bounds each egress queue in frames.
	LinkBps   int64
	LinkQueue int

	// MidFailure injects workloadFailCase once FailAfter of traffic has run.
	MidFailure bool
	FailAfter  time.Duration

	// MaxRun caps the virtual time spent waiting for flows to finish.
	MaxRun time.Duration
	// SampleInterval is the telemetry cadence.
	SampleInterval time.Duration

	// Engine selects the flow transport: the packet engine (default), the
	// analytic fluid model, or the hybrid split — short flows and flows
	// overlapping the fault window on packets, the rest fluid.
	Engine workload.Mode
	// RateInterval is the fluid rate-recomputation cadence (default 5 ms).
	RateInterval time.Duration
}

// fluidCutoff demotes flows below this many bytes to the packet path in
// hybrid mode: the websearch mix's mice.
const fluidCutoff = 10_000

// workloadFailCase is the mid-failure scenario's failure: TC2, the case where
// the paper measures the largest packet-loss gap between the protocols.
const workloadFailCase = topology.TC2

// DefaultWorkloadConfig is the published experiment: workload.DefaultConfig's
// websearch mix on the random pattern, links at 200 Mb/s with 64-frame
// queues, and (mid-failure scenario) workloadFailCase 400 ms into the load.
func DefaultWorkloadConfig() WorkloadConfig {
	mix := workload.DefaultConfig(0)
	return WorkloadConfig{
		Flows:          mix.Flows,
		Pattern:        mix.Pattern,
		Sizes:          mix.Sizes,
		MeanArrival:    mix.MeanArrival,
		LinkBps:        200_000_000,
		LinkQueue:      64,
		FailAfter:      400 * time.Millisecond,
		MaxRun:         30 * time.Second,
		SampleInterval: 10 * time.Millisecond,
	}
}

// Scenario names the workload scenario: "steady" or "midfail".
func (w WorkloadConfig) Scenario() string {
	if w.MidFailure {
		return "midfail"
	}
	return "steady"
}

// WorkloadResult is one trial's outcome.
type WorkloadResult struct {
	CellID
	Engine string

	Report workload.Report
	// GroupLoads is the per-uplink byte spread of every router's
	// equal-cost uplink group over the run.
	GroupLoads []workload.GroupLoad

	Drops     uint64 // egress tail-drops across all links
	PeakQueue int
	PeakUtil  float64
	// Series is the sampled per-link-direction telemetry.
	Series []*workload.LinkSeries
	// PoolSamples is the sampled frame-pool occupancy: a monotonic InUse
	// climb here means a pooled buffer leaked on some path.
	PoolSamples []workload.PoolSample
}

// WorkloadHosts lists every server as a workload endpoint, racks labelled
// by their ToR, in the topology's deterministic server order.
func (f *Fabric) WorkloadHosts() []workload.Host {
	hosts := make([]workload.Host, 0, len(f.Topo.Servers))
	for _, srv := range f.Topo.Servers {
		hosts = append(hosts, workload.Host{
			Stack: f.Stacks[srv.Name],
			IP:    srv.IP,
			Name:  srv.Name,
			Rack:  srv.Ports[1].Peer.Device.Name,
		})
	}
	return hosts
}

// UplinkGroups returns each router's equal-cost uplink set — the groups a
// flow hash is supposed to spread load across.
func (f *Fabric) UplinkGroups() []workload.Group {
	var groups []workload.Group
	for _, d := range f.Topo.Routers() {
		var ports []*simnet.Port
		for _, p := range d.Ports[1:] {
			if p.IsUplink() {
				ports = append(ports, f.Sim.Node(d.Name).Port(p.Index))
			}
		}
		if len(ports) > 1 {
			groups = append(groups, workload.Group{Name: d.Name, Ports: ports})
		}
	}
	return groups
}

// RunWorkload drives one workload trial over a warm fabric.
func RunWorkload(opts Options, w WorkloadConfig) (WorkloadResult, error) {
	// Sample timer phase like the other experiments, then shape the links
	// only after the fabric is converged so warm-up stays cheap.
	f, err := atInjection(opts, phaseLeadIn)
	if err != nil {
		return WorkloadResult{}, err
	}
	for _, link := range f.Sim.Links() {
		link.SetBandwidth(w.LinkBps, w.LinkQueue)
	}

	cfg := workload.DefaultConfig(opts.Seed)
	cfg.Pattern = w.Pattern
	cfg.Sizes = w.Sizes
	cfg.Flows = w.Flows
	cfg.MeanArrival = w.MeanArrival
	cfg.Mode = w.Engine
	if w.Engine != workload.ModePacket {
		plan, perr := f.buildFluidPlan(w.LinkBps)
		if perr != nil {
			return WorkloadResult{}, perr
		}
		cfg.Solver = plan.solver
		cfg.PathOf = f.newPathResolver(plan, workload.DstPort).resolve
		cfg.FluidCutoff = fluidCutoff
		cfg.RateInterval = w.RateInterval
		if w.MidFailure {
			// Flows predicted to straddle the fault keep packet fidelity:
			// demote from injection until reconvergence has settled.
			cfg.DemoteFrom = w.FailAfter
			cfg.DemoteUntil = w.FailAfter + 3*time.Second
		}
	}
	engine, err := workload.New(f.Sim, f.WorkloadHosts(), cfg)
	if err != nil {
		return WorkloadResult{}, err
	}
	sampler := workload.NewSampler(f.Sim, w.SampleInterval)
	for _, link := range f.Sim.Links() {
		sampler.Watch(link)
	}
	meter := workload.NewLoadMeter(f.Sim, f.UplinkGroups())

	engine.Start()
	sampler.Start()
	start := f.Sim.Now()
	if w.MidFailure {
		f.Sim.RunFor(w.FailAfter)
		if _, err := f.Fail(workloadFailCase); err != nil {
			return WorkloadResult{}, err
		}
		f.repathFluid(w, engine)
	}
	for !engine.Done() && f.Sim.Now()-start < w.MaxRun {
		f.Sim.RunFor(50 * time.Millisecond)
	}
	sampler.Stop()

	loads := meter.Read()
	res := WorkloadResult{
		CellID:      CellID{opts.Protocol, opts.Spec.Pods, w.Scenario()},
		Engine:      w.Engine.String(),
		Report:      engine.Report(nil),
		GroupLoads:  loads,
		Drops:       sampler.TotalDrops(),
		PeakQueue:   sampler.PeakQueue(),
		PeakUtil:    sampler.PeakUtil(),
		Series:      sampler.Series(),
		PoolSamples: sampler.PoolSeries(),
	}
	return res, nil
}

// repathFluid re-resolves live fluid reservations against the post-fault
// forwarding state: once immediately after injection, and once more a second
// later when the protocols' reconvergence has settled onto surviving paths.
// Packet mode schedules nothing, keeping its artifacts byte-identical.
func (f *Fabric) repathFluid(w WorkloadConfig, engine *workload.Engine) {
	if w.Engine == workload.ModePacket {
		return
	}
	engine.Repath()
	f.Sim.After(time.Second, engine.Repath)
}

// FCT summarizes pooled per-flow completion times in milliseconds.
type FCT struct {
	N    int     `json:"-"`
	Mean float64 `json:"mean_ms"`
	P50  float64 `json:"p50_ms"`
	P95  float64 `json:"p95_ms"`
	P99  float64 `json:"p99_ms"`
	Max  float64 `json:"max_ms"`
}

// WorkloadBucket aggregates one flow-size class across trials. FCT is
// embedded so its fields sit beside the counts in workload-summary.json.
type WorkloadBucket struct {
	Label     string `json:"label"`
	Flows     int    `json:"flows"`
	Completed int    `json:"completed"`
	FCT
}

// UplinkImbalance pools every busy uplink group's max/mean byte ratio from
// every trial (N groups); JainMean averages the per-trial Jain means.
type UplinkImbalance struct {
	Mean     float64 `json:"max_over_mean_mean"`
	P95      float64 `json:"max_over_mean_p95"`
	Max      float64 `json:"max_over_mean_max"`
	N        int     `json:"groups"`
	JainMean float64 `json:"jain_mean"`
}

// WorkloadSummary aggregates trials of one (protocol, pods, scenario) cell;
// its json tags are the workload-summary.json schema.
type WorkloadSummary struct {
	CellID
	Engine string `json:"engine"`
	Trials int    `json:"trials"`

	Flows          int     `json:"flows"` // across all trials
	Completed      int     `json:"completed"`
	Abandoned      int     `json:"abandoned"`
	Incomplete     int     `json:"incomplete"`
	CompletionRate float64 `json:"completion_rate"`
	PacketsSent    uint64  `json:"packets_sent"`
	Retransmits    uint64  `json:"retransmits"`
	// FluidFlows counts flows routed through the fluid model (0 in packet
	// mode); PeakConcurrent is the largest in-flight flow count of any
	// trial, the scale axis of the million-flow experiment.
	FluidFlows     int `json:"fluid_flows"`
	PeakConcurrent int `json:"peak_concurrent"`

	Buckets   []WorkloadBucket `json:"fct_buckets"`
	Imbalance UplinkImbalance  `json:"uplink_imbalance"`
	Drops     float64          `json:"mean_drops_per_trial"`
	PeakQueue int              `json:"peak_queue"` // max across trials
	PeakUtil  float64          `json:"peak_util"`  // max across trials
}

// SummarizeWorkload pools per-trial results (all trials must share the
// protocol/pods/scenario). Pooling is in trial order, so parallel and
// sequential runs summarize bit-identically.
func SummarizeWorkload(rs []WorkloadResult) WorkloadSummary {
	if len(rs) == 0 {
		return WorkloadSummary{}
	}
	s := WorkloadSummary{
		CellID: rs[0].CellID,
		Engine: rs[0].Engine,
		Trials: len(rs),
	}
	nBuckets := len(rs[0].Report.Buckets)
	fcts := make([][]float64, nBuckets)
	var ratios []float64
	var jain float64
	var drops float64
	for _, r := range rs {
		s.Flows += r.Report.Flows
		s.Completed += r.Report.Completed
		s.Abandoned += r.Report.Abandoned
		s.Incomplete += r.Report.Incomplete
		s.PacketsSent += r.Report.PacketsSent
		s.Retransmits += r.Report.Retransmits
		s.FluidFlows += r.Report.FluidFlows
		if r.Report.PeakConcurrent > s.PeakConcurrent {
			s.PeakConcurrent = r.Report.PeakConcurrent
		}
		for i, b := range r.Report.Buckets {
			fcts[i] = append(fcts[i], b.FCTms...)
		}
		// Idle groups carry no signal: the ratios pool every busy group, and
		// each trial adds the mean Jain index of its busy groups.
		var trialJain float64
		busyGroups := 0
		for _, gl := range r.GroupLoads {
			if slices.ContainsFunc(gl.Bytes, func(b uint64) bool { return b > 0 }) {
				ratios = append(ratios, gl.MaxOverMean)
				trialJain += gl.Jain
				busyGroups++
			}
		}
		if busyGroups > 0 {
			jain += trialJain / float64(busyGroups)
		}
		drops += float64(r.Drops)
		if r.PeakQueue > s.PeakQueue {
			s.PeakQueue = r.PeakQueue
		}
		if r.PeakUtil > s.PeakUtil {
			s.PeakUtil = r.PeakUtil
		}
	}
	for i := 0; i < nBuckets; i++ {
		fct := stats.Summarize(fcts[i])
		b := WorkloadBucket{
			Label: rs[0].Report.Buckets[i].Label,
			FCT:   FCT{N: fct.N, Mean: fct.Mean, P50: fct.P50, P95: fct.P95, P99: fct.P99, Max: fct.Max},
		}
		for _, r := range rs {
			b.Flows += r.Report.Buckets[i].Flows
			b.Completed += r.Report.Buckets[i].Completed
		}
		s.Buckets = append(s.Buckets, b)
	}
	if s.Flows > 0 {
		s.CompletionRate = float64(s.Completed) / float64(s.Flows)
	}
	imb := stats.Summarize(ratios)
	s.Imbalance = UplinkImbalance{Mean: imb.Mean, P95: imb.P95, Max: imb.Max, N: imb.N, JainMean: jain / float64(len(rs))}
	s.Drops = drops / float64(len(rs))
	return s
}
