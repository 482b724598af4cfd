package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/topology"
	"repro/internal/workload"
)

// A workload is one fixed, deterministic unit of simulator work: run(seed)
// is one repetition. Everything the simulator computes that a speed-only
// change must leave alone goes into repResult.fields; everything about the
// host goes nowhere near it.
type workloadDef struct {
	name string
	why  string
	unit string // what work_per_ref counts
	run  func(sc scale, seed int64, tr *tracer) repResult
}

// field is one simulated statistic. The ordered field list is what
// sim_digest hashes and what golden.json stores, so a mismatch can name the
// first statistic that moved instead of just "digest differs".
type field struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// repResult is what one repetition hands back.
type repResult struct {
	fields    []field
	work      float64 // work units completed (trials, events, flows)
	attempted int
	failed    int
	errs      []string
	// counts are exact per-layer counters of this repetition (-trace).
	counts map[string]float64

	// The trace pass prices bring-up from these: bringups lists fabrics
	// brought up inside calls that hide that stage, bringupS is bring-up
	// the repetition timed itself, runWorkloadS the wall time spent inside
	// harness.RunWorkload.
	bringups     []bringupRef
	bringupS     float64
	runWorkloadS float64
}

// bringupRef is n bring-ups of one (fabric, protocol).
type bringupRef struct {
	pods       int
	proto      harness.Protocol
	n          int
	inWorkload bool // inside harness.RunWorkload
}

func (r *repResult) add(name string, v int64) {
	r.fields = append(r.fields, field{name, v})
}

func (r *repResult) count(name string, v float64) {
	if r.counts == nil {
		r.counts = make(map[string]float64)
	}
	r.counts[name] += v
}

func (r *repResult) countMax(name string, v float64) {
	if v > r.counts[name] {
		r.count(name, v-r.counts[name])
	}
}

func (r *repResult) fail(ops int, format string, args ...any) {
	r.failed += ops
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

// failAll marks every operation of the repetition failed: a wrong simulated
// statistic invalidates the whole measurement, not one trial of it.
func (r *repResult) failAll(format string, args ...any) {
	r.failed = r.attempted
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

// digest hashes the ordered field list.
func digest(fields []field) string {
	h := sha256.New()
	var buf [8]byte
	for _, f := range fields {
		h.Write([]byte(f.Name))
		h.Write([]byte{0})
		binary.BigEndian.PutUint64(buf[:], uint64(f.Value))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// firstDiff names the first field at which two field lists part ways.
func firstDiff(want, got []field) string {
	for i := range want {
		if i >= len(got) {
			return fmt.Sprintf("field %d %q missing (got %d fields, want %d)", i, want[i].Name, len(got), len(want))
		}
		if want[i] != got[i] {
			if want[i].Name != got[i].Name {
				return fmt.Sprintf("field %d is %q, want %q", i, got[i].Name, want[i].Name)
			}
			return fmt.Sprintf("%s = %d, want %d", got[i].Name, got[i].Value, want[i].Value)
		}
	}
	if len(got) > len(want) {
		return fmt.Sprintf("extra field %d %q", len(want), got[len(want)].Name)
	}
	return "no field differs"
}

// scale sizes every workload. full is the benchmark of record; tiny exists
// so `go test` can drive every code path in a couple of seconds.
type scale struct {
	name string

	gridSpecs  []topology.Spec
	gridTrials int

	fabric       topology.Spec
	fabricSteady time.Duration
	fabricSettle time.Duration

	packetSpec  topology.Spec
	packetFlows int

	fluidSpec   topology.Spec
	fluidFlows  int // fixed-size all-fluid legs
	searchSpec  topology.Spec
	searchFlows int // websearch legs across a failure

	// kernelDiv divides every layer kernel's call count; refOps is the
	// reference kernel's length in events.
	kernelDiv int
	refOps    int

	// maxRun overrides every workload leg's virtual-time cap when nonzero
	// (the forced-failure test sets 1ms so no flow can complete).
	maxRun time.Duration
}

// capRun is a leg's virtual-time cap: d unless the scale overrides it.
func (sc scale) capRun(d time.Duration) time.Duration {
	if sc.maxRun > 0 {
		return sc.maxRun
	}
	return d
}

func scaleByName(name string) (scale, error) {
	switch name {
	case "full":
		return scale{
			name:         "full",
			gridSpecs:    []topology.Spec{topology.TwoPodSpec(), topology.FourPodSpec()},
			gridTrials:   2,
			fabric:       topology.Spec{Pods: 24, LeavesPerPod: 4, SpinesPerPod: 4, UplinksPerSpine: 2, ServersPerLeaf: 1},
			fabricSteady: 2 * time.Second,
			fabricSettle: 5 * time.Second,
			packetSpec:   topology.FourPodSpec(),
			packetFlows:  4000,
			fluidSpec:    topology.TwoPodSpec(),
			fluidFlows:   500_000,
			searchSpec:   topology.FourPodSpec(),
			searchFlows:  2500,
			kernelDiv:    1,
			refOps:       1_000_000,
		}, nil
	case "tiny":
		return scale{
			name:         "tiny",
			gridSpecs:    []topology.Spec{topology.TwoPodSpec()},
			gridTrials:   1,
			fabric:       topology.TwoPodSpec(),
			fabricSteady: time.Second,
			fabricSettle: 5 * time.Second,
			packetSpec:   topology.TwoPodSpec(),
			packetFlows:  200,
			fluidSpec:    topology.TwoPodSpec(),
			fluidFlows:   2000,
			searchSpec:   topology.TwoPodSpec(),
			searchFlows:  200,
			kernelDiv:    100,
			refOps:       10_000,
		}, nil
	}
	return scale{}, fmt.Errorf("unknown -scale %q (want full or tiny)", name)
}

var gridProtocols = []harness.Protocol{harness.ProtoMRMTP, harness.ProtoBGP, harness.ProtoBGPBFD}

// protoKey is the metric-name spelling of a protocol.
func protoKey(p harness.Protocol) string {
	switch p {
	case harness.ProtoMRMTP:
		return "mrmtp"
	case harness.ProtoBGP:
		return "bgp"
	default:
		return "bgp-bfd"
	}
}

var workloads = []workloadDef{
	{
		name: "convergence-grid",
		why:  "the paper's Fig. 4-8 grid of many small fabrics: per-trial Build+WarmUp and the control-plane FSMs dominate, data path and fluid idle",
		unit: "trials/s",
		run:  runConvergenceGrid,
	},
	{
		name: "fabric-scale",
		why:  "one 24-PoD fabric per protocol with no traffic: periodic-timer churn on a big heap and big RIBs; a per-packet win must not move it",
		unit: "events/s",
		run:  runFabricScale,
	},
	{
		name: "packet-fct",
		why:  "packet engine under a bursty websearch mix across a link failure: frame scheduling, queues, tail drops and RTO repair; control plane is noise",
		unit: "flows/s",
		run:  runPacketFCT,
	},
	{
		name: "hybrid-million",
		why:  "hybrid engine draining a million fluid flows plus websearch legs: fluid solver and path resolution dominate, packet path only for mice",
		unit: "flows/s",
		run:  runHybridMillion,
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// checkOrdering enforces the paper's headline on any seed: after a TC1
// failure MR-MTP converges before BGP/BFD, which converges before plain BGP.
func checkOrdering(r *repResult, where string, conv map[harness.Protocol]time.Duration) {
	m, fd, b := conv[harness.ProtoMRMTP], conv[harness.ProtoBGPBFD], conv[harness.ProtoBGP]
	if !(m > 0 && m < fd && fd < b) {
		r.failAll("%s: TC1 convergence ordering broken: MR-MTP %v, BGP/BFD %v, BGP %v", where, m, fd, b)
	}
}

// runConvergenceGrid is what `make figures` costs: every (topology,
// protocol, failure case) cell of Figs. 4-8 through the public trial runners.
func runConvergenceGrid(sc scale, seed int64, tr *tracer) repResult {
	var r repResult
	n := sc.gridTrials
	for _, spec := range sc.gridSpecs {
		tc1 := make(map[harness.Protocol]time.Duration)
		for _, proto := range gridProtocols {
			opts := harness.DefaultOptions(spec, proto, seed)
			for _, tc := range topology.AllFailureCases() {
				cell := fmt.Sprintf("%dpod/%s/%s", spec.Pods, protoKey(proto), tc)
				r.attempted += 3 * n
				r.bringups = append(r.bringups, bringupRef{spec.Pods, proto, 3 * n, false})

				end := tr.span("harness.RunFailureTrials", cell)
				fs, err := harness.RunFailureTrials(opts, tc, n)
				end()
				if err != nil {
					r.fail(n, "%s failure trials: %v", cell, err)
				} else {
					r.work += float64(n)
					r.add(cell+"/convergence_ns", int64(fs.Convergence))
					r.add(cell+"/blast_radius_sum", int64(math.Round(fs.BlastRadius*float64(n))))
					r.add(cell+"/control_bytes_sum", int64(math.Round(fs.ControlBytes*float64(n))))
					if tc == topology.TC1 {
						tc1[proto] = fs.Convergence
					}
				}
				for _, reverse := range []bool{false, true} {
					dir := "near"
					if reverse {
						dir = "far"
					}
					end := tr.span("harness.RunLossTrials", cell+"/"+dir)
					lost, err := harness.RunLossTrials(opts, tc, reverse, n)
					end()
					if err != nil {
						r.fail(n, "%s loss trials (%s): %v", cell, dir, err)
						continue
					}
					r.work += float64(n)
					r.add(cell+"/packets_lost_"+dir+"_sum", int64(math.Round(lost*float64(n))))
				}
			}
		}
		if len(tc1) == len(gridProtocols) {
			checkOrdering(&r, fmt.Sprintf("%d-PoD grid", spec.Pods), tc1)
		}
	}
	return r
}

// fabricRun is one protocol's pass over the big fabric, with the host time
// of each stage kept for the per-layer report.
type fabricRun struct {
	buildS, warmupS, steadyS float64
	warmupEvents             uint64
	steadyEvents             uint64
	events                   uint64
	convergence              time.Duration
	spineTable, topTable     int // MR-MTP VID-table or BGP FIB entries
	sessions                 int
	bfdTransitions           uint64
}

// runFabric brings one fabric up, lets it idle for steady, fails TC1 and
// waits settle. It is the fabric-scale repetition's body and, with a short
// steady window, the per-layer probe of bring-up cost.
func runFabric(spec topology.Spec, proto harness.Protocol, seed int64, steady, settle time.Duration, tr *tracer, r *repResult) (fabricRun, bool) {
	var fr fabricRun
	key := fmt.Sprintf("%dpod/%s", spec.Pods, protoKey(proto))
	r.attempted++

	t0 := now()
	end := tr.span("harness.Build", key)
	f, err := harness.Build(harness.DefaultOptions(spec, proto, seed))
	end()
	fr.buildS = since(t0).Seconds()
	if err != nil {
		r.fail(1, "%s build: %v", key, err)
		return fr, false
	}

	t0 = now()
	end = tr.span("harness.Fabric.WarmUp", key)
	err = f.WarmUp(harness.WarmupTime)
	end()
	fr.warmupS = since(t0).Seconds()
	fr.warmupEvents = f.Sim.Events()
	if err != nil {
		r.fail(1, "%s warm-up: %v", key, err)
		return fr, false
	}

	t0 = now()
	end = tr.span("simnet.RunFor", key+"/steady")
	f.Sim.RunFor(steady)
	end()
	fr.steadyS = since(t0).Seconds()
	fr.steadyEvents = f.Sim.Events() - fr.warmupEvents

	f.Log.Reset()
	failAt, err := f.Fail(topology.TC1)
	if err != nil {
		r.fail(1, "%s fail TC1: %v", key, err)
		return fr, false
	}
	end = tr.span("simnet.RunFor", key+"/settle")
	f.Sim.RunFor(settle)
	end()
	end = tr.span("metrics.Log.Analyze", key)
	a := f.Log.Analyze(failAt)
	end()

	fr.events = f.Sim.Events()
	fr.convergence = a.Convergence
	if len(f.Topo.Spines) > 0 && len(f.Topo.Tops) > 0 {
		spine, top := f.Topo.Spines[0].Name, f.Topo.Tops[0].Name
		if proto == harness.ProtoMRMTP {
			fr.spineTable, fr.topTable = f.Routers[spine].TableSize(), f.Routers[top].TableSize()
		} else {
			fr.spineTable, fr.topTable = f.Stacks[spine].FIB.Len(), f.Stacks[top].FIB.Len()
		}
	}
	for _, d := range f.Topo.Routers() {
		if sp := f.Speakers[d.Name]; sp != nil {
			fr.sessions += sp.EstablishedCount()
		}
		if mgr := f.BFDs[d.Name]; mgr != nil {
			for _, s := range mgr.Sessions() {
				fr.bfdTransitions += s.Stats.UpTransitions + s.Stats.DownTransitions
			}
		}
	}

	r.bringupS += fr.buildS + fr.warmupS
	r.work += float64(fr.events)
	r.add(key+"/events", int64(fr.events))
	r.add(key+"/warmup_events", int64(fr.warmupEvents))
	r.add(key+"/convergence_ns", int64(a.Convergence))
	r.add(key+"/blast_radius", int64(a.BlastRadius))
	r.add(key+"/control_bytes", int64(a.ControlBytes))
	r.add(key+"/control_msgs", int64(a.ControlMessages))
	r.add(key+"/spine_table", int64(fr.spineTable))
	r.add(key+"/top_table", int64(fr.topTable))
	r.add(key+"/sessions", int64(fr.sessions))
	r.add(key+"/bfd_transitions", int64(fr.bfdTransitions))
	r.count("simnet.events", float64(fr.events))
	return fr, true
}

// runFabricScale idles and then breaks one large fabric per protocol. There
// is no workload traffic at all: the cost is hello/BFD/keepalive timers on a
// deep heap, TCP segments, and BGP decisions over big RIBs.
func runFabricScale(sc scale, seed int64, tr *tracer) repResult {
	var r repResult
	conv := make(map[harness.Protocol]time.Duration)
	for _, proto := range gridProtocols {
		if fr, ok := runFabric(sc.fabric, proto, seed, sc.fabricSteady, sc.fabricSettle, tr, &r); ok {
			conv[proto] = fr.convergence
		}
	}
	if len(conv) == len(gridProtocols) {
		checkOrdering(&r, fmt.Sprintf("%d-PoD fabric", sc.fabric.Pods), conv)
	}
	return r
}

// runLeg runs one RunWorkload call and folds its outcome.
func runLeg(r *repResult, tr *tracer, leg string, spec topology.Spec, proto harness.Protocol, seed int64, w harness.WorkloadConfig) {
	key := fmt.Sprintf("%s/%dpod/%s", leg, spec.Pods, protoKey(proto))
	r.attempted += w.Flows
	r.bringups = append(r.bringups, bringupRef{spec.Pods, proto, 1, true})
	t0 := now()
	end := tr.span("harness.RunWorkload", key)
	res, err := harness.RunWorkload(harness.DefaultOptions(spec, proto, seed), w)
	end()
	r.runWorkloadS += since(t0).Seconds()
	if err != nil {
		r.fail(w.Flows, "%s: %v", key, err)
		return
	}
	rep := res.Report
	if rep.Completed != rep.Flows {
		r.fail(rep.Flows-rep.Completed, "%s: %d of %d flows completed (%d abandoned, %d incomplete)",
			key, rep.Completed, rep.Flows, rep.Abandoned, rep.Incomplete)
	}
	r.work += float64(rep.Completed)
	r.add(key+"/completed", int64(rep.Completed))
	r.add(key+"/abandoned", int64(rep.Abandoned))
	r.add(key+"/packets_sent", int64(rep.PacketsSent))
	r.add(key+"/retransmits", int64(rep.Retransmits))
	r.add(key+"/duplicates", int64(rep.Duplicates))
	r.add(key+"/fluid_flows", int64(rep.FluidFlows))
	r.add(key+"/peak_concurrent", int64(rep.PeakConcurrent))
	r.add(key+"/drops", int64(res.Drops))
	r.add(key+"/peak_queue", int64(res.PeakQueue))
	for _, b := range rep.Buckets {
		// Per-flow FCTs fold into a sum, a max and an order-sensitive hash:
		// a million values do not belong in golden.json, but any one of
		// them moving must still move the digest.
		var sum, max int64
		h := sha256.New()
		var buf [8]byte
		for _, ms := range b.FCTms {
			ns := int64(math.Round(ms * float64(time.Millisecond)))
			sum += ns
			if ns > max {
				max = ns
			}
			binary.BigEndian.PutUint64(buf[:], uint64(ns))
			h.Write(buf[:])
		}
		bk := key + "/" + strings.NewReplacer("<=", "le", ">", "gt").Replace(b.Label)
		r.add(bk+"/completed", int64(b.Completed))
		r.add(bk+"/fct_sum_ns", sum)
		r.add(bk+"/fct_max_ns", max)
		r.add(bk+"/fct_hash", int64(binary.BigEndian.Uint64(h.Sum(nil))))
	}

	r.count("workload.packets_sent", float64(rep.PacketsSent))
	r.count("workload.retransmits", float64(rep.Retransmits))
	r.count("workload.drops", float64(res.Drops))
	r.count("workload.fluid_flows", float64(rep.FluidFlows))
	r.countMax("workload.peak_concurrent", float64(rep.PeakConcurrent))
	r.countMax("workload.peak_queue", float64(res.PeakQueue))
	if n := len(res.PoolSamples); n > 0 {
		r.count("framepool.returned", float64(res.PoolSamples[n-1].Recycled))
	}
}

// failAfter puts the TC2 failure 10 ms into the offered load, while queues
// are still empty. Injected under congestion, a tail-dropped MR-MTP LOST
// update (a single unacknowledged frame) can blackhole one host pair for
// good, and those flows are abandoned: seen at seed 3 with the failure at
// mid-run. A benchmark workload must complete every flow on every seed.
const failAfter = 10 * time.Millisecond

// dataProtocols are the two data planes the flow workloads compare. The BGP
// leg runs with BFD: plain BGP blackholes the failed link for its 3 s hold
// time, and the re-offered windows of whichever flows hashed onto it swing
// packets sent (and so bytes allocated) by +-40 % from seed to seed.
var dataProtocols = []harness.Protocol{harness.ProtoMRMTP, harness.ProtoBGPBFD}

// stratified hands out the n evenly spaced quantiles of a size mix in an
// order drawn from the seed. Every seed then offers exactly the same bytes
// (a heavy tail sampled freely moves total packets by +-4 % at 4000 flows),
// while who sends which size to whom, and when, still changes.
type stratified struct {
	base  workload.SizeDist
	order []int
	next  int
}

func newStratified(base workload.SizeDist, n int, seed int64) *stratified {
	return &stratified{base: base, order: rand.New(rand.NewSource(seed)).Perm(n)}
}

func (s *stratified) Name() string { return s.base.Name() + "-stratified" }

// Sample ignores the engine's uniform draw: workload.New asks for exactly
// one size per flow, in flow order.
func (s *stratified) Sample(float64) int {
	n := len(s.order)
	q := (float64(s.order[s.next%n]) + 0.5) / float64(n)
	s.next++
	return s.base.Sample(q)
}

// packetConfig is the packet-fct offered load: the published websearch mix
// arriving fast enough to keep thousands of flows in flight on 200 Mb/s
// links, across the TC2 failure.
func packetConfig(sc scale) harness.WorkloadConfig {
	w := harness.DefaultWorkloadConfig()
	w.Flows = sc.packetFlows
	w.MeanArrival = 500 * time.Microsecond
	w.MidFailure = true
	w.FailAfter = failAfter
	w.MaxRun = sc.capRun(120 * time.Second)
	return w
}

func runPacketFCT(sc scale, seed int64, tr *tracer) repResult {
	var r repResult
	w := packetConfig(sc)
	for _, proto := range dataProtocols {
		w.Sizes = newStratified(workload.WebSearchMix(), w.Flows, seed)
		runLeg(&r, tr, "packet", sc.packetSpec, proto, seed, w)
	}
	return r
}

// fluidConfig is the BENCH_fluid.json million-flow row: fixed 100 kB flows,
// all above the fluid cutoff, arriving within two virtual seconds.
func fluidConfig(sc scale) harness.WorkloadConfig {
	w := harness.DefaultWorkloadConfig()
	w.Engine = workload.ModeHybrid
	w.Flows = sc.fluidFlows
	w.Sizes = workload.FixedSize(100_000)
	w.MeanArrival = 2 * time.Second / time.Duration(w.Flows)
	w.RateInterval = 50 * time.Millisecond
	w.SampleInterval = time.Second
	w.MaxRun = sc.capRun(1200 * time.Second)
	return w
}

// searchConfig is the hybrid engine's mixed regime: websearch mice and
// failure-window flows demoted to packets, the tail fluid, Repath exercised.
func searchConfig(sc scale) harness.WorkloadConfig {
	w := harness.DefaultWorkloadConfig()
	w.Engine = workload.ModeHybrid
	w.Flows = sc.searchFlows
	w.MeanArrival = 2 * time.Millisecond // arrivals must outlast the 3 s demotion window, or no flow goes fluid
	w.MidFailure = true
	w.FailAfter = failAfter
	w.MaxRun = sc.capRun(600 * time.Second)
	return w
}

func runHybridMillion(sc scale, seed int64, tr *tracer) repResult {
	var r repResult
	for _, proto := range dataProtocols {
		runLeg(&r, tr, "fluid", sc.fluidSpec, proto, seed, fluidConfig(sc))
	}
	for _, proto := range dataProtocols {
		w := searchConfig(sc)
		w.Sizes = newStratified(workload.WebSearchMix(), w.Flows, seed)
		runLeg(&r, tr, "search", sc.searchSpec, proto, seed, w)
	}
	return r
}
