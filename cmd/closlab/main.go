// Command closlab is the one generator of the repository's simulated
// results: it reruns the paper's experiments and prints each figure's data
// as a grid (rows: failure cases TC1–TC4; columns: protocol configurations)
// for the 2-PoD and 4-PoD topologies, then the listings, the §IX extensions
// and the workload, chaos and trace campaigns. Everything it prints is
// virtual time — it reads no wall clock; speed numbers come from `go run
// ./bench` — so the same flags give the same bytes on any host.
//
// Usage:
//
//	closlab -experiment convergence            # Fig. 4 (ms); Figs. 5-10 likewise
//	closlab -experiment tables -pods 4         # Listings 1-5, table sizes, traceroute
//	closlab -experiment workload -out dir      # FCT + load balance under load
//	closlab -experiment all                    # every figure, table and campaign
//	closlab -help                              # every experiment name and flag
//
// Flags -trials and -seed control averaging (the rows that run once reject
// -trials), and -pods restricts the topology (scale sweeps its own fabric
// sizes and rejects it). Trials run GOMAXPROCS at a time; the figures do
// not depend on it, because trial seeds derive from trial indices. -engine
// switches the workload experiment between the packet engine, the analytic
// fluid model, and the hybrid split (-engine hybrid -flows 1000000 is the
// million-flow configuration); -flows overrides the flow count.
// -cpuprofile and -memprofile write pprof profiles of the run (off by
// default; they never touch stdout or the artifact files).
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/capture"
	"repro/internal/chaos"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/topology"
	"repro/internal/trafficgen"
	"repro/internal/workload"
)

var protocols = []harness.Protocol{harness.ProtoMRMTP, harness.ProtoBGP, harness.ProtoBGPBFD}

// The workload and trace campaigns compare the paper's protocol against plain
// BGP/ECMP. For workload, BGP/BFD converges like MR-MTP and adds nothing to
// the FCT story for the extra runtime; for trace, localization needs no BFD —
// the point of path tracing is catching the gray failures liveness protocols
// miss — and probing both data planes shows the technique is plane-agnostic.
var dataPlaneProtocols = []harness.Protocol{harness.ProtoMRMTP, harness.ProtoBGP}

// chaosProtocols is the comparison the chaos campaign draws: the paper's
// protocol against the strongest baseline. (Plain BGP's 3 s hold timer loses
// every scenario by seconds; it adds runtime without adding signal.)
var chaosProtocols = []harness.Protocol{harness.ProtoMRMTP, harness.ProtoBGPBFD}

// env is the command line as the campaigns see it.
type env struct {
	specs  []topology.Spec
	trials int
	seed   int64
	out    string // -out: artifact directory
	engine workload.Mode
	flows  int

	// failures memoizes the Fig. 4–6 sweep: the three figures are three
	// columns of the same cells, so a process computes them once.
	// failureSweeps counts the computations.
	failures      []failureCell
	failureSweeps int
}

// failureCell is one cell of the Fig. 4–6 sweep at its place in the grid.
type failureCell struct {
	row, col string
	summary  harness.FailureSummary
}

// campaign is one -experiment value. The table below is the whole registry:
// the -experiment usage string, the unknown-name error, "all" and the -out
// check all read it, so adding an experiment is one row (plus the harness
// Run* it sweeps) with no hand-maintained list to fall out of date.
type campaign struct {
	name string
	// optIn campaigns run only when named: "all" prints results, and these
	// dump raw testbed logs and captures instead.
	optIn bool
	// artifacts names the files the campaign writes under -out; a campaign
	// with none rejects -out.
	artifacts []string
	// once campaigns run one trial per cell and reject -trials.
	once bool
	run  func(*env) error
}

var campaigns = []campaign{
	{name: "convergence", run: failureFigure("Fig. 4 — network convergence time (ms)",
		func(s harness.FailureSummary) string {
			return fmt.Sprintf("%.1f", millis(s.Convergence))
		})},
	{name: "blastradius", run: failureFigure("Fig. 5 — blast radius (routers updating tables)",
		func(s harness.FailureSummary) string { return fmt.Sprintf("%.0f", s.BlastRadius) })},
	{name: "overhead", run: failureFigure("Fig. 6 — control overhead after failure (layer-2 bytes)",
		func(s harness.FailureSummary) string { return fmt.Sprintf("%.0f", s.ControlBytes) })},
	{name: "loss-near", run: lossFigure("Fig. 7 — packets lost, sender near failure (ToR 11 -> ToR 14)", false)},
	{name: "loss-far", run: lossFigure("Fig. 8 — packets lost, sender far from failure (ToR 14 -> ToR 11)", true)},
	{name: "keepalive", once: true, run: keepAlive},
	{name: "config", once: true, run: configComparison},
	{name: "nodefail", once: true, run: nodeFailure},
	{name: "flap", run: flapChurn},
	{name: "tables", once: true, run: tables},
	{name: "ablation", run: ablationSweeps},
	{name: "scale", run: scale},
	cellCampaign("workload", dataPlaneProtocols, workloadConfigs,
		harness.RunWorkload, harness.SummarizeWorkload, harness.RenderWorkload,
		"workload-{fct,imbalance,telemetry}.csv and workload-summary.json",
		csv("workload-fct.csv", harness.RenderWorkloadFCTCSV),
		csv("workload-imbalance.csv", harness.RenderWorkloadImbalanceCSV),
		csv("workload-telemetry.csv", harness.RenderWorkloadTelemetryCSV)),
	cellCampaign("chaos", chaosProtocols, func(*env) []chaos.Spec { return harness.ChaosCatalog() },
		harness.RunChaos, harness.SummarizeChaos, harness.RenderChaos,
		"chaos-timeline.csv and chaos-summary.json",
		csv("chaos-timeline.csv", harness.RenderTimelineCSV[harness.ChaosSummary, harness.ChaosResult])),
	cellCampaign("trace", dataPlaneProtocols, func(*env) []chaos.Spec { return harness.TraceCatalog() },
		harness.RunTrace, harness.SummarizeTrace, harness.RenderTrace,
		"trace-hops.csv, trace-accusations.csv, trace-timeline.csv and trace-summary.json",
		csv("trace-hops.csv", harness.RenderTraceHopsCSV),
		csv("trace-accusations.csv", harness.RenderTraceAccusationsCSV),
		csv("trace-timeline.csv", harness.RenderTimelineCSV[harness.TraceSummary, harness.TraceResult])),
	{name: "artifacts", optIn: true, once: true, run: rawArtifacts,
		artifacts: []string{"{mrmtp,bgp,bgp-bfd}-logs.txt", "{mrmtp,bgp,bgp-bfd}-capture.pcap"}},
}

// experimentNames lists every accepted -experiment value.
func experimentNames() string {
	var names []string
	for _, c := range campaigns {
		names = append(names, c.name)
	}
	return strings.Join(append(names, "all"), "|")
}

func main() {
	trials := flag.Int("trials", 3, "trials to average per data point")
	seed := flag.Int64("seed", 1, "base random seed")
	pods := flag.Int("pods", 0, "restrict to one topology size (2 or 4); 0 = both")
	out := flag.String("out", "closlab-artifacts", "output directory for the experiments that write artifact files")
	engine := flag.String("engine", "packet", "workload flow transport: packet|fluid|hybrid")
	flows := flag.Int("flows", 0, "override the workload flow count (0 = the published 160)")
	experiment := flag.String("experiment", "all", experimentNames())
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof allocation profile of the run to this file")
	flag.Parse()

	// Reject contradictory flag combinations with usage before anything
	// runs: a flag that silently does nothing for the chosen experiment is
	// worse than an error, because the artifacts look valid.
	set := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := validateFlags(set, *experiment, *engine, *trials, *flows, *pods, *cpuProfile, *memProfile); err != nil {
		_, _ = fmt.Fprintf(os.Stderr, "closlab: %v\n\n", err) // best effort: exiting anyway
		flag.Usage()
		os.Exit(2)
	}

	e := &env{trials: *trials, seed: *seed, out: *out, flows: *flows}
	e.engine, _ = workload.ModeByName(*engine)
	for _, spec := range []topology.Spec{topology.TwoPodSpec(), topology.FourPodSpec()} {
		if *pods == 0 || *pods == spec.Pods {
			e.specs = append(e.specs, spec)
		}
	}
	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fatalf("%v", err)
	}
	for _, c := range campaigns {
		if *experiment == c.name || *experiment == "all" && !c.optIn {
			if err := runCampaign(c, e); err != nil {
				fatalf("%s: %v", c.name, err)
			}
		}
	}
	if err := stopProfiles(); err != nil {
		fatalf("%v", err)
	}
}

// startProfiles begins the requested profiles (an empty name means off) and
// returns the function that finishes them: it stops the CPU profile and
// writes the allocation profile — every allocation since process start, the
// `go tool pprof -sample_index=alloc_space` view — after a final GC.
func startProfiles(cpuProfile, memProfile string) (stop func() error, err error) {
	var cpu *os.File
	if cpuProfile != "" {
		if cpu, err = os.Create(cpuProfile); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			return nil, err
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return err
			}
		}
		if memProfile == "" {
			return nil
		}
		mem, err := os.Create(memProfile)
		if err != nil {
			return err
		}
		runtime.GC()
		if err := pprof.Lookup("allocs").WriteTo(mem, 0); err != nil {
			return err
		}
		return mem.Close()
	}, nil
}

// validateFlags rejects flag values and combinations that would misbehave,
// silently or late. set holds the flags explicitly passed on the command
// line, so defaults never trip a check.
func validateFlags(set map[string]bool, experiment, engine string, trials, flows, pods int, cpuProfile, memProfile string) error {
	if trials < 1 {
		return fmt.Errorf("-trials %d: need at least one trial", trials)
	}
	if flows < 0 {
		return fmt.Errorf("-flows %d: a flow count cannot be negative", flows)
	}
	if pods != 0 && pods != 2 && pods != 4 {
		return fmt.Errorf("-pods %d: want 2 or 4 (0 = both)", pods)
	}
	if _, ok := workload.ModeByName(engine); !ok {
		return fmt.Errorf("-engine %q: want packet, fluid or hybrid", engine)
	}
	if set["engine"] && experiment != "workload" {
		return fmt.Errorf("-engine only applies to -experiment workload (got %q)", experiment)
	}
	if set["flows"] && experiment != "workload" {
		return fmt.Errorf("-flows only applies to -experiment workload (got %q)", experiment)
	}
	if set["pods"] && experiment == "scale" {
		return fmt.Errorf("-pods does not apply to -experiment scale: it sweeps its own fabric sizes")
	}
	// A profile flag that would lose its profile: passed with no file
	// name, or both aimed at one file (the second write replaces the first).
	if set["cpuprofile"] && cpuProfile == "" {
		return fmt.Errorf("-cpuprofile: need a file name")
	}
	if set["memprofile"] && memProfile == "" {
		return fmt.Errorf("-memprofile: need a file name")
	}
	if cpuProfile != "" && cpuProfile == memProfile {
		return fmt.Errorf("-cpuprofile and -memprofile both name %q: give each profile its own file", cpuProfile)
	}
	// A typo must exit non-zero naming every registered experiment, not
	// masquerade as a successful empty run. "all" is always known and
	// includes campaigns that write files.
	known, writes, once := experiment == "all", experiment == "all", false
	for _, c := range campaigns {
		if c.name == experiment {
			known, writes, once = true, len(c.artifacts) > 0, c.once
		}
	}
	if !known {
		return fmt.Errorf("unknown -experiment %q (want one of: %s)", experiment, experimentNames())
	}
	if set["out"] && !writes {
		return fmt.Errorf("-out does not apply to -experiment %s: it writes no artifact files", experiment)
	}
	if set["trials"] && once {
		return fmt.Errorf("-trials does not apply to -experiment %s: it runs once", experiment)
	}
	return nil
}

// runCampaign runs one table row. The artifact directory is created before
// the sweep so an unwritable -out fails in milliseconds, not after it.
func runCampaign(c campaign, e *env) error {
	if len(c.artifacts) > 0 {
		if err := os.MkdirAll(e.out, 0o755); err != nil {
			return err
		}
	}
	return c.run(e)
}

// sweep is the loop every campaign shares — topology × protocol × scenario,
// in the order the figures and artifacts list their cells, n seeds of
// run(options, scenario) per cell over the trial pool. each, when set, sees
// every cell's summary as it finishes.
func sweep[T, S, R any](e *env, specs []topology.Spec, protos []harness.Protocol, n int, scenarios []T,
	run func(harness.Options, T) (R, error), summarize func([]R) S,
	each func(spec topology.Spec, proto harness.Protocol, scenario T, s S)) ([]harness.Cell[S, R], error) {
	var cells []harness.Cell[S, R]
	for _, spec := range specs {
		for _, proto := range protos {
			for _, sc := range scenarios {
				c, err := harness.RunCell(harness.DefaultOptions(spec, proto, e.seed), n,
					func(o harness.Options) (R, error) { return run(o, sc) }, summarize)
				if err != nil {
					return nil, err
				}
				if each != nil {
					each(spec, proto, sc, c.Summary)
				}
				cells = append(cells, c)
			}
		}
	}
	return cells, nil
}

// single is the summary of an experiment that runs once per cell.
func single[R any](rs []R) R { return rs[0] }

// csvFile is one artifact of a cell campaign: its name under -out and the
// harness renderer that owns its format.
type csvFile[S, R any] struct {
	name   string
	render func([]harness.Cell[S, R]) []byte
}

func csv[S, R any](name string, render func([]harness.Cell[S, R]) []byte) csvFile[S, R] {
	return csvFile[S, R]{name, render}
}

// cellCampaign builds the row of a campaign whose artifacts render from its
// cells: it sweeps run over every scenario, protocol and topology, prints
// each cell's text block as it finishes, and writes the CSV files plus
// <name>-summary.json. wrote is how the closing line lists them.
func cellCampaign[T, S, R any](name string, protos []harness.Protocol, scenarios func(*env) []T,
	run func(harness.Options, T) (R, error), summarize func([]R) S, render func(S) string,
	wrote string, files ...csvFile[S, R]) campaign {
	c := campaign{name: name}
	for _, f := range files {
		c.artifacts = append(c.artifacts, f.name)
	}
	summaryFile := name + "-summary.json"
	c.artifacts = append(c.artifacts, summaryFile)
	c.run = func(e *env) error {
		cells, err := sweep(e, e.specs, protos, e.trials, scenarios(e), run, summarize,
			func(_ topology.Spec, _ harness.Protocol, _ T, s S) { emitf("%s", render(s)) })
		if err != nil {
			return err
		}
		emitf("\n")
		for _, f := range files {
			if err := os.WriteFile(filepath.Join(e.out, f.name), f.render(cells), 0o644); err != nil {
				return err
			}
		}
		summary, err := harness.RenderSummaryJSON(cells)
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(e.out, summaryFile), summary, 0o644); err != nil {
			return err
		}
		emitf("%s: wrote %s to %s\n", name, wrote, e.out)
		return nil
	}
	return c
}

// workloadConfigs offers the heavy-tailed flow workload steady-state and
// with the TC2 failure injected mid-run. -engine selects the flow transport
// and -flows, when positive, overrides the published flow count.
func workloadConfigs(e *env) []harness.WorkloadConfig {
	var out []harness.WorkloadConfig
	for _, midFailure := range []bool{false, true} {
		w := harness.DefaultWorkloadConfig()
		w.MidFailure = midFailure
		w.Engine = e.engine
		if e.flows > 0 {
			w.Flows = e.flows
		}
		out = append(out, w)
	}
	return out
}

// rawArtifacts runs a TC1 failure per protocol and writes the raw testbed
// artifacts a FABRIC user would collect: per-router text logs (§VI.B) and
// a Wireshark-compatible pcap of every link. It brings the fabric up itself
// rather than through WarmUp, which would drop bring-up from the log.
func rawArtifacts(e *env) error {
	for _, proto := range protocols {
		name := map[harness.Protocol]string{
			harness.ProtoMRMTP:  "mrmtp",
			harness.ProtoBGP:    "bgp",
			harness.ProtoBGPBFD: "bgp-bfd",
		}[proto]
		f, err := harness.Build(harness.DefaultOptions(e.specs[0], proto, e.seed))
		if err != nil {
			return err
		}
		var c capture.Capture
		c.TapAll(f.Sim)
		f.Start()
		f.Sim.RunFor(harness.WarmupTime)
		if err := f.CheckConverged(); err != nil {
			return err
		}
		if _, err := f.Fail(topology.TC1); err != nil {
			return err
		}
		f.Sim.RunFor(5 * time.Second)

		logPath := filepath.Join(e.out, name+"-logs.txt")
		if err := os.WriteFile(logPath, []byte(metrics.Render(f.Log.Events)), 0o644); err != nil {
			return err
		}
		var pcap bytes.Buffer
		if err := c.WritePCAP(&pcap); err != nil {
			return err
		}
		pcapPath := filepath.Join(e.out, name+"-capture.pcap")
		if err := os.WriteFile(pcapPath, pcap.Bytes(), 0o644); err != nil {
			return err
		}
		emitf("%s: wrote %s (%d log lines) and %s (%d frames)\n",
			proto, logPath, len(f.Log.Events), pcapPath, c.Count())
	}
	return nil
}

func fatalf(format string, args ...any) {
	_, _ = fmt.Fprintf(os.Stderr, "closlab: "+format+"\n", args...) // best effort: exiting anyway
	os.Exit(1)
}

// emitf writes experiment output to stdout and dies if the write fails: the
// printed grids and summaries ARE the artifacts (typically redirected to a
// file), so a short write must not masquerade as a successful run.
func emitf(format string, args ...any) {
	if _, err := fmt.Printf(format, args...); err != nil {
		fatalf("writing output: %v", err)
	}
}

func column(proto harness.Protocol, pods int) string { return fmt.Sprintf("%s %dP", proto, pods) }

func columns(specs []topology.Spec) []string {
	var cols []string
	for _, spec := range specs {
		for _, p := range protocols {
			cols = append(cols, column(p, spec.Pods))
		}
	}
	return cols
}

// failureCells runs the Fig. 4–6 sweep — every (topology, protocol, failure
// case) cell of RunFailure — the first time a figure asks for it.
func (e *env) failureCells() ([]failureCell, error) {
	if e.failures == nil {
		e.failureSweeps++
		var cells []failureCell
		_, err := sweep(e, e.specs, protocols, e.trials, topology.AllFailureCases(),
			harness.RunFailure, harness.SummarizeFailures,
			func(spec topology.Spec, proto harness.Protocol, tc topology.FailureCase, s harness.FailureSummary) {
				cells = append(cells, failureCell{tc.String(), column(proto, spec.Pods), s})
			})
		if err != nil {
			return nil, err
		}
		e.failures = cells
	}
	return e.failures, nil
}

// failureFigure prints one column of the failure sweep as a figure grid.
func failureFigure(title string, value func(harness.FailureSummary) string) func(*env) error {
	return func(e *env) error {
		cells, err := e.failureCells()
		if err != nil {
			return err
		}
		grid := harness.NewGrid(title, columns(e.specs))
		for _, c := range cells {
			grid.Set(c.row, c.col, value(c.summary))
		}
		emitf("%s\n", grid.Render())
		return nil
	}
}

func lossFigure(title string, reverse bool) func(*env) error {
	return func(e *env) error {
		grid := harness.NewGrid(title, columns(e.specs))
		_, err := sweep(e, e.specs, protocols, e.trials, topology.AllFailureCases(),
			func(o harness.Options, tc topology.FailureCase) (trafficgen.Report, error) {
				return harness.RunLoss(o, tc, reverse)
			}, harness.MeanLost,
			func(spec topology.Spec, proto harness.Protocol, tc topology.FailureCase, lost float64) {
				grid.Set(tc.String(), column(proto, spec.Pods), fmt.Sprintf("%.0f", lost))
			})
		if err != nil {
			return err
		}
		emitf("%s\n", grid.Render())
		return nil
	}
}

func keepAlive(e *env) error {
	const window = 10 * time.Second
	_, err := sweep(e, e.specs[:1], protocols, 1, []time.Duration{window},
		harness.RunKeepAlive, single[map[capture.Class]capture.ClassStats],
		func(_ topology.Spec, proto harness.Protocol, _ time.Duration, summary map[capture.Class]capture.ClassStats) {
			emitf("Figs. 9-10 — idle-link capture, %s, %v on L-1-1<->S-1-1:\n", proto, window)
			emitf("%s\n", capture.Render(summary))
			emitf("liveness bytes total: %d\n\n", capture.LivenessBytes(summary))
		})
	return err
}

func nodeFailure(e *env) error {
	emitf("Extended failure cases (paper §IX) — whole-router crash of S-1-1:\n")
	emitf("%-14s %6s %14s %8s %12s\n", "protocol", "pods", "convergence", "blast", "ctl bytes")
	crash := chaos.Fault{Kind: chaos.Down, Nodes: []string{"S-1-1"}}
	_, err := sweep(e, e.specs, protocols, 1, []chaos.Fault{crash},
		harness.RunFault, single[metrics.Analysis],
		func(spec topology.Spec, proto harness.Protocol, _ chaos.Fault, r metrics.Analysis) {
			emitf("%-14s %6d %14v %8d %12d\n", proto, spec.Pods, r.Convergence.Round(100*time.Microsecond), r.BlastRadius, r.ControlBytes)
		})
	emitf("\n")
	return err
}

func flapChurn(e *env) error {
	emitf("Extended failure cases (paper §IX) — TC1 interface flapping 5x (down 500ms, up 4s):\n")
	emitf("%-14s %10s %12s %12s %10s\n", "protocol", "msgs", "ctl bytes", "route evts", "recovered")
	_, err := sweep(e, e.specs[:1], protocols, e.trials, []int{5},
		func(o harness.Options, flaps int) (harness.FlapResult, error) {
			return harness.RunFlap(o, flaps, 500*time.Millisecond, 4*time.Second)
		}, harness.SummarizeFlaps,
		func(_ topology.Spec, proto harness.Protocol, _ int, s harness.FlapSummary) {
			emitf("%-14s %10.0f %12.0f %12.0f %10v\n", proto, s.ControlMsgs, s.ControlBytes, s.RouteEvents, s.Recovered)
		})
	emitf("\n")
	return err
}

func configComparison(e *env) error {
	for _, spec := range e.specs {
		topo, err := topology.Build(spec)
		if err != nil {
			return err
		}
		cs, err := topo.MeasureConfigs(true)
		if err != nil {
			return err
		}
		emitf("Listings 1-2 — configuration burden, %d-PoD (%d routers):\n", spec.Pods, cs.Routers)
		emitf("  BGP/BFD per-router configs: %6d bytes, %4d lines total\n", cs.BGPBytes, cs.BGPLines)
		emitf("  MR-MTP fabric-wide JSON:    %6d bytes, %4d lines\n\n", cs.MRMTPBytes, cs.MRMTPLines)
	}
	return nil
}
