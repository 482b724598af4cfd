// Command closlab reruns the paper's experiments and prints each figure's
// data as a grid (rows: failure cases TC1–TC4; columns: protocol
// configurations), for the 2-PoD and 4-PoD topologies.
//
// Usage:
//
//	closlab -experiment convergence            # Fig. 4 (ms)
//	closlab -experiment blastradius            # Fig. 5 (routers)
//	closlab -experiment overhead               # Fig. 6 (bytes)
//	closlab -experiment loss-near              # Fig. 7 (packets)
//	closlab -experiment loss-far               # Fig. 8 (packets)
//	closlab -experiment keepalive              # Figs. 9-10 (capture summary)
//	closlab -experiment config                 # Listings 1-2 comparison
//	closlab -experiment workload               # FCT + load balance under load
//	closlab -experiment chaos                  # fault-injection campaigns
//	closlab -experiment trace                  # path tracing + gray-failure localization
//	closlab -experiment bench-fluid            # flow-level engine throughput
//	closlab -experiment all                    # everything (virtual-time figures)
//
// Flags -trials and -seed control averaging, -pods restricts the topology,
// and -parallel bounds how many trials run concurrently (the figures do not
// depend on it: trial seeds derive from trial indices). -engine switches
// the workload experiment between the packet engine, the analytic fluid
// model, and the hybrid split (-engine hybrid -flows 1000000 is the
// million-flow configuration); -flows overrides the flow count.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/internal/capture"
	"repro/internal/harness"
	"repro/internal/routerlog"
	"repro/internal/topology"
	"repro/internal/workload"
)

var protocols = []harness.Protocol{harness.ProtoMRMTP, harness.ProtoBGP, harness.ProtoBGPBFD}

func main() {
	trials := flag.Int("trials", 3, "trials to average per data point")
	seed := flag.Int64("seed", 1, "base random seed")
	pods := flag.Int("pods", 0, "restrict to one topology size (2 or 4); 0 = both")
	out := flag.String("out", "closlab-artifacts", "output directory for -experiment artifacts")
	parallel := flag.Int("parallel", harness.Workers,
		"concurrent trials per data point (1 = sequential; results are identical either way)")
	benchOut := flag.String("bench-out", "", "output file for -experiment bench-fluid (default BENCH_fluid.json)")
	engine := flag.String("engine", "packet", "workload flow transport: packet|fluid|hybrid")
	flows := flag.Int("flows", 0, "override the workload flow count (0 = the published 160)")

	// The experiment registry. Declared before the -experiment flag so its
	// usage string (and the unknown-value error) enumerates the registered
	// names — adding an experiment here is the whole wiring job, with no
	// hand-maintained list to fall out of date.
	experiments := []struct {
		name string
		fn   func([]topology.Spec, int, int64) error
	}{
		{"convergence", convergence},
		{"blastradius", blastRadius},
		{"overhead", overhead},
		{"loss-near", func(s []topology.Spec, n int, seed int64) error { return loss(s, n, seed, false) }},
		{"loss-far", func(s []topology.Spec, n int, seed int64) error { return loss(s, n, seed, true) }},
		{"keepalive", keepAlive},
		{"config", configComparison},
		{"nodefail", nodeFailure},
		{"flap", flapChurn},
		{"workload", func(s []topology.Spec, n int, seed int64) error {
			mode, _ := workload.ModeByName(*engine)
			return workloadExperiment(s, n, seed, *out, mode, *flows)
		}},
		{"chaos", func(s []topology.Spec, n int, seed int64) error {
			return chaosExperiment(s, n, seed, *out)
		}},
		{"trace", func(s []topology.Spec, n int, seed int64) error {
			return traceExperiment(s, n, seed, *out)
		}},
	}
	known := make([]string, 0, len(experiments)+3)
	for _, e := range experiments {
		known = append(known, e.name)
	}
	known = append(known, "bench-fluid", "artifacts", "all")
	experiment := flag.String("experiment", "all", strings.Join(known, "|"))

	flag.Parse()

	// Reject contradictory flag combinations with usage before anything
	// runs: a flag that silently does nothing for the chosen experiment is
	// worse than an error, because the artifacts look valid.
	set := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := validateFlags(set, *experiment, *engine, *trials, *parallel, *flows); err != nil {
		_, _ = fmt.Fprintf(os.Stderr, "closlab: %v\n\n", err) // best effort: exiting anyway
		flag.Usage()
		os.Exit(2)
	}
	harness.Workers = *parallel

	var specs []topology.Spec
	switch *pods {
	case 0:
		specs = []topology.Spec{topology.TwoPodSpec(), topology.FourPodSpec()}
	case 2:
		specs = []topology.Spec{topology.TwoPodSpec()}
	case 4:
		specs = []topology.Spec{topology.FourPodSpec()}
	default:
		fatalf("unsupported -pods %d (want 2 or 4)", *pods)
	}

	// bench-fluid is opt-in only (it measures wall time, so "all" — which
	// exists to regenerate the paper's virtual-time figures — skips it).
	if *experiment == "bench-fluid" {
		path := *benchOut
		if path == "" {
			path = "BENCH_fluid.json"
		}
		if err := benchFluid(specs[0], *seed, path); err != nil {
			fatalf("bench-fluid: %v", err)
		}
		return
	}

	// Reject a bad (or empty) -experiment before anything runs: a typo must
	// exit non-zero naming every registered experiment, not masquerade as a
	// successful empty run.
	if !slices.Contains(known, *experiment) {
		fatalf("unknown -experiment %q (want one of: %s)", *experiment, strings.Join(known, "|"))
	}

	for _, e := range experiments {
		if *experiment != "all" && *experiment != e.name {
			continue
		}
		if err := e.fn(specs, *trials, *seed); err != nil {
			fatalf("%s: %v", e.name, err)
		}
	}
	if *experiment == "artifacts" {
		if err := artifacts(specs[0], *seed, *out); err != nil {
			fatalf("artifacts: %v", err)
		}
	}
}

// validateFlags rejects flag combinations that would silently misbehave.
// set holds the flags explicitly passed on the command line, so defaults
// never trip a check.
func validateFlags(set map[string]bool, experiment, engine string, trials, parallel, flows int) error {
	if trials < 1 {
		return fmt.Errorf("-trials %d: need at least one trial", trials)
	}
	if parallel < 1 {
		return fmt.Errorf("-parallel %d: need at least one worker", parallel)
	}
	if flows < 0 {
		return fmt.Errorf("-flows %d: a flow count cannot be negative", flows)
	}
	if _, ok := workload.ModeByName(engine); !ok {
		return fmt.Errorf("-engine %q: want packet, fluid or hybrid", engine)
	}
	if set["engine"] && experiment != "workload" {
		return fmt.Errorf("-engine only applies to -experiment workload (got %q); bench-fluid runs both engines itself", experiment)
	}
	if set["flows"] && experiment != "workload" {
		return fmt.Errorf("-flows only applies to -experiment workload (got %q)", experiment)
	}
	if set["bench-out"] && experiment != "bench-fluid" {
		return fmt.Errorf("-bench-out only applies to -experiment bench-fluid (got %q)", experiment)
	}
	return nil
}

// artifacts runs a TC1 failure per protocol and writes the raw testbed
// artifacts a FABRIC user would collect: per-router text logs (§VI.B) and
// a Wireshark-compatible pcap of every link.
func artifacts(spec topology.Spec, seed int64, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, proto := range protocols {
		name := map[harness.Protocol]string{
			harness.ProtoMRMTP:  "mrmtp",
			harness.ProtoBGP:    "bgp",
			harness.ProtoBGPBFD: "bgp-bfd",
		}[proto]
		journal := &routerlog.Journal{}
		opts := harness.DefaultOptions(spec, proto, seed)
		opts.Journal = journal
		f, err := harness.Build(opts)
		if err != nil {
			return err
		}
		var rec capture.Recorder
		rec.TapAll(f.Sim)
		if err := f.WarmUp(harness.WarmupTime); err != nil {
			return err
		}
		if _, err := f.Fail(topology.TC1); err != nil {
			return err
		}
		f.Sim.RunFor(5 * time.Second)

		logPath := filepath.Join(dir, name+"-logs.txt")
		if err := os.WriteFile(logPath, []byte(journal.Render()), 0o644); err != nil {
			return err
		}
		pcapPath := filepath.Join(dir, name+"-capture.pcap")
		w, err := os.Create(pcapPath)
		if err != nil {
			return err
		}
		if err := rec.WritePCAP(w); err != nil {
			_ = w.Close() // the WritePCAP failure is the error worth returning
			return err
		}
		if err := w.Close(); err != nil {
			return err
		}
		emitf("%s: wrote %s (%d log lines) and %s (%d frames)\n",
			proto, logPath, len(journal.Lines), pcapPath, rec.Count())
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

func columns(specs []topology.Spec) []string {
	var cols []string
	for _, spec := range specs {
		for _, p := range protocols {
			cols = append(cols, fmt.Sprintf("%s %dP", p, spec.Pods))
		}
	}
	return cols
}

func failureGrid(title string, specs []topology.Spec, trials int, seed int64,
	cell func(harness.FailureSummary) string) error {
	grid := harness.NewGrid(title, columns(specs))
	for _, spec := range specs {
		for _, proto := range protocols {
			col := fmt.Sprintf("%s %dP", proto, spec.Pods)
			for _, tc := range topology.AllFailureCases() {
				s, err := harness.RunFailureTrials(harness.DefaultOptions(spec, proto, seed), tc, trials)
				if err != nil {
					return err
				}
				grid.Set(tc.String(), col, cell(s))
			}
		}
	}
	emitf("%s\n", grid.Render())
	return nil
}

func convergence(specs []topology.Spec, trials int, seed int64) error {
	return failureGrid("Fig. 4 — network convergence time (ms)", specs, trials, seed,
		func(s harness.FailureSummary) string {
			return fmt.Sprintf("%.1f", float64(s.Convergence)/float64(time.Millisecond))
		})
}

func blastRadius(specs []topology.Spec, trials int, seed int64) error {
	return failureGrid("Fig. 5 — blast radius (routers updating tables)", specs, trials, seed,
		func(s harness.FailureSummary) string { return fmt.Sprintf("%.0f", s.BlastRadius) })
}

func overhead(specs []topology.Spec, trials int, seed int64) error {
	return failureGrid("Fig. 6 — control overhead after failure (layer-2 bytes)", specs, trials, seed,
		func(s harness.FailureSummary) string { return fmt.Sprintf("%.0f", s.ControlBytes) })
}

func loss(specs []topology.Spec, trials int, seed int64, reverse bool) error {
	title := "Fig. 7 — packets lost, sender near failure (ToR 11 -> ToR 14)"
	if reverse {
		title = "Fig. 8 — packets lost, sender far from failure (ToR 14 -> ToR 11)"
	}
	grid := harness.NewGrid(title, columns(specs))
	for _, spec := range specs {
		for _, proto := range protocols {
			col := fmt.Sprintf("%s %dP", proto, spec.Pods)
			for _, tc := range topology.AllFailureCases() {
				avg, err := harness.RunLossTrials(harness.DefaultOptions(spec, proto, seed), tc, reverse, trials)
				if err != nil {
					return err
				}
				grid.Set(tc.String(), col, fmt.Sprintf("%.0f", avg))
			}
		}
	}
	emitf("%s\n", grid.Render())
	return nil
}

func keepAlive(specs []topology.Spec, _ int, seed int64) error {
	window := 10 * time.Second
	for _, proto := range protocols {
		r, err := harness.RunKeepAlive(harness.DefaultOptions(specs[0], proto, seed), window)
		if err != nil {
			return err
		}
		emitf("Figs. 9-10 — idle-link capture, %s, %v on L-1-1<->S-1-1:\n", proto, window)
		emitf("%s\n", capture.Render(r.Summary))
		emitf("liveness bytes total: %d\n\n", r.TotalKeepAliveBytes())
	}
	return nil
}

func nodeFailure(specs []topology.Spec, _ int, seed int64) error {
	emitf("Extended failure cases (paper §IX) — whole-router crash of S-1-1:\n")
	emitf("%-14s %6s %14s %8s %12s\n", "protocol", "pods", "convergence", "blast", "ctl bytes")
	for _, spec := range specs {
		for _, proto := range protocols {
			r, err := harness.RunNodeFailure(harness.DefaultOptions(spec, proto, seed), "S-1-1")
			if err != nil {
				return err
			}
			emitf("%-14s %6d %14v %8d %12d\n", proto, spec.Pods, r.Convergence.Round(100*time.Microsecond), r.BlastRadius, r.ControlBytes)
		}
	}
	emitf("\n")
	return nil
}

func flapChurn(specs []topology.Spec, trials int, seed int64) error {
	emitf("Extended failure cases (paper §IX) — TC1 interface flapping 5x (down 500ms, up 4s):\n")
	emitf("%-14s %10s %12s %12s %10s\n", "protocol", "msgs", "ctl bytes", "route evts", "recovered")
	for _, proto := range protocols {
		s, err := harness.RunFlapTrials(harness.DefaultOptions(specs[0], proto, seed), 5, 500*time.Millisecond, 4*time.Second, trials)
		if err != nil {
			return err
		}
		emitf("%-14s %10.0f %12.0f %12.0f %10v\n", proto, s.ControlMsgs, s.ControlBytes, s.RouteEvents, s.Recovered)
	}
	emitf("\n")
	return nil
}

func configComparison(specs []topology.Spec, _ int, _ int64) error {
	for _, spec := range specs {
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
