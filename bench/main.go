// Command bench is the simulator's benchmark of record: four workloads,
// five end-to-end metrics each, and a -trace pass of per-layer probes.
// README.md in this directory says what is measured and why; BENCHMARK.json
// at the repository root names the same metrics for the PR driver.
//
//	go run ./bench                         # all four workloads
//	go run ./bench -workload packet-fct -seed 7 -seconds 10
//	go run ./bench -workload fabric-scale -trace 1
//	go run ./bench -compare a.json b.json
//	go run ./bench -update-golden
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"syscall"
	"time"

	"repro/internal/harness"
)

// children is how many fresh processes measure one workload. Each pays the
// whole set-up, so setup_s is a median of this many samples, and a process
// that landed on a bad heap layout cannot own the wall_s median either.
const children = 3

// minReps is the fewest timed repetitions a child runs however short
// -seconds is.
const minReps = 2

// The driver kills a run at 180 s, and a shared host can stall for tens of
// seconds. A child that is already this late stops after the repetition it
// is in, and the parent starts no further child past its own mark: fewer
// samples beat no result.
const (
	childLate  = 45 * time.Second
	parentLate = 100 * time.Second
)

type config struct {
	workload string
	seed     int64
	seconds  float64 // measuring time of one whole run, shared by the children
	reps     int     // timed repetitions per child; 0 means fill -seconds
	trace    bool
	scale    scale
	out      string
}

func main() {
	var c config
	var traceN int
	var scaleName string
	var child, compare, updateGolden bool
	flag.StringVar(&c.workload, "workload", "all", "workload to run: all, or one of the four names in README.md")
	flag.Int64Var(&c.seed, "seed", 1, "seed every input is generated from; seed 1 at -scale full is checked against golden.json")
	flag.Float64Var(&c.seconds, "seconds", 10, "seconds of timed repetitions per workload")
	flag.IntVar(&c.reps, "reps", 0, "timed repetitions per child process instead of filling -seconds (0 = fill -seconds)")
	flag.IntVar(&traceN, "trace", 0, "1 = record spans and report the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&scaleName, "scale", "full", "workload sizes: full (the benchmark of record) or tiny (smoke test)")
	flag.StringVar(&c.out, "out", filepath.Join("bench", "out", "report.json"), "where to write the report; trace.json lands beside it")
	flag.BoolVar(&compare, "compare", false, "compare two reports: -compare base.json new.json; exit 1 if any metric is worse")
	flag.BoolVar(&updateGolden, "update-golden", false, "regenerate bench/golden.json for this GOARCH from seed 1")
	flag.BoolVar(&child, "child", false, "internal: run one workload in this process and print its raw result")
	flag.Parse()
	c.trace = traceN != 0

	sc, err := scaleByName(scaleName)
	if err != nil {
		fatal(err)
	}
	c.scale = sc

	switch {
	case compare:
		if flag.NArg() != 2 {
			fatal(errors.New("usage: -compare base.json new.json"))
		}
		worse, err := compareReports(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
	case child:
		res, err := runChild(c)
		if err != nil {
			fatal(err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fatal(err)
		}
	case updateGolden:
		if err := writeGolden(c); err != nil {
			fatal(err)
		}
	default:
		ok, err := runParent(c)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// --- child: one process, one workload ---------------------------------------

// repSample is the host cost of one repetition.
type repSample struct {
	WallS   float64 `json:"wall_s"`
	CPUS    float64 `json:"cpu_s"`
	RefS    float64 `json:"ref_s"`     // reference kernel wall, mean of the readings either side
	RefCPUS float64 `json:"ref_cpu_s"` // and its CPU seconds
	AllocMB float64 `json:"alloc_mb"`
	GCCPUS  float64 `json:"gc_cpu_s"`
	Mallocs uint64  `json:"mallocs"`
	NumGC   uint32  `json:"num_gc"`
}

// childResult is what a child prints for its parent.
type childResult struct {
	Workload  string             `json:"workload"`
	SetupS    float64            `json:"setup_s"`
	WallS     float64            `json:"process_wall_s"`
	Reps      []repSample        `json:"reps"`
	Work      float64            `json:"work"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Digest    string             `json:"digest"`
	Fields    []field            `json:"fields"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	Spans     []span             `json:"spans,omitempty"`
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads the process's high-water resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// measure runs one repetition with the host meters around it. The collector
// runs first, outside the clock, so every repetition starts from the same
// heap whatever the previous one left behind.
func measure(w workloadDef, c config, tr *tracer) (repSample, repResult) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0, cpu0, t0 := gcCPUSeconds(), cpuSeconds(), now()
	end := tr.span("bench.repetition", w.name)
	r := w.run(c.scale, c.seed, tr)
	end()
	wall := since(t0).Seconds()
	cpu1, gc1 := cpuSeconds(), gcCPUSeconds()
	runtime.ReadMemStats(&m1)
	return repSample{
		WallS:   wall,
		CPUS:    cpu1 - cpu0,
		AllocMB: float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6,
		GCCPUS:  gc1 - gc0,
		Mallocs: m1.Mallocs - m0.Mallocs,
		NumGC:   m1.NumGC - m0.NumGC,
	}, r
}

// runChild sets up (one untimed repetition), then measures repetitions. With
// c.trace it measures one untraced and one traced repetition and then runs
// the layer probes.
func runChild(c config) (childResult, error) {
	w, ok := workloadByName(c.workload)
	if !ok {
		return childResult{}, fmt.Errorf("unknown workload %q", c.workload)
	}
	// One simulation goroutine plus the collector is the whole load: trial
	// pools would measure the host's core count, not the simulator.
	harness.Workers = 1

	first := w.run(c.scale, c.seed, nil)
	res := childResult{
		Workload:  w.name,
		SetupS:    since(processStart).Seconds(),
		Work:      first.work,
		Attempted: first.attempted,
		Failed:    first.failed,
		Errors:    first.errs,
		Digest:    digest(first.fields),
		Fields:    first.fields,
	}
	diverged := false
	account := func(r repResult) {
		res.Attempted += r.attempted
		res.Failed += r.failed
		res.Errors = append(res.Errors, r.errs...)
		if digest(r.fields) != res.Digest && !diverged {
			diverged = true
			res.Errors = append(res.Errors, "repetitions of one seed disagree: "+firstDiff(first.fields, r.fields))
		}
	}

	if !c.trace {
		start := now()
		enough := func(done int) bool {
			if c.reps > 0 {
				return done >= c.reps
			}
			return done >= minReps && since(start).Seconds() >= c.seconds
		}
		before := reference(c.scale.refOps)
		for i := 0; !enough(i); i++ {
			if i > 0 && since(processStart) > childLate {
				break
			}
			s, r := measure(w, c, nil)
			after := reference(c.scale.refOps)
			ref := before.mean(after)
			s.RefS, s.RefCPUS = ref.wallS, ref.cpuS
			before = after
			res.Reps = append(res.Reps, s)
			account(r)
		}
	} else {
		plain, r := measure(w, c, nil)
		account(r)
		tr := &tracer{workload: w.name}
		traced, r := measure(w, c, tr)
		account(r)
		res.Spans = tr.spans
		var err error
		if res.Layers, err = traceLayers(c, plain, traced, r, tr.spans); err != nil {
			return res, err
		}
	}

	if diverged {
		res.Failed = res.Attempted
	}
	checkGolden(c, &res)
	res.WallS = since(processStart).Seconds()
	return res, nil
}

// traceLayers assembles every per-layer metric: the traced repetition's own
// readings, then the probes and kernels.
func traceLayers(c config, plain, traced repSample, r repResult, spans []span) (map[string]float64, error) {
	rss := peakRSSMB() // the workload's own, before the probes grow the heap
	table, err := bringUpTable(c.seed)
	if err != nil {
		return nil, err
	}
	m, err := runProbes(c.scale, c.seed, table)
	if err != nil {
		return nil, err
	}

	// Bring-up the repetition paid inside calls that do not expose it is
	// priced from the table; fabric-scale's own is measured directly.
	bringup, legBringup := r.bringupS, 0.0
	for _, b := range r.bringups {
		s := float64(b.n) * table[bringupKey{b.pods, b.proto}]
		bringup += s
		if b.inWorkload {
			legBringup += s
		}
	}
	m["harness.bringup_share"] = bringup / traced.WallS
	m["workload.run_share"] = (r.runWorkloadS - legBringup) / traced.WallS
	m["trace.overhead_pct"] = 100 * (traced.WallS - plain.WallS) / plain.WallS
	m["trace.spans"] = float64(len(spans))
	for _, name := range []string{
		"simnet.events", "workload.packets_sent", "workload.retransmits", "workload.drops",
		"workload.fluid_flows", "workload.peak_concurrent", "workload.peak_queue", "framepool.returned",
	} {
		m[name] = r.counts[name]
	}
	m["runtime.gc_cpu_frac"] = plain.GCCPUS / plain.CPUS
	m["runtime.mallocs"] = float64(plain.Mallocs)
	m["runtime.num_gc"] = float64(plain.NumGC)
	m["runtime.peak_rss_mb"] = rss
	return m, nil
}

// --- parent: children, report, the driver's result line ---------------------

// spawn runs one child and decodes its result.
func spawn(c config, seconds float64) (childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return childResult{}, err
	}
	trace := "0"
	if c.trace {
		trace = "1"
	}
	cmd := exec.Command(exe, "-child",
		"-workload", c.workload,
		"-seed", strconv.FormatInt(c.seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-reps", strconv.Itoa(c.reps),
		"-trace", trace,
		"-scale", c.scale.name)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return childResult{}, fmt.Errorf("%s child: %w", c.workload, err)
	}
	var res childResult
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return childResult{}, fmt.Errorf("%s child output: %w", c.workload, err)
	}
	return res, nil
}

// runWorkload measures one workload in fresh child processes.
func runWorkload(c config) (workloadReport, []span, error) {
	n := children
	if c.trace {
		n = 1
	}
	var results []childResult
	for i := 0; i < n; i++ {
		if i > 0 && since(processStart) > parentLate {
			break
		}
		res, err := spawn(c, c.seconds/float64(n))
		if err != nil {
			return workloadReport{}, nil, err
		}
		results = append(results, res)
	}
	return fold(c, results)
}

// fold turns the children's raw results into one workload's report section:
// medians over every repetition of every child, failures summed.
func fold(c config, results []childResult) (workloadReport, []span, error) {
	w, _ := workloadByName(c.workload)
	wr := workloadReport{
		Name: w.name, Why: w.why, WorkUnit: w.unit,
		SimDigest: results[0].Digest, Work: results[0].Work,
		Metrics: make(map[string]metricValue),
	}
	samples := make(map[string][]float64)
	var spans []span
	diverged := false
	for _, res := range results {
		wr.OpsAttempted += res.Attempted
		wr.OpsFailed += res.Failed
		wr.Errors = append(wr.Errors, res.Errors...)
		wr.ChildWallS = append(wr.ChildWallS, res.WallS)
		if res.Digest != wr.SimDigest && !diverged {
			diverged = true
			wr.Errors = append(wr.Errors, "processes of one seed disagree: "+firstDiff(results[0].Fields, res.Fields))
		}
		samples["setup_s"] = append(samples["setup_s"], res.SetupS)
		for _, r := range res.Reps {
			samples["wall_ref"] = append(samples["wall_ref"], r.WallS/r.RefS)
			samples["cpu_ref"] = append(samples["cpu_ref"], r.CPUS/r.RefCPUS)
			samples["work_per_ref"] = append(samples["work_per_ref"], res.Work*r.RefS/r.WallS)
			samples["alloc_mb"] = append(samples["alloc_mb"], r.AllocMB)
			samples["wall_s"] = append(samples["wall_s"], r.WallS)
			samples["cpu_s"] = append(samples["cpu_s"], r.CPUS)
			samples["work_per_s"] = append(samples["work_per_s"], res.Work/r.WallS)
			samples["ref_s"] = append(samples["ref_s"], r.RefS)
		}
		spans = append(spans, res.Spans...)
	}
	if diverged {
		wr.OpsFailed = wr.OpsAttempted
	}
	wr.Correct = wr.OpsFailed == 0

	if c.trace {
		for _, def := range perLayer() {
			v, ok := results[0].Layers[def.Name]
			if !ok {
				return wr, nil, fmt.Errorf("%s: per-layer metric %s was not measured", w.name, def.Name)
			}
			wr.Metrics[def.Name] = metricValue{Value: v, Unit: def.Unit, Better: def.Better}
		}
	} else {
		for _, def := range endToEnd {
			wr.Metrics[def.Name] = summarize(def, samples[def.Name])
		}
		wr.Raw = make(map[string]metricValue)
		for _, def := range rawTimes {
			wr.Raw[def.Name] = summarize(def, samples[def.Name])
		}
	}
	return wr, spans, nil
}

// driverLine is the last line of standard output: the PR driver's contract.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func runParent(c config) (bool, error) {
	names := []string{c.workload}
	if c.workload == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	} else if _, ok := workloadByName(c.workload); !ok {
		return false, fmt.Errorf("unknown workload %q", c.workload)
	}

	rep := report{Host: hostInfo(c)}
	line := driverLine{Correct: true, Metrics: make(map[string]driverValue)}
	var spans []span
	for _, name := range names {
		wc := c
		wc.workload = name
		wr, sp, err := runWorkload(wc)
		if err != nil {
			return false, err
		}
		rep.Workloads = append(rep.Workloads, wr)
		base := len(spans) // each child numbers its spans from 0
		for _, s := range sp {
			s.ID += base
			if s.Parent >= 0 {
				s.Parent += base
			}
			spans = append(spans, s)
		}
		line.Correct = line.Correct && wr.Correct
		line.Attempted += wr.OpsAttempted
		line.Failed += wr.OpsFailed
		for key, mv := range wr.Metrics {
			if len(names) > 1 {
				key += "." + name
			}
			line.Metrics[key] = driverValue{mv.Value, mv.Unit}
		}
		for _, e := range wr.Errors {
			fmt.Fprintf(os.Stderr, "bench: %s: %s\n", name, e)
		}
	}

	pretty, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return false, err
	}
	if err := os.MkdirAll(filepath.Dir(c.out), 0o755); err != nil {
		return false, err
	}
	if err := os.WriteFile(c.out, append(pretty, '\n'), 0o644); err != nil {
		return false, err
	}
	if c.trace {
		data, err := json.Marshal(traceFile{Spans: spans, SelfS: selfSeconds(spans)})
		if err != nil {
			return false, err
		}
		if err := os.WriteFile(filepath.Join(filepath.Dir(c.out), "trace.json"), append(data, '\n'), 0o644); err != nil {
			return false, err
		}
	}
	last, err := json.Marshal(line)
	if err != nil {
		return false, err
	}
	fmt.Printf("%s\n%s\n", pretty, last)
	return line.Correct, nil
}
