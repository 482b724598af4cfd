package main

import (
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"

	"repro/internal/stats"
)

// metricDef names one metric the way BENCHMARK.json does. Bound is the
// share of the baseline's median by which an end-to-end metric may worsen
// before -compare calls it worse; per-layer metrics carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the simulator pays per workload, in host
// terms. Every metric is reported for every workload. The three time metrics
// are in units of the reference kernel (reference.go): seconds on this host
// drift too much between runs to carry a bound.
var endToEnd = []metricDef{
	// Median over repetitions of wall seconds / reference wall seconds.
	{"wall_ref", "ref", "lower", 0.15},
	// The same for user+sys CPU seconds (getrusage): a wall gain bought
	// with the second core shows as cpu_ref not falling.
	{"cpu_ref", "ref", "lower", 0.15},
	// Work units (trials, events, flows: the report's work_unit) per
	// reference kernel: wall_ref in the user's terms.
	{"work_per_ref", "1/ref", "higher", 0.15},
	// MemStats.TotalAlloc delta of one repetition. Exact for a given seed.
	{"alloc_mb", "MB", "lower", 0.06},
	// Process start to first timed repetition, in plain seconds: init plus
	// one untimed repetition. Work moved into one-time caches lands here.
	{"setup_s", "s", "lower", 0.25},
}

// rawTimes are the same repetitions in plain seconds, and the reference
// kernel's own reading. They go in the report for people; nothing is held
// to them.
var rawTimes = []metricDef{
	lower("wall_s", "s"),
	lower("cpu_s", "s"),
	higher("work_per_s", "1/s"),
	lower("ref_s", "s"),
}

func lower(name, unit string) metricDef  { return metricDef{Name: name, Unit: unit, Better: "lower"} }
func higher(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }

// repLayer are the per-layer readings taken from the workload's own traced
// repetition; they differ from workload to workload.
var repLayer = []metricDef{
	lower("trace.overhead_pct", "%"),
	lower("trace.spans", "count"),
	lower("harness.bringup_share", "ratio"),
	lower("workload.run_share", "ratio"),
	lower("simnet.events", "count"),
	lower("workload.packets_sent", "count"),
	lower("workload.retransmits", "count"),
	lower("workload.drops", "count"),
	higher("workload.fluid_flows", "count"),
	lower("workload.peak_concurrent", "count"),
	lower("workload.peak_queue", "count"),
	higher("framepool.returned", "count"),
	lower("runtime.gc_cpu_frac", "ratio"),
	lower("runtime.mallocs", "count"),
	lower("runtime.num_gc", "count"),
	lower("runtime.peak_rss_mb", "MB"),
}

// perLayer is every per-layer metric a -trace run reports: the traced
// repetition's readings, then the layer probes and kernels, which are the
// same on every workload.
func perLayer() []metricDef {
	out := append([]metricDef(nil), repLayer...)
	out = append(out, probeMetrics()...)
	for _, k := range kernels {
		out = append(out, lower(k.name+"_ns"+k.size, "ns"))
		if k.allocs {
			out = append(out, lower(k.name+"_allocs"+k.size, "count"))
		}
	}
	return out
}

// metricValue is one reported number. The end-to-end ones keep their
// samples so -compare can judge spread.
type metricValue struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Better  string    `json:"better"`
	Bound   float64   `json:"bound,omitempty"`
	N       int       `json:"n,omitempty"`
	Min     float64   `json:"min,omitempty"`
	Max     float64   `json:"max,omitempty"`
	Samples []float64 `json:"samples,omitempty"`
}

func summarize(def metricDef, samples []float64) metricValue {
	s := stats.Summarize(samples)
	return metricValue{
		Value: s.P50, Unit: def.Unit, Better: def.Better, Bound: def.Bound,
		N: s.N, Min: s.Min, Max: s.Max, Samples: samples,
	}
}

// workloadReport is one workload's section of the report.
type workloadReport struct {
	Name         string                 `json:"name"`
	Why          string                 `json:"why"`
	WorkUnit     string                 `json:"work_unit"`
	Correct      bool                   `json:"correct"`
	OpsAttempted int                    `json:"ops_attempted"`
	OpsFailed    int                    `json:"ops_failed"`
	Errors       []string               `json:"errors,omitempty"`
	SimDigest    string                 `json:"sim_digest"`
	Work         float64                `json:"work_per_repetition"`
	ChildWallS   []float64              `json:"child_wall_s"`
	Metrics      map[string]metricValue `json:"metrics"`
	Raw          map[string]metricValue `json:"raw_seconds,omitempty"`
}

// host is the provenance block of every report.
type host struct {
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GOARCH     string  `json:"goarch"`
	GitCommit  string  `json:"git_commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Reps       int     `json:"reps"`
	Scale      string  `json:"scale"`
	Trace      bool    `json:"trace"`
}

type report struct {
	Host      host             `json:"host"`
	Workloads []workloadReport `json:"workloads"`
}

// gitCommit finds the commit the binary was built from: the build stamp
// when there is one (go build), else git itself (go run does not stamp). A
// checkout without history reports "unknown".
func gitCommit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

func hostInfo(c config) host {
	return host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		GitCommit:  gitCommit(),
		Seed:       c.seed,
		Seconds:    c.seconds,
		Reps:       c.reps,
		Scale:      c.scale.name,
		Trace:      c.trace,
	}
}
