package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

func tinyConfig(t *testing.T, workload string) config {
	t.Helper()
	sc, err := scaleByName("tiny")
	if err != nil {
		t.Fatal(err)
	}
	return config{workload: workload, seed: 7, reps: 1, scale: sc}
}

// TestWorkloadsTiny drives every workload end to end at the smoke-test
// scale: the set-up repetition plus one timed one, no failed operation, and
// one digest across both.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloads {
		c := tinyConfig(t, w.name)
		res, err := runChild(c)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.Failed != 0 || len(res.Errors) != 0 {
			t.Errorf("%s: %d of %d ops failed: %v", w.name, res.Failed, res.Attempted, res.Errors)
		}
		if len(res.Reps) != 1 || res.Attempted == 0 || res.Work <= 0 || res.SetupS <= 0 {
			t.Errorf("%s: reps=%d attempted=%d work=%g setup=%g", w.name, len(res.Reps), res.Attempted, res.Work, res.SetupS)
		}
		if res.Digest != digest(res.Fields) || len(res.Fields) == 0 {
			t.Errorf("%s: digest does not cover the reported fields", w.name)
		}

		wr, _, err := fold(c, []childResult{res, res})
		if err != nil {
			t.Fatal(err)
		}
		if !wr.Correct || wr.OpsAttempted != 2*res.Attempted {
			t.Errorf("%s: folded report correct=%v attempted=%d", w.name, wr.Correct, wr.OpsAttempted)
		}
		for _, def := range endToEnd {
			mv, ok := wr.Metrics[def.Name]
			if !ok || mv.Value <= 0 || mv.Unit != def.Unit || mv.Better != def.Better || mv.Bound != def.Bound {
				t.Errorf("%s: end-to-end metric %s = %+v", w.name, def.Name, mv)
			}
		}
		if len(wr.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics reported, want the %d end-to-end ones", w.name, len(wr.Metrics), len(endToEnd))
		}
	}
}

// TestTraceTiny checks that a -trace child measures every per-layer metric
// BENCHMARK.json promises.
func TestTraceTiny(t *testing.T) {
	c := tinyConfig(t, "hybrid-million")
	c.trace = true
	res, err := runChild(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || len(res.Spans) == 0 {
		t.Fatalf("failed=%d spans=%d errors=%v", res.Failed, len(res.Spans), res.Errors)
	}
	wr, spans, err := fold(c, []childResult{res})
	if err != nil {
		t.Fatal(err)
	}
	if len(wr.Metrics) != len(perLayer()) {
		t.Errorf("%d per-layer metrics reported, want %d", len(wr.Metrics), len(perLayer()))
	}
	if wr.Metrics["workload.fluid_flows"].Value <= 0 || wr.Metrics["workload.run_share"].Value <= 0 {
		t.Errorf("hybrid repetition left no trace: %+v", wr.Metrics["workload.fluid_flows"])
	}
	self := selfSeconds(spans)
	if self["harness.RunWorkload"] <= 0 || self["bench.repetition"] < 0 {
		t.Errorf("self times %v", self)
	}
	for _, s := range spans {
		if s.End < s.Start || s.Workload != c.workload || (s.Parent < 0) != (s.Name == "bench.repetition") {
			t.Errorf("malformed span %+v", s)
		}
	}
}

// TestForcedFailure caps every leg's virtual time at 1 ms: no flow can
// finish, and each must be counted failed rather than silently dropped.
func TestForcedFailure(t *testing.T) {
	c := tinyConfig(t, "packet-fct")
	c.scale.maxRun = time.Millisecond
	w, _ := workloadByName(c.workload)
	r := w.run(c.scale, c.seed, nil)
	if r.attempted != 2*c.scale.packetFlows || r.failed == 0 || r.failed > r.attempted || len(r.errs) == 0 {
		t.Fatalf("attempted=%d failed=%d errs=%v", r.attempted, r.failed, r.errs)
	}
	res, err := runChild(c)
	if err != nil {
		t.Fatal(err)
	}
	if wr, _, _ := fold(c, []childResult{res}); wr.Correct || wr.OpsFailed == 0 {
		t.Errorf("failed flows reported as correct: %+v", wr)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSON holds BENCHMARK.json to the program: same workloads,
// same metrics, in the same order, within the driver's limits.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file.Command, []string{"go", "run", "./bench"}) || !reflect.DeepEqual(file.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", file.Command, file.Paths)
	}
	if file.RunSeconds < 1 || file.RunSeconds > 60 {
		t.Errorf("run_seconds %d", file.RunSeconds)
	}
	if len(file.Workloads) != len(workloads) || len(workloads) < 2 || len(workloads) > 8 {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(file.Workloads), len(workloads))
	}
	seen := make(map[string]bool)
	unique := func(name string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("name %q is malformed or used twice", name)
		}
		seen[name] = true
	}
	for i, w := range workloads {
		unique(w.name)
		if file.Workloads[i].Name != w.name || file.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json says %+v, program says %s: %s", i, file.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
	}
	if !reflect.DeepEqual(file.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n file %+v\n prog %+v", file.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(file.PerLayer, perLayer()) {
		t.Errorf("per_layer differs:\n file %+v\n prog %+v", file.PerLayer, perLayer())
	}
	if len(endToEnd) > 16 || len(perLayer()) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the limits", len(endToEnd), len(perLayer()))
	}
	setup := false
	for _, d := range endToEnd {
		unique(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, d := range perLayer() {
		unique(d.Name)
		if d.Bound != 0 || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("per-layer metric %+v", d)
		}
	}
}

// TestGolden checks golden.json against itself and that a moved statistic is
// named, not just detected.
func TestGolden(t *testing.T) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		t.Fatal(err)
	}
	for arch, entries := range g {
		for _, w := range workloads {
			e, ok := entries[w.name]
			if !ok || e.Digest != digest(e.Fields) {
				t.Errorf("golden.json %s/%s: missing or digest does not match its fields", arch, w.name)
			}
		}
	}
	want, ok := g[runtime.GOARCH]["packet-fct"]
	if !ok {
		t.Skipf("no golden entry for %s", runtime.GOARCH)
	}
	sc, _ := scaleByName("full")
	res := childResult{Workload: "packet-fct", Attempted: 10, Fields: append([]field(nil), want.Fields...)}
	res.Fields[3].Value++
	res.Digest = digest(res.Fields)
	checkGolden(config{seed: goldenSeed, scale: sc}, &res)
	if res.Failed != res.Attempted || len(res.Errors) != 1 || !strings.Contains(res.Errors[0], want.Fields[3].Name) {
		t.Errorf("failed=%d errors=%v, want all ops failed naming %s", res.Failed, res.Errors, want.Fields[3].Name)
	}
}

func TestJudge(t *testing.T) {
	mv := func(better string, xs ...float64) metricValue {
		return summarize(metricDef{Name: "m", Unit: "s", Better: better, Bound: 0.10}, xs)
	}
	cases := []struct {
		name      string
		base, cur metricValue
		want      string
	}{
		{"same", mv("lower", 1.00, 1.01, 1.02, 1.03), mv("lower", 1.01, 1.02, 1.03, 1.04), verdictSame},
		{"worse", mv("lower", 1.00, 1.01, 1.02, 1.03), mv("lower", 1.20, 1.21, 1.22, 1.23), verdictWorse},
		{"worse-higher", mv("higher", 100, 101, 102, 103), mv("higher", 80, 81, 82, 83), verdictWorse},
		{"better", mv("lower", 1.00, 1.01, 1.02, 1.03), mv("lower", 0.80, 0.81, 0.82, 0.83), verdictBetter},
		{"unresolved", mv("lower", 1.0, 1.3, 0.8, 1.2), mv("lower", 1.1, 0.9, 1.4, 1.0), verdictUnresolved},
		{"noisy-but-disjoint", mv("lower", 1.0, 1.3, 1.1, 1.2), mv("lower", 0.5, 0.7, 0.6, 0.8), verdictBetter},
	}
	for _, tc := range cases {
		if got, change, spread := judge(tc.base, tc.cur); got != tc.want {
			t.Errorf("%s: verdict %s (change %+.3f, spread %.3f), want %s", tc.name, got, change, spread, tc.want)
		}
	}
}
