package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/stats"
)

// Verdicts of -compare, one per (metric, workload).
const (
	verdictSame       = "same"
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

func readReport(path string) (report, error) {
	var r report
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// judge compares one metric's samples under its own bound. A run-to-run
// spread wider than the bound hides a regression of the size the bound is
// meant to catch, so the metric is unresolved rather than the same — unless
// every new sample beats every base sample, which no spread explains away.
func judge(base, cur metricValue) (verdict string, change, spread float64) {
	sign := 1.0 // change > 0 means cur is worse
	if base.Better == "higher" {
		sign = -1
	}
	if base.Value != 0 {
		change = sign * (cur.Value - base.Value) / base.Value
	}
	spread = quartileSpread(base.Samples)
	if s := quartileSpread(cur.Samples); s > spread {
		spread = s
	}
	switch {
	case spread > base.Bound:
		if sign > 0 && cur.Max < base.Min || sign < 0 && cur.Min > base.Max {
			return verdictBetter, change, spread
		}
		return verdictUnresolved, change, spread
	case change > base.Bound:
		return verdictWorse, change, spread
	case -change > spread:
		return verdictBetter, change, spread
	}
	return verdictSame, change, spread
}

// compareReports prints one row per (workload, metric) and reports whether
// anything is worse. Simulated statistics are held to equality: a differing
// sim_digest is worse whatever the timings say.
func compareReports(w io.Writer, basePath, curPath string) (worse bool, err error) {
	base, err := readReport(basePath)
	if err != nil {
		return false, err
	}
	cur, err := readReport(curPath)
	if err != nil {
		return false, err
	}
	curByName := make(map[string]workloadReport)
	for _, wr := range cur.Workloads {
		curByName[wr.Name] = wr
	}
	fmt.Fprintf(w, "%-18s %-12s %14s %14s %8s %8s %7s  %s\n",
		"workload", "metric", "base", "new", "change", "spread", "bound", "verdict")
	for _, bw := range base.Workloads {
		cw, ok := curByName[bw.Name]
		if !ok {
			fmt.Fprintf(w, "%-18s missing from %s\n", bw.Name, curPath)
			worse = true
			continue
		}
		if bw.SimDigest != cw.SimDigest && base.Host.Seed == cur.Host.Seed {
			fmt.Fprintf(w, "%-18s %-12s %14.12s %14.12s %33s\n", bw.Name, "sim_digest", bw.SimDigest, cw.SimDigest, verdictWorse)
			worse = true
		}
		if cw.OpsFailed > bw.OpsFailed {
			fmt.Fprintf(w, "%-18s %-12s %14d %14d %33s\n", bw.Name, "ops_failed", bw.OpsFailed, cw.OpsFailed, verdictWorse)
			worse = true
		}
		for _, def := range endToEnd {
			bm, bok := bw.Metrics[def.Name]
			cm, cok := cw.Metrics[def.Name]
			if !bok || !cok {
				continue // a -trace report carries no end-to-end metrics
			}
			verdict, change, spread := judge(bm, cm)
			fmt.Fprintf(w, "%-18s %-12s %14.6g %14.6g %+7.1f%% %7.1f%% %6.0f%%  %s\n",
				bw.Name, def.Name, bm.Value, cm.Value, 100*change, 100*spread, 100*bm.Bound, verdict)
			worse = worse || verdict == verdictWorse
		}
	}
	return worse, nil
}

// quartileSpread is the interquartile range as a share of the median: the
// run-to-run spread -compare weighs a difference against.
func quartileSpread(xs []float64) float64 {
	med := stats.Percentile(xs, 50)
	if med == 0 {
		return 0
	}
	return (stats.Percentile(xs, 75) - stats.Percentile(xs, 25)) / med
}
