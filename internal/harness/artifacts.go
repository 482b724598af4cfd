package harness

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/chaos"
)

// This file owns every experiment output format: the figure grids and text
// blocks closlab prints, and the CSV and JSON artifacts it writes. The
// renderers live beside the result types (rather than in cmd/closlab) so the
// byte-identity tests — same seed, byte-identical artifacts — run against the
// exact bytes the CLI writes. JSON schemas are the json tags on the
// *Summary types. Writes to a strings.Builder cannot fail; the blank
// assignments below make the discarded results explicit rather than
// accidental.

// Grid renders experiment values as the paper's figure grids: one row per
// test case, one column per protocol configuration.
type Grid struct {
	Title   string
	Columns []string
	Rows    map[string]map[string]string // row -> column -> value
	order   []string
}

// NewGrid creates a grid with the protocol columns.
func NewGrid(title string, columns []string) *Grid {
	return &Grid{Title: title, Columns: columns, Rows: make(map[string]map[string]string)}
}

// Set stores a cell.
func (g *Grid) Set(row, col, value string) {
	if g.Rows[row] == nil {
		g.Rows[row] = make(map[string]string)
		g.order = append(g.order, row)
	}
	g.Rows[row][col] = value
}

// Render prints the grid.
func (g *Grid) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", g.Title)
	fmt.Fprintf(&b, "%-8s", "case")
	for _, c := range g.Columns {
		fmt.Fprintf(&b, " %16s", c)
	}
	b.WriteByte('\n')
	rows := append([]string(nil), g.order...)
	sort.Strings(rows)
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s", r)
		for _, c := range g.Columns {
			fmt.Fprintf(&b, " %16s", g.Rows[r][c])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// RenderSummaryJSON renders every cell's summary as indented JSON.
func RenderSummaryJSON[S, R any](cells []Cell[S, R]) ([]byte, error) {
	var out []S
	for _, c := range cells {
		out = append(out, c.Summary)
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// RenderWorkload formats a summary as the experiment's text block.
func RenderWorkload(s WorkloadSummary) string {
	out := fmt.Sprintf("%s %dP %s: completed %d/%d (%.1f%%), abandoned %d, incomplete %d, retx %d, drops %.0f, peak queue %d, peak util %.2f\n",
		s.Protocol, s.Pods, s.Scenario, s.Completed, s.Flows, 100*s.CompletionRate,
		s.Abandoned, s.Incomplete, s.Retransmits, s.Drops, s.PeakQueue, s.PeakUtil)
	if s.Engine != "" && s.Engine != "packet" {
		out += fmt.Sprintf("  engine %s: %d fluid flows, peak concurrency %d\n",
			s.Engine, s.FluidFlows, s.PeakConcurrent)
	}
	out += fmt.Sprintf("  %-10s %6s %6s %9s %9s %9s %9s\n", "bucket", "flows", "done", "mean(ms)", "p50", "p95", "p99")
	for _, b := range s.Buckets {
		out += fmt.Sprintf("  %-10s %6d %6d %9.2f %9.2f %9.2f %9.2f\n",
			b.Label, b.Flows, b.Completed, b.FCT.Mean, b.FCT.P50, b.FCT.P95, b.FCT.P99)
	}
	out += fmt.Sprintf("  uplink imbalance max/mean: mean=%.3f p95=%.3f worst=%.3f (n=%d groups), jain=%.3f\n",
		s.Imbalance.Mean, s.Imbalance.P95, s.Imbalance.Max, s.Imbalance.N, s.Imbalance.JainMean)
	return out
}

// RenderWorkloadFCTCSV renders every cell's per-bucket completion times.
func RenderWorkloadFCTCSV(cells []Cell[WorkloadSummary, WorkloadResult]) []byte {
	var b strings.Builder
	_, _ = b.WriteString("protocol,pods,scenario,bucket,flows,completed,mean_ms,p50_ms,p95_ms,p99_ms,max_ms\n")
	for _, c := range cells {
		s := c.Summary
		for _, bk := range s.Buckets {
			_, _ = fmt.Fprintf(&b, "%s,%d,%s,%s,%d,%d,%.3f,%.3f,%.3f,%.3f,%.3f\n",
				s.Protocol, s.Pods, s.Scenario, bk.Label, bk.Flows, bk.Completed,
				bk.FCT.Mean, bk.FCT.P50, bk.FCT.P95, bk.FCT.P99, bk.FCT.Max)
		}
	}
	return []byte(b.String())
}

// RenderWorkloadImbalanceCSV renders every trial's per-group uplink spread.
func RenderWorkloadImbalanceCSV(cells []Cell[WorkloadSummary, WorkloadResult]) []byte {
	b := []byte("protocol,pods,scenario,trial,group,max_over_mean,jain,uplink_bytes\n")
	for _, c := range cells {
		for ti, tr := range c.Trials {
			for _, gl := range tr.GroupLoads {
				b = appendWorkloadCell(b, c.Summary)
				b = appendInt(b, int64(ti))
				b = appendStr(b, gl.Name)
				b = appendF4(b, gl.MaxOverMean)
				b = appendF4(b, gl.Jain)
				for i, n := range gl.Bytes {
					if i > 0 {
						b = append(b, ';')
					}
					b = strconv.AppendUint(b, n, 10)
				}
				b = append(b, '\n')
			}
		}
	}
	return b
}

// telemetryRowNumbers bounds the bytes a telemetry row's numeric columns and
// separators take in the common case (a six-digit t_us, a byte count in the
// millions, single-digit counters), so that the buffer is made once at about
// the file's size; a longer row only grows it.
const telemetryRowNumbers = 48

// RenderWorkloadTelemetryCSV exports the sampled link time series of each
// cell's first trial on the smallest topology — enough to plot utilization,
// queue depth and drops around the failure without dumping every trial.
// Frame-pool occupancy rides along as `framepool` rows (link columns empty,
// pool columns filled) so a buffer leak is visible on the same time axis.
func RenderWorkloadTelemetryCSV(cells []Cell[WorkloadSummary, WorkloadResult]) []byte {
	minPods := 0
	for _, c := range cells {
		if minPods == 0 || c.Summary.Pods < minPods {
			minPods = c.Summary.Pods
		}
	}
	var rendered []Cell[WorkloadSummary, WorkloadResult]
	// The engine column rides at the end so every pre-existing column stays
	// byte-identical in packet mode.
	const header = "protocol,pods,scenario,link,t_us,tx_bytes,util,queued,drops,lost,corrupted,pool_in_use,pool_peak,pool_recycled,engine\n"
	size := len(header)
	for _, c := range cells {
		if s := c.Summary; s.Pods == minPods && len(c.Trials) > 0 {
			rendered = append(rendered, c)
			fixed := len(s.Protocol.String()) + len(s.Scenario) + len(s.Engine) + telemetryRowNumbers
			for _, sr := range c.Trials[0].Series {
				size += sr.Len() * (fixed + len(sr.Name))
			}
			size += len(c.Trials[0].PoolSamples) * (fixed + len("framepool"))
		}
	}
	b := append(make([]byte, 0, size), header...)
	for _, c := range rendered {
		s := c.Summary
		for _, sr := range c.Trials[0].Series {
			for i := range sr.Len() {
				smp := sr.Sample(i)
				b = appendWorkloadCell(b, s)
				b = appendStr(b, sr.Name)
				b = appendInt(b, int64(sr.At(i)/time.Microsecond))
				b = appendUint(b, smp.TxBytes)
				b = appendF4(b, smp.Util)
				b = appendInt(b, int64(smp.Queued))
				b = appendUint(b, smp.Drops)
				b = appendUint(b, smp.Lost)
				b = appendUint(b, smp.Corrupted)
				b = append(append(append(b, ",,,"...), s.Engine...), '\n')
			}
		}
		for _, ps := range c.Trials[0].PoolSamples {
			b = appendWorkloadCell(b, s)
			b = appendInt(append(b, "framepool,"...), int64(ps.At/time.Microsecond))
			b = appendInt(append(b, ",,,,,,"...), int64(ps.InUse))
			b = appendInt(b, int64(ps.Peak))
			b = appendUint(b, ps.Recycled)
			b = append(append(b, s.Engine...), '\n')
		}
	}
	return b
}

// appendWorkloadCell appends a workload row's first three columns:
// "protocol,pods,scenario,". The append* helpers below each append one value
// and the comma after it.
func appendWorkloadCell(b []byte, s WorkloadSummary) []byte {
	return appendStr(appendInt(appendStr(b, s.Protocol.String()), int64(s.Pods)), s.Scenario)
}

func appendStr(b []byte, v string) []byte  { return append(append(b, v...), ',') }
func appendInt(b []byte, v int64) []byte   { return append(strconv.AppendInt(b, v, 10), ',') }
func appendUint(b []byte, v uint64) []byte { return append(strconv.AppendUint(b, v, 10), ',') }

// appendF4 is fmt's %.4f.
func appendF4(b []byte, v float64) []byte { return append(strconv.AppendFloat(b, v, 'f', 4, 64), ',') }

// timelined is a campaign trial that carries an injector log.
type timelined interface {
	timeline() (CellID, []chaos.Event)
}

func (r ChaosResult) timeline() (CellID, []chaos.Event) { return r.CellID, r.Events }
func (r TraceResult) timeline() (CellID, []chaos.Event) { return r.CellID, r.Events }

// RenderTimelineCSV renders every trial's event timeline as CSV, one row per
// event in virtual-time order: the fault actions actually executed and, in
// a trace campaign, the localizer's verdicts between them, with
// accused_link filled only on those.
func RenderTimelineCSV[S any, R timelined](cells []Cell[S, R]) []byte {
	var b strings.Builder
	_, _ = b.WriteString("protocol,pods,scenario,trial,t_us,kind,action,target,detail,accused_link\n")
	for _, c := range cells {
		for ti, tr := range c.Trials {
			id, events := tr.timeline()
			for _, ev := range events {
				accused := ""
				if ev.Kind == AccusationEventKind {
					accused = ev.Target
				}
				_, _ = fmt.Fprintf(&b, "%s,%d,%s,%d,%d,%s,%s,%s,%s,%s\n",
					id.Protocol, id.Pods, id.Scenario, ti,
					ev.At/time.Microsecond, ev.Kind, ev.Action, ev.Target, ev.Detail, accused)
			}
		}
	}
	return []byte(b.String())
}

// RenderChaos formats one cell's summary as the experiment's text block.
func RenderChaos(s ChaosSummary) string {
	out := fmt.Sprintf("%s %dP %s: %d trials, %d fault actions, blackhole mean %.0fms (max %.0fms), max outage mean %.0fms, probe loss %.2f%%\n",
		s.Protocol, s.Pods, s.Scenario, s.Trials, s.FaultActions,
		s.BlackholeMsMean, s.BlackholeMsMax, s.MaxOutageMsMean, 100*s.ProbeLossRateMean)
	out += fmt.Sprintf("  churn: %.1f reconvergence waves (max %d), %.0f route updates, %.0f control msgs (%.0f B), %.2f waves/up-transition\n",
		s.ReconvergencesMean, s.ReconvergencesMax, s.RouteUpdatesMean,
		s.ControlMsgsMean, s.ControlBytesMean, s.ReconvPerUp)
	if s.Protocol == ProtoMRMTP {
		out += fmt.Sprintf("  qdsa: %.1f lost, %.1f accepted, %.1f hellos dampened, %.1f accept resets\n",
			s.NeighborsLostMean, s.NeighborsAcceptedMean, s.HellosDampenedMean, s.AcceptResetsMean)
	} else {
		out += fmt.Sprintf("  bgp: %.1f session resets, %.1f established; bfd: %.1f down, %.1f up\n",
			s.SessionResetsMean, s.SessionsEstablishedMean, s.BFDDownMean, s.BFDUpMean)
	}
	return out
}

// RenderTraceHopsCSV renders every trial's per-hop statistic samples:
// one row per (sample time, prober, TTL) cell.
func RenderTraceHopsCSV(cells []Cell[TraceSummary, TraceResult]) []byte {
	var b strings.Builder
	_, _ = b.WriteString("protocol,pods,scenario,trial,t_us,prober,flow,src,dst,ttl,addr,seen,reached,sent,lost,received,loss_ewma,rtt_p50_us,rtt_p95_us,last_seen_us\n")
	for _, c := range cells {
		s := c.Summary
		for ti, tr := range c.Trials {
			for _, h := range tr.Samples {
				_, _ = fmt.Fprintf(&b, "%s,%d,%s,%d,%d,%d,%d,%s,%s,%d,%s,%t,%t,%d,%d,%d,%.4f,%d,%d,%d\n",
					s.Protocol, s.Pods, s.Scenario, ti,
					h.At/time.Microsecond, h.Prober, h.Flow, h.Src, h.Dst, h.TTL,
					h.Addr, h.Seen, h.Reached, h.Sent, h.Lost, h.Received,
					h.LossEWMA, h.RTTP50/time.Microsecond, h.RTTP95/time.Microsecond,
					h.LastSeen/time.Microsecond)
			}
		}
	}
	return []byte(b.String())
}

// RenderTraceAccusationsCSV renders every trial's localization verdicts.
func RenderTraceAccusationsCSV(cells []Cell[TraceSummary, TraceResult]) []byte {
	var b strings.Builder
	_, _ = b.WriteString("protocol,pods,scenario,trial,t_us,link,cells,ratio,latency,correct,t_to_localize_us\n")
	for _, c := range cells {
		s := c.Summary
		for ti, tr := range c.Trials {
			for _, a := range tr.Accusations {
				_, _ = fmt.Fprintf(&b, "%s,%d,%s,%d,%d,%s,%d,%.3f,%t,%t,%d\n",
					s.Protocol, s.Pods, s.Scenario, ti,
					a.At/time.Microsecond, a.Link, a.Cells, a.Ratio, a.Latency, a.Correct,
					(a.At-tr.InjectedAt)/time.Microsecond)
			}
		}
	}
	return []byte(b.String())
}

// RenderTrace formats one cell's summary as the experiment's text block.
func RenderTrace(s TraceSummary) string {
	out := fmt.Sprintf("%s %dP %s: %d trials, %d probers, localized %d/%d, %d false accusals\n",
		s.Protocol, s.Pods, s.Scenario, s.Trials, s.Probers,
		s.Localized, s.Trials, s.FalseAccusals)
	out += fmt.Sprintf("  time-to-localize mean %.0fms (max %.0fms), %.1f accusations/trial, probe loss %.2f%%, %.0f trace replies\n",
		s.TTLocMsMean, s.TTLocMsMax, s.AccusationsMean,
		100*s.ProbeLossRateMean, s.TraceRepliesMean)
	return out
}
