package harness

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/topology"
	"repro/internal/workload"
)

// smallWorkload keeps harness-level workload tests fast: few fixed-size
// flows, arrivals compressed into ~50ms.
func smallWorkload() WorkloadConfig {
	w := DefaultWorkloadConfig()
	w.Flows = 24
	w.Sizes = workload.FixedSize(4000)
	w.MeanArrival = 2 * time.Millisecond
	w.MaxRun = 10 * time.Second
	return w
}

func TestRunWorkloadSteadyState(t *testing.T) {
	res, err := RunWorkload(DefaultOptions(topology.TwoPodSpec(), ProtoMRMTP, 42), smallWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Completed != res.Report.Flows || res.Report.Flows != 24 {
		t.Fatalf("completed %d/%d flows, want all 24", res.Report.Completed, res.Report.Flows)
	}
	if res.Report.Incomplete != 0 || res.Report.Abandoned != 0 {
		t.Errorf("incomplete=%d abandoned=%d, want 0/0", res.Report.Incomplete, res.Report.Abandoned)
	}
	// 4000-byte flows land in the small bucket with real FCTs.
	if got := res.Report.Buckets[0].Completed; got != 24 {
		t.Errorf("small bucket completed = %d, want 24", got)
	}
	for _, ms := range res.Report.Buckets[0].FCTms {
		if ms <= 0 {
			t.Fatalf("non-positive FCT %v ms", ms)
		}
	}
	// Every leaf and pod spine forwarded something, so the imbalance view
	// must have busy groups with sane indices.
	for _, gl := range res.GroupLoads {
		if gl.MaxOverMean < 1 || gl.Jain <= 0 || gl.Jain > 1 {
			t.Errorf("group %s: max/mean %v, Jain %v; want at least 1 and in (0,1]", gl.Name, gl.MaxOverMean, gl.Jain)
		}
	}
	if imb := SummarizeWorkload([]WorkloadResult{res}).Imbalance; imb.N == 0 || imb.JainMean <= 0 || imb.JainMean > 1 {
		t.Errorf("imbalance summary %+v: want busy groups and a Jain mean in (0,1]", imb)
	}
	if res.PeakUtil <= 0 {
		t.Error("shaped links should report nonzero utilization")
	}
	if len(res.Series) == 0 {
		t.Error("no telemetry series recorded")
	}
}

func TestRunWorkloadMidFailureRepairs(t *testing.T) {
	w := smallWorkload()
	w.MidFailure = true
	// Fail TC2 while arrivals are still in flight so some flows lose
	// packets mid-transfer and must be repaired after reconvergence.
	w.FailAfter = 20 * time.Millisecond
	w.MeanArrival = 10 * time.Millisecond
	res, err := RunWorkload(DefaultOptions(topology.TwoPodSpec(), ProtoMRMTP, 42), w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scenario != "midfail" {
		t.Errorf("scenario = %q, want midfail", res.Scenario)
	}
	if res.Report.Completed != res.Report.Flows {
		t.Fatalf("completed %d/%d flows across the failure, want all",
			res.Report.Completed, res.Report.Flows)
	}
	if res.Report.Retransmits == 0 {
		t.Error("expected retransmits repairing packets lost to the failure")
	}
}

func TestWorkloadTrialsDeterministicAcrossPool(t *testing.T) {
	opts := DefaultOptions(topology.TwoPodSpec(), ProtoBGP, 7)
	w := smallWorkload()
	w.Flows = 12
	trial := func(o Options) (WorkloadResult, error) { return RunWorkload(o, w) }
	var seq, par WorkloadSummary
	withWorkers(t, 1, func() {
		c, err := RunCell(opts, 2, trial, SummarizeWorkload)
		if err != nil {
			t.Fatal(err)
		}
		seq = c.Summary
	})
	withWorkers(t, 4, func() {
		c, err := RunCell(opts, 2, trial, SummarizeWorkload)
		if err != nil {
			t.Fatal(err)
		}
		par = c.Summary
	})
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("summary differs between sequential and parallel pools:\n%+v\n%+v", seq, par)
	}
	if seq.Trials != 2 || seq.Flows != 24 {
		t.Errorf("pooled %d trials / %d flows, want 2 / 24", seq.Trials, seq.Flows)
	}
}

func TestSummarizeWorkloadPoolsBuckets(t *testing.T) {
	mk := func(fct float64) WorkloadResult {
		return WorkloadResult{
			CellID: CellID{ProtoMRMTP, 2, "steady"},
			Report: workload.Report{
				Flows: 1, Completed: 1, PacketsSent: 4,
				Buckets: []workload.BucketReport{{Label: "S", Flows: 1, Completed: 1, FCTms: []float64{fct}}},
			},
			GroupLoads: []workload.GroupLoad{
				{Name: "L-1-1", Bytes: []uint64{3, 1}, MaxOverMean: 1.5, Jain: 0.8},
				{Name: "L-1-2", Bytes: []uint64{0, 0}, MaxOverMean: 1, Jain: 1},
			},
			Drops: 2,
		}
	}
	s := SummarizeWorkload([]WorkloadResult{mk(1), mk(3)})
	if s.Flows != 2 || s.Completed != 2 || s.CompletionRate != 1 {
		t.Errorf("flows=%d completed=%d rate=%v", s.Flows, s.Completed, s.CompletionRate)
	}
	if s.Buckets[0].FCT.N != 2 || s.Buckets[0].FCT.Mean != 2 {
		t.Errorf("pooled FCT summary = %+v, want n=2 mean=2", s.Buckets[0].FCT)
	}
	// Idle groups are excluded from the pooled imbalance sample and from
	// each trial's Jain mean; a trial with no busy group adds 0.
	if s.Imbalance.N != 2 || s.Imbalance.Mean != 1.5 || s.Imbalance.JainMean != 0.8 {
		t.Errorf("imbalance = %+v, want n=2 mean=1.5 jain=0.8", s.Imbalance)
	}
	idle := mk(2)
	idle.GroupLoads = idle.GroupLoads[1:]
	if imb := SummarizeWorkload([]WorkloadResult{mk(1), idle}).Imbalance; imb.N != 1 || imb.JainMean != 0.4 {
		t.Errorf("imbalance with an idle trial = %+v, want n=1 jain=0.4", imb)
	}
	if s.Drops != 2 {
		t.Errorf("drops = %v, want mean 2", s.Drops)
	}
	if out := RenderWorkload(s); len(out) == 0 {
		t.Error("empty render")
	}
}
