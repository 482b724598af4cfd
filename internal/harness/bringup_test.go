package harness

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/topology"
	"repro/internal/trafficgen"
)

// The campaigns register their endpoints on the warm fabric. They once
// registered them on the cold one — build, register, warm up — because
// registration order was part of the byte contract. The functions below keep
// that order as the differential oracle: registration schedules nothing and
// draws no random number, so both orders must give the same bytes.

// coldRunLoss is RunLoss with the probe flow registered before warm-up.
func coldRunLoss(opts Options, tc topology.FailureCase, reverse bool) (trafficgen.Report, error) {
	f, err := Build(opts)
	if err != nil {
		return trafficgen.Report{}, err
	}
	srcStack, srcDev, err := f.ServerStack(11, 1)
	if err != nil {
		return trafficgen.Report{}, err
	}
	dstStack, dstDev, err := f.ServerStack(14, 1)
	if err != nil {
		return trafficgen.Report{}, err
	}
	if reverse {
		srcStack, dstStack = dstStack, srcStack
		srcDev, dstDev = dstDev, srcDev
	}
	cfg := trafficgen.DefaultConfig(srcDev.IP, dstDev.IP)
	if cfg.SrcPort, err = PickFlowPort(f, cfg); err != nil {
		return trafficgen.Report{}, err
	}
	sender := trafficgen.NewSender(srcStack, cfg)
	receiver := trafficgen.NewReceiver(dstStack, cfg.DstPort)

	if err := f.WarmUp(WarmupTime); err != nil {
		return trafficgen.Report{}, err
	}
	sender.Start()
	f.Sim.RunFor(time.Second + f.drawPhase())
	if preLoss := sender.Sent() - receiver.Report(sender).Received; preLoss > 2 {
		return trafficgen.Report{}, fmt.Errorf("probe flow lossy before injection (%d lost)", preLoss)
	}
	if _, err := f.Fail(tc); err != nil {
		return trafficgen.Report{}, err
	}
	f.Sim.RunFor(SettleTime)
	sender.Stop()
	f.Sim.RunFor(time.Second)
	return receiver.Report(sender), nil
}

// coldRunTrace is RunTrace with the prober fleet registered before warm-up.
func coldRunTrace(opts Options, spec chaos.Spec) (TraceResult, error) {
	accept, err := acceptedLinks(spec)
	if err != nil {
		return TraceResult{}, err
	}
	f, err := Build(opts)
	if err != nil {
		return TraceResult{}, err
	}
	run := newTraceRun(f, traceFlows)
	if err := f.WarmUp(WarmupTime); err != nil {
		return TraceResult{}, err
	}
	run.start()
	f.Sim.RunFor(traceLeadIn)
	run.arm()
	if run.inj, err = chaos.Apply(f.Sim, spec, f.Log); err != nil {
		return TraceResult{}, err
	}
	run.accept = accept
	firstStart := spec.Faults[0].Start.D()
	for _, fault := range spec.Faults[1:] {
		firstStart = min(firstStart, fault.Start.D())
	}
	run.res.InjectedAt = f.Sim.Now() + firstStart
	var sweep func()
	sweep = func() {
		run.sweep()
		f.Sim.Schedule(traceSweepPeriod, sweep)
	}
	f.Sim.Schedule(traceSweepPeriod, sweep)
	f.Sim.RunFor(spec.Horizon() + traceSettle)

	res := run.res
	res.CellID = CellID{opts.Protocol, opts.Spec.Pods, spec.Name}
	res.Probers = len(run.tracer.Probers())
	res.Events = run.inj.Events
	snaps := run.tracer.Snapshot()
	res.Cells = len(snaps)
	for _, s := range snaps {
		res.ProbesSent += s.Sent
		res.ProbesLost += s.Lost
		res.RepliesReceived += s.Received
	}
	for _, d := range f.Topo.Routers() {
		if r := f.Routers[d.Name]; r != nil {
			res.TraceReplies += r.Stats.TraceReplies
		}
	}
	return res, nil
}

// TestRunLossMatchesColdRegistration holds the probe flow's warm
// registration to the cold-order oracle: the same report for TC1 and TC4 ×
// all three protocols on the 2-PoD fabric, and for TC1 on the four-tier one.
func TestRunLossMatchesColdRegistration(t *testing.T) {
	type cell struct {
		opts Options
		tc   topology.FailureCase
	}
	var cells []cell
	for _, proto := range []Protocol{ProtoMRMTP, ProtoBGP, ProtoBGPBFD} {
		for _, tc := range []topology.FailureCase{topology.TC1, topology.TC4} {
			cells = append(cells, cell{DefaultOptions(topology.TwoPodSpec(), proto, 5), tc})
		}
	}
	for _, proto := range []Protocol{ProtoMRMTP, ProtoBGP} {
		cells = append(cells, cell{fourTierOptions(proto), topology.TC1})
	}
	for _, c := range cells {
		want, err := coldRunLoss(c.opts, c.tc, false)
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunLoss(c.opts, c.tc, false)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%v %dP zones %d %v: RunLoss %+v, cold registration %+v",
				c.opts.Protocol, c.opts.Spec.Pods, c.opts.Spec.Zones, c.tc, got, want)
		}
	}
}

// TestRunTraceMatchesColdRegistration holds the prober fleet's warm
// registration to the cold-order oracle for one catalog scenario in both
// data planes.
func TestRunTraceMatchesColdRegistration(t *testing.T) {
	spec := TraceCatalog()[0]
	for _, proto := range []Protocol{ProtoMRMTP, ProtoBGP} {
		opts := DefaultOptions(topology.TwoPodSpec(), proto, 9)
		want, err := coldRunTrace(opts, spec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunTrace(opts, spec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v %s: RunTrace differs from cold registration:\ngot  %+v\nwant %+v", proto, spec.Name, got, want)
		}
	}
}
