package harness

import (
	"testing"
	"time"

	"repro/internal/routerlog"
	"repro/internal/topology"
)

func TestLogPipelineCrossValidatesMetrics(t *testing.T) {
	// Run a TC1 failure with the raw-log journal attached, then recompute
	// the §VI metrics *from the rendered text logs* and compare with the
	// in-memory measurement. This validates the whole methodology chain
	// the paper used: script-stamped failure time, print-statement update
	// records, offline parsing.
	journal := &routerlog.Journal{}
	opts := DefaultOptions(topology.TwoPodSpec(), ProtoMRMTP, 19)
	opts.Journal = journal
	f, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.WarmUp(WarmupTime); err != nil {
		t.Fatal(err)
	}
	journal.Lines = nil // start the "log collection" at steady state
	failAt, err := f.Fail(topology.TC1)
	if err != nil {
		t.Fatal(err)
	}
	f.Sim.RunFor(SettleTime)

	mem := f.Log.Analyze(failAt)

	lines, err := routerlog.Parse(journal.Render())
	if err != nil {
		t.Fatal(err)
	}
	fromLogs, err := routerlog.Analyze(lines)
	if err != nil {
		t.Fatal(err)
	}
	if fromLogs.FailureAt != failAt {
		t.Errorf("log failure time %v != injected %v", fromLogs.FailureAt, failAt)
	}
	// Text logs carry microsecond precision; allow a 1µs rounding skew.
	diff := fromLogs.Convergence - mem.Convergence
	if diff < -time.Microsecond || diff > time.Microsecond {
		t.Errorf("convergence from logs %v != in-memory %v", fromLogs.Convergence, mem.Convergence)
	}
	if fromLogs.ControlBytes != mem.ControlBytes || fromLogs.ControlMsgs != mem.ControlMessages {
		t.Errorf("control from logs %d B/%d != in-memory %d B/%d",
			fromLogs.ControlBytes, fromLogs.ControlMsgs, mem.ControlBytes, mem.ControlMessages)
	}
	if fromLogs.BlastRadius != mem.BlastRadius {
		t.Errorf("blast from logs %d != in-memory %d", fromLogs.BlastRadius, mem.BlastRadius)
	}
}

func TestJournalBGP(t *testing.T) {
	journal := &routerlog.Journal{}
	opts := DefaultOptions(topology.TwoPodSpec(), ProtoBGP, 23)
	opts.Journal = journal
	f, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.WarmUp(WarmupTime); err != nil {
		t.Fatal(err)
	}
	// Bring-up is journalled — the journal is an artifact — while the
	// in-memory log, Reset before anyone can read it, retains none of it.
	if len(journal.Lines) == 0 || len(f.Log.Events) != 0 {
		t.Errorf("after warm-up: %d journal lines, %d log events; want some and none", len(journal.Lines), len(f.Log.Events))
	}
	journal.Lines = nil
	if _, err := f.Fail(topology.TC2); err != nil {
		t.Fatal(err)
	}
	f.Sim.RunFor(SettleTime)
	lines, err := routerlog.Parse(journal.Render())
	if err != nil {
		t.Fatal(err)
	}
	a, err := routerlog.Analyze(lines)
	if err != nil {
		t.Fatal(err)
	}
	if a.ControlMsgs == 0 || a.BlastRadius == 0 {
		t.Errorf("BGP log analysis empty: %+v", a)
	}
}
