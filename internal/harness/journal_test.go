package harness

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/topology"
)

// failureJournal warms a fabric, fails tc and lets it settle. It returns the
// failure window as the testbed would have collected it — the rendered text
// log — and the in-memory analysis of the same window.
func failureJournal(tb testing.TB, proto Protocol, seed int64, tc topology.FailureCase) (string, metrics.Analysis) {
	tb.Helper()
	f, err := Build(DefaultOptions(topology.TwoPodSpec(), proto, seed))
	if err != nil {
		tb.Fatal(err)
	}
	if err := f.WarmUp(WarmupTime); err != nil {
		tb.Fatal(err)
	}
	failAt, err := f.Fail(tc)
	if err != nil {
		tb.Fatal(err)
	}
	f.Sim.RunFor(SettleTime)
	return metrics.Render(f.Log.Events), f.Log.Analyze(failAt)
}

// analyzeJournal is the paper's offline step: parse the text log and measure
// from the failure line it finds.
func analyzeJournal(t *testing.T, text string) metrics.Analysis {
	t.Helper()
	events, err := metrics.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if e.Kind == metrics.KindFailure {
			l := metrics.Log{Events: events}
			return l.Analyze(e.At)
		}
	}
	t.Fatal("no failure line in the journal")
	return metrics.Analysis{}
}

func TestLogPipelineCrossValidatesMetrics(t *testing.T) {
	// Run a TC1 failure per protocol, then recompute the §VI metrics *from
	// the rendered text logs* and compare with the in-memory measurement.
	// This validates the whole methodology chain the paper used:
	// script-stamped failure time, print-statement update records, offline
	// parsing.
	for _, proto := range []Protocol{ProtoMRMTP, ProtoBGP, ProtoBGPBFD} {
		text, mem := failureJournal(t, proto, 19, topology.TC1)
		fromLogs := analyzeJournal(t, text)
		// Text logs carry microsecond precision; allow a 1µs rounding skew.
		near := func(a, b time.Duration) bool { return a-b <= time.Microsecond && b-a <= time.Microsecond }
		if !near(fromLogs.FailureAt, mem.FailureAt) || !near(fromLogs.Convergence, mem.Convergence) {
			t.Errorf("%s: failure/convergence from logs %v/%v != in-memory %v/%v",
				proto, fromLogs.FailureAt, fromLogs.Convergence, mem.FailureAt, mem.Convergence)
		}
		fromLogs.FailureAt, fromLogs.Convergence = mem.FailureAt, mem.Convergence
		if !reflect.DeepEqual(fromLogs, mem) {
			t.Errorf("%s: analysis from logs %+v != in-memory %+v", proto, fromLogs, mem)
		}
		if mem.ControlMessages == 0 || mem.BlastRadius == 0 {
			t.Errorf("%s: TC1 produced an empty analysis %+v", proto, mem)
		}
	}
}

func TestJournalBGP(t *testing.T) {
	text, _ := failureJournal(t, ProtoBGP, 23, topology.TC2)
	if a := analyzeJournal(t, text); a.ControlMessages == 0 || a.BlastRadius == 0 {
		t.Errorf("BGP log analysis empty: %+v", a)
	}
}

// FuzzParseJournal: whatever Parse accepts renders and parses back to the
// same events, time-sorted as Render writes them.
func FuzzParseJournal(f *testing.F) {
	text, _ := failureJournal(f, ProtoMRMTP, 19, topology.TC1)
	f.Add(text)
	f.Fuzz(func(t *testing.T, text string) {
		events, err := metrics.Parse(text)
		if err != nil {
			return
		}
		again, err := metrics.Parse(metrics.Render(events))
		if err != nil {
			t.Fatalf("Parse rejects what Render wrote: %v", err)
		}
		sort.SliceStable(events, func(i, k int) bool { return events[i].At < events[k].At })
		if !reflect.DeepEqual(again, events) {
			t.Fatalf("round trip = %+v, want %+v", again, events)
		}
	})
}
