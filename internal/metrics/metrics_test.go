package metrics

import (
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestAnalyzeBasics(t *testing.T) {
	var l Log
	l.RouteUpdate(100*time.Millisecond, "S-1-1")
	l.ControlMessage(110*time.Millisecond, "S-1-1", 18)
	l.RouteUpdate(120*time.Millisecond, "L-1-2")
	l.ControlMessage(130*time.Millisecond, "T-1", 19)
	l.RouteUpdate(140*time.Millisecond, "L-1-2") // same node twice

	a := l.Analyze(100 * time.Millisecond)
	// Convergence ends at the last update *message* (130ms), not the
	// later silent table change (140ms) — the paper's §VI.B method.
	if a.Convergence != 30*time.Millisecond {
		t.Errorf("convergence = %v, want 30ms", a.Convergence)
	}
	if a.BlastRadius != 2 {
		t.Errorf("blast = %d, want 2 (distinct nodes)", a.BlastRadius)
	}
	if a.ControlBytes != 37 || a.ControlMessages != 2 {
		t.Errorf("control = %d B / %d msgs, want 37/2", a.ControlBytes, a.ControlMessages)
	}
	if len(a.UpdatedNodes) != 2 || a.UpdatedNodes[0] != "L-1-2" {
		t.Errorf("UpdatedNodes = %v", a.UpdatedNodes)
	}
}

func TestAnalyzeExcludesPreFailureEvents(t *testing.T) {
	var l Log
	l.RouteUpdate(50*time.Millisecond, "old")
	l.ControlMessage(60*time.Millisecond, "old", 100)
	l.RouteUpdate(200*time.Millisecond, "new")
	a := l.Analyze(100 * time.Millisecond)
	if a.BlastRadius != 1 || a.ControlBytes != 0 {
		t.Errorf("pre-failure events leaked into analysis: %+v", a)
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	var l Log
	a := l.Analyze(time.Second)
	if a.Convergence != 0 || a.BlastRadius != 0 || a.ControlBytes != 0 {
		t.Errorf("empty analysis = %+v", a)
	}
}

func TestReset(t *testing.T) {
	var l Log
	l.RouteUpdate(time.Millisecond, "x")
	l.Reset()
	if len(l.Events) != 0 {
		t.Error("Reset did not clear events")
	}
}

func TestDiscard(t *testing.T) {
	var l Log
	l.RouteUpdate(time.Millisecond, "kept")
	l.Discard(true)
	l.RouteUpdate(2*time.Millisecond, "x")
	l.ControlMessage(2*time.Millisecond, "x", 85)
	l.Accusation(2*time.Millisecond, "x", "a->b")
	l.Discard(false)
	l.ControlMessage(3*time.Millisecond, "kept", 85)
	if len(l.Events) != 2 || l.Events[0].Node != "kept" || l.Events[1].Node != "kept" {
		t.Errorf("events = %+v, want the two recorded outside the Discard window", l.Events)
	}
}

func TestNopRecorder(t *testing.T) {
	var n Nop
	n.RouteUpdate(0, "x")
	n.ControlMessage(0, "x", 1)
}

func TestAnalysisString(t *testing.T) {
	var l Log
	l.RouteUpdate(time.Millisecond, "n1")
	s := l.Analyze(0).String()
	for _, want := range []string{"blast=1", "n1"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestAnalyzeProperties(t *testing.T) {
	// Control bytes are the sum of recorded message sizes after the
	// failure instant, and blast radius never exceeds event count.
	f := func(sizes []uint8, failIdx uint8) bool {
		var l Log
		for i, s := range sizes {
			l.ControlMessage(time.Duration(i)*time.Millisecond, "n", int(s))
		}
		failAt := time.Duration(failIdx%64) * time.Millisecond
		a := l.Analyze(failAt)
		want := 0
		for i, s := range sizes {
			if time.Duration(i)*time.Millisecond >= failAt {
				want += int(s)
			}
		}
		return a.ControlBytes == want && a.BlastRadius == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
