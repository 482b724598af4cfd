package metrics

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestAnalyzeBasics(t *testing.T) {
	var l Log
	l.FailureInjected(100*time.Millisecond, "L-1-1", 1) // counts toward nothing
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
	l.FailureInjected(2*time.Millisecond, "x", 1)
	l.Discard(false)
	l.ControlMessage(3*time.Millisecond, "kept", 85)
	if len(l.Events) != 2 || l.Events[0].Node != "kept" || l.Events[1].Node != "kept" {
		t.Errorf("events = %+v, want the two recorded outside the Discard window", l.Events)
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

func TestNilLogRecordsNothing(t *testing.T) {
	var l *Log
	l.RouteUpdate(time.Millisecond, "x")
	l.ControlMessage(time.Millisecond, "x", 85)
	l.FailureInjected(time.Millisecond, "x", 1)
}

func TestRenderParseRoundTrip(t *testing.T) {
	var l Log
	l.FailureInjected(16*time.Second+123*time.Microsecond, "L-1-1", 1)
	l.ControlMessage(16*time.Second+100*time.Millisecond, "S-1-1", 18)
	l.RouteUpdate(16*time.Second+101*time.Millisecond, "L-1-2")
	text := Render(l.Events)
	want := "16.000123 L-1-1 interface eth1 down (failure injected)\n" +
		"16.100000 S-1-1 update message sent bytes=18\n" +
		"16.101000 L-1-2 routing table updated\n"
	if text != want {
		t.Errorf("Render =\n%s\nwant\n%s", text, want)
	}
	// Kind, node, number and the microsecond survive the text round trip.
	events, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(events, l.Events) {
		t.Errorf("Parse(Render) = %+v, want %+v", events, l.Events)
	}
}

func TestRenderSortsByTime(t *testing.T) {
	var l Log
	l.RouteUpdate(2*time.Second, "b")
	l.RouteUpdate(1*time.Second, "a")
	events, err := Parse(Render(l.Events))
	if err != nil {
		t.Fatal(err)
	}
	if events[0].Node != "a" || events[1].Node != "b" {
		t.Errorf("events not time-sorted: %+v", events)
	}
	if l.Events[0].Node != "b" {
		t.Error("Render reordered the log it was given")
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"justoneword",
		"abc node routing table updated",
		"1.-5 node routing table updated", // was 0.95 s
		"1.+5 node routing table updated",
		"-1.5 node routing table updated", // was -0.5 s
		"+1.5 node routing table updated",
		"1.5- node routing table updated",
		"9223372037 node routing table updated", // past the largest Duration
		"9223372036.999999 node routing table updated",
		"1.5 node link flapped",
		"1.5 node routing table updated twice",
		"1.5 node update message sent bytes=",
		"1.5 node update message sent bytes=-5",
		"1.5 node interface eth down (failure injected)",
	} {
		// The bad line is line 3: a good line and a blank one go first.
		_, err := Parse("0.000001 node routing table updated\n\n" + bad + "\n")
		if err == nil || !strings.Contains(err.Error(), "line 3") {
			t.Errorf("Parse(%q): err = %v, want one naming line 3", bad, err)
		}
	}
	events, err := Parse("\n\n")
	if err != nil || len(events) != 0 {
		t.Error("blank lines should be skipped")
	}
}

// TestJournalRoundTrip: any event sequence at non-negative times renders and
// parses back to itself, time-sorted and truncated to microseconds, and the
// log-derived analysis is the in-memory one.
func TestJournalRoundTrip(t *testing.T) {
	type rawEvent struct {
		At         int64
		Node, Kind uint8
		N          uint16
	}
	f := func(raw []rawEvent, failIdx uint8) bool {
		var orig, truncated Log
		for _, r := range raw {
			e := Event{At: time.Duration(r.At & math.MaxInt64), Node: fmt.Sprintf("R-%d", r.Node%8), Kind: Kind(r.Kind % 3)}
			if e.Kind != KindRoute {
				e.N = int(r.N)
			}
			orig.Events = append(orig.Events, e)
			e.At = e.At.Truncate(time.Microsecond)
			truncated.Events = append(truncated.Events, e)
		}
		want := append([]Event(nil), orig.Events...)
		sort.SliceStable(want, func(i, k int) bool { return want[i].At < want[k].At })
		for i := range want {
			want[i].At = want[i].At.Truncate(time.Microsecond)
		}
		got, err := Parse(Render(orig.Events))
		if err != nil || !reflect.DeepEqual(got, want) {
			return false
		}
		var failAt time.Duration
		if len(want) > 0 {
			failAt = want[int(failIdx)%len(want)].At
		}
		parsed := Log{Events: got}
		return reflect.DeepEqual(parsed.Analyze(failAt), truncated.Analyze(failAt))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
