// Package metrics collects the paper's performance measurements: network
// convergence time, control overhead in layer-2 bytes, and blast radius
// (the number of routers that updated their routing tables after a failure).
// It is the in-process equivalent of the paper's log-parsing pipeline: the
// protocols emit timestamped events, the harness brackets them around a
// failure injection, and the computations in this package turn them into
// the numbers plotted in Figs. 4-6.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Recorder receives protocol events. Both the BGP speaker and the MR-MTP
// router report through this interface.
type Recorder interface {
	// RouteUpdate reports that node changed its routing/VID table.
	RouteUpdate(at time.Duration, node string)
	// ControlMessage reports that node transmitted an update-class
	// control message of the given layer-2 size. Keep-alives are NOT
	// reported here; they are measured separately (Figs. 9-10).
	ControlMessage(at time.Duration, node string, l2Bytes int)
}

// Nop is a Recorder that discards everything.
type Nop struct{}

// RouteUpdate implements Recorder.
func (Nop) RouteUpdate(time.Duration, string) {}

// ControlMessage implements Recorder.
func (Nop) ControlMessage(time.Duration, string, int) {}

// Event is one recorded protocol event.
type Event struct {
	At    time.Duration
	Node  string
	Kind  string // "route", "control", or "accuse"
	Bytes int
	// Detail carries kind-specific payload: for "accuse" events, the
	// accused directed link ("From->To").
	Detail string
}

// Log is an append-only Recorder retaining every event, except while
// Discard is on.
type Log struct {
	Events  []Event
	discard bool
}

// Discard turns retention off (true) and back on (false). It is for a phase
// whose events are going to be Reset before anyone can read them — the
// harness's warm-up, where a big fabric otherwise grows the slice to tens of
// megabytes for nothing. Events recorded before the call stay.
func (l *Log) Discard(on bool) { l.discard = on }

func (l *Log) add(e Event) {
	if !l.discard {
		l.Events = append(l.Events, e)
	}
}

// Accusation records a gray-failure localization verdict from the
// observability plane (DESIGN.md §12): node's localizer accused the
// directed link named by detail.
func (l *Log) Accusation(at time.Duration, node, detail string) {
	l.add(Event{At: at, Node: node, Kind: "accuse", Detail: detail})
}

// RouteUpdate implements Recorder.
func (l *Log) RouteUpdate(at time.Duration, node string) {
	l.add(Event{At: at, Node: node, Kind: "route"})
}

// ControlMessage implements Recorder.
func (l *Log) ControlMessage(at time.Duration, node string, bytes int) {
	l.add(Event{At: at, Node: node, Kind: "control", Bytes: bytes})
}

// Reset discards all recorded events (the harness calls this once the
// fabric reaches steady state, so only post-failure events are analyzed).
func (l *Log) Reset() { l.Events = nil }

// Analysis summarizes the events after a failure, exactly as §VI of the
// paper computes its metrics.
type Analysis struct {
	FailureAt time.Duration
	// Convergence is the time from the failure until the update
	// messages stopped (§VI.B: "When the update messages stopped, we
	// recorded the end time for convergence"). Routers that silently
	// clean up state without disseminating anything — e.g. a BGP
	// speaker whose ECMP group shrinks with no best-path change — do
	// not extend convergence, exactly as the paper's measurement cannot
	// see them. When a failure produces no update messages at all, the
	// last routing-table change is used instead.
	Convergence time.Duration
	// BlastRadius counts distinct routers that changed their tables.
	BlastRadius int
	// ControlBytes sums the layer-2 bytes of update messages sent.
	ControlBytes int
	// ControlMessages counts update messages sent.
	ControlMessages int
	// UpdatedNodes lists the routers in the blast radius, sorted.
	UpdatedNodes []string
}

// Analyze computes the post-failure summary from events recorded at or
// after failureAt.
func (l *Log) Analyze(failureAt time.Duration) Analysis {
	a := Analysis{FailureAt: failureAt}
	updated := make(map[string]bool)
	var lastControl, lastRoute time.Duration
	for _, e := range l.Events {
		if e.At < failureAt {
			continue
		}
		switch e.Kind {
		case "route":
			updated[e.Node] = true
			if e.At > lastRoute {
				lastRoute = e.At
			}
		case "control":
			a.ControlBytes += e.Bytes
			a.ControlMessages++
			if e.At > lastControl {
				lastControl = e.At
			}
		}
	}
	last := lastControl
	if last == 0 {
		last = lastRoute
	}
	if last > failureAt {
		a.Convergence = last - failureAt
	}
	a.BlastRadius = len(updated)
	for n := range updated {
		a.UpdatedNodes = append(a.UpdatedNodes, n)
	}
	sort.Strings(a.UpdatedNodes)
	return a
}

// String renders a one-line summary.
func (a Analysis) String() string {
	return fmt.Sprintf("convergence=%v blast=%d control=%dB/%dmsg [%s]",
		a.Convergence, a.BlastRadius, a.ControlBytes, a.ControlMessages,
		strings.Join(a.UpdatedNodes, ","))
}

// Tee fans events out to several recorders (e.g. the in-memory Log and a
// raw text journal).
type Tee []Recorder

// RouteUpdate implements Recorder.
func (t Tee) RouteUpdate(at time.Duration, node string) {
	for _, r := range t {
		r.RouteUpdate(at, node)
	}
}

// ControlMessage implements Recorder.
func (t Tee) ControlMessage(at time.Duration, node string, bytes int) {
	for _, r := range t {
		r.ControlMessage(at, node, bytes)
	}
}
