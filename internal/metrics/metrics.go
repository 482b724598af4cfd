// Package metrics collects the paper's performance measurements: network
// convergence time, control overhead in layer-2 bytes, and blast radius
// (the number of routers that updated their routing tables after a failure).
// Its Log is the one record of protocol events: the protocols and the
// harness's failure injection append timestamped events, Analyze — the log's
// one reader — turns them into the numbers plotted in Figs. 4-6 and the
// chaos campaigns' reconvergence waves, and journal.go renders the same
// events as the testbed's raw router logs and parses them back (§VI.B).
package metrics

import (
	"sort"
	"time"
)

// Kind says what an Event records.
type Kind uint8

// The event kinds. Each documents what Event.N holds for it.
const (
	// KindRoute: Node changed its routing/VID table. N is 0.
	KindRoute Kind = iota
	// KindControl: Node transmitted an update-class control message; N is
	// its layer-2 size in bytes. Keep-alives are NOT recorded here; they
	// are measured from the wire (Figs. 9-10).
	KindControl
	// KindFailure: the harness failed Node's interface ethN, the instant
	// the paper's bash script stamped when it ran `ip link set down`.
	KindFailure
)

// Event is one recorded protocol event.
type Event struct {
	At   time.Duration
	Node string
	Kind Kind
	N    int // per Kind: bytes sent (control), failed port (failure), 0 (route)
}

// Log is an append-only record retaining every event, except while Discard
// is on. Its recording methods do nothing on a nil *Log, so a protocol
// daemon built without one records nothing.
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
	if l != nil && !l.discard {
		l.Events = append(l.Events, e)
	}
}

// RouteUpdate records that node changed its routing/VID table.
func (l *Log) RouteUpdate(at time.Duration, node string) {
	l.add(Event{At: at, Node: node, Kind: KindRoute})
}

// ControlMessage records that node transmitted an update-class control
// message of the given layer-2 size.
func (l *Log) ControlMessage(at time.Duration, node string, bytes int) {
	l.add(Event{At: at, Node: node, Kind: KindControl, N: bytes})
}

// FailureInjected records that node's interface eth<port> was failed.
func (l *Log) FailureInjected(at time.Duration, node string, port int) {
	l.add(Event{At: at, Node: node, Kind: KindFailure, N: port})
}

// Fork returns a copy of the log, its events and its retention setting,
// written into into (a log an earlier fork made) or a new one.
func (l *Log) Fork(into *Log) *Log {
	if into == nil {
		into = &Log{}
	}
	*into = Log{Events: append(into.Events[:0], l.Events...), discard: l.discard}
	return into
}

// Reset discards all recorded events (the harness calls this once the
// fabric reaches steady state, so only post-failure events are analyzed).
func (l *Log) Reset() { l.Events = nil }

// WaveGap separates reconvergence waves: route events closer together than
// this belong to one convergence episode, a larger gap starts a new one. A
// quarter second sits well above any single episode's internal spacing
// (update fan-out is sub-millisecond on an idle fabric) and well below a
// chaos campaign's fault spacing.
const WaveGap = 250 * time.Millisecond

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
	// RouteEvents counts routing-table changes.
	RouteEvents int
	// Waves counts reconvergence waves: a route event more than WaveGap
	// after the previous route event starts a new one. It is the "how many
	// times did the network have to re-decide" number the flap-storm
	// dampening claim is about. Events are taken in time order — the order
	// a simulation records them in — so a journal parsed back (time-sorted)
	// has the waves of the log it was rendered from.
	Waves int
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
		case KindRoute:
			if a.RouteEvents > 0 && e.At < lastRoute {
				// Out of time order: waves are counted in time order, and
				// every other figure is order-free.
				return (&Log{Events: byTime(l.Events)}).Analyze(failureAt)
			}
			if a.RouteEvents == 0 || e.At-lastRoute > WaveGap {
				a.Waves++
			}
			a.RouteEvents++
			lastRoute = e.At
			updated[e.Node] = true
		case KindControl:
			a.ControlBytes += e.N
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
