package main

import "time"

// processStart anchors setup_s and every span offset. Package variables
// initialize before main, so this is as close to process start as Go code
// gets.
var processStart = now()

// now and since are the benchmark's only readings of the host clock, which
// simulation code is forbidden (simlint walltime) and a benchmark exists for.
func now() time.Time { return time.Now() } //simlint:deterministic the benchmark measures host time; nothing simulated reads it

func since(t time.Time) time.Duration { return time.Since(t) } //simlint:deterministic the benchmark measures host time; nothing simulated reads it

// span is one timed call from the benchmark into a module's public API.
// Offsets are nanoseconds since process start.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1 at the root
	Name     string `json:"name"`   // module.Function
	Detail   string `json:"detail,omitempty"`
	Workload string `json:"workload"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

// tracer records spans in memory; the parent process writes them out once
// at exit. A nil *tracer is tracing switched off: span costs one nil check,
// so the end-to-end pass runs the same code without the bookkeeping.
type tracer struct {
	workload string
	spans    []span
	open     []int // stack of unfinished span IDs
}

// span opens a span and returns the function that closes it.
func (t *tracer) span(name, detail string) func() {
	if t == nil {
		return func() {}
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Detail: detail, Workload: t.workload,
		Start: int64(since(processStart)),
	})
	t.open = append(t.open, id)
	return func() {
		t.spans[id].End = int64(since(processStart))
		t.open = t.open[:len(t.open)-1]
	}
}

// traceFile is trace.json: every span of the run, and where the time went.
type traceFile struct {
	Spans []span             `json:"spans"`
	SelfS map[string]float64 `json:"self_s"`
}

// selfSeconds attributes each span's duration minus the part its children
// cover to the span's name: where the time went, by API entry point.
func selfSeconds(spans []span) map[string]float64 {
	covered := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	self := make(map[string]float64)
	for i, s := range spans {
		self[s.Name] += float64(s.End-s.Start-covered[i]) / 1e9
	}
	return self
}
