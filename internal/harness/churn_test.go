package harness

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/metrics"
)

// reconvergenceGap and routeChurn are the wave clustering the chaos and
// flap experiments ran over the log before metrics.Analyze counted waves
// itself, kept as the oracle RouteEvents and Waves are held to.
const reconvergenceGap = 250 * time.Millisecond

// routeChurn counts the route events at or after startAt and clusters them
// into reconvergence waves: a gap longer than reconvergenceGap starts a new
// episode.
func routeChurn(l *metrics.Log, startAt time.Duration) (updates, waves int) {
	var last time.Duration
	for _, e := range l.Events {
		if e.Kind != metrics.KindRoute || e.At < startAt {
			continue
		}
		if updates == 0 || e.At-last > reconvergenceGap {
			waves++
		}
		updates++
		last = e.At
	}
	return updates, waves
}

// checkChurn holds a's RouteEvents and Waves to routeChurn over the log a
// was computed from.
func checkChurn(t *testing.T, l *metrics.Log, a metrics.Analysis) {
	t.Helper()
	updates, waves := routeChurn(l, a.FailureAt)
	if a.RouteEvents != updates || a.Waves != waves {
		t.Errorf("Analyze(%v): %d route events in %d waves, routeChurn says %d in %d",
			a.FailureAt, a.RouteEvents, a.Waves, updates, waves)
	}
}

// runChaosChecked is RunChaos with the window's churn held to routeChurn.
func runChaosChecked(t *testing.T, opts Options, spec chaos.Spec) (ChaosResult, error) {
	f, err := atInjection(opts, nearLeadIn)
	if err != nil {
		return ChaosResult{}, err
	}
	r, err := measureChaos(f, spec)
	if err == nil {
		checkChurn(t, f.Log, r.Analysis)
		done(f)
	}
	return r, err
}

func TestAnalyzeWavesMatchRouteChurn(t *testing.T) {
	const ms = time.Millisecond
	gap := metrics.WaveGap
	cases := []struct {
		name          string
		build         func(l *metrics.Log)
		cut           time.Duration
		events, waves int
	}{
		{"empty log", func(*metrics.Log) {}, 0, 0, 0},
		{"exactly WaveGap apart", func(l *metrics.Log) {
			l.RouteUpdate(100*ms, "S-1-1")
			l.RouteUpdate(100*ms+gap, "S-1-2")
		}, 0, 2, 1},
		{"1 ns past WaveGap", func(l *metrics.Log) {
			l.RouteUpdate(100*ms, "S-1-1")
			l.RouteUpdate(100*ms+gap+1, "S-1-2")
		}, 0, 2, 2},
		{"events before the cut", func(l *metrics.Log) {
			l.RouteUpdate(10*ms, "L-1-1")
			l.RouteUpdate(50*ms, "L-1-2")
			l.RouteUpdate(400*ms, "S-1-1") // 350 ms after the last, but the first counted
			l.RouteUpdate(500*ms, "S-1-2")
		}, 300 * ms, 2, 1},
		{"interleaved control and failure events", func(l *metrics.Log) {
			l.FailureInjected(0, "L-1-1", 1)
			l.RouteUpdate(1*ms, "L-1-1")
			l.ControlMessage(2*ms, "L-1-1", 85)
			l.ControlMessage(200*ms, "S-1-1", 85) // control traffic does not bridge a gap
			l.FailureInjected(240*ms, "L-1-1", 2)
			l.RouteUpdate(252*ms, "S-1-1")
			l.RouteUpdate(300*ms, "T-1")
		}, 0, 3, 2},
	}
	for _, c := range cases {
		var l metrics.Log
		c.build(&l)
		a := l.Analyze(c.cut)
		if a.RouteEvents != c.events || a.Waves != c.waves {
			t.Errorf("%s: %d route events in %d waves, want %d in %d", c.name, a.RouteEvents, a.Waves, c.events, c.waves)
		}
		checkChurn(t, &l, a)
	}

	// Random logs whose gaps straddle WaveGap, cut anywhere.
	rng := rand.New(rand.NewSource(1))
	steps := []time.Duration{0, 1, gap - 1, gap, gap + 1, 2 * gap}
	for i := 0; i < 500; i++ {
		var l metrics.Log
		var at time.Duration
		for n := rng.Intn(12); n > 0; n-- {
			at += steps[rng.Intn(len(steps))]
			switch rng.Intn(3) {
			case 0:
				l.RouteUpdate(at, "S-1-1")
			case 1:
				l.ControlMessage(at, "S-1-1", 85)
			default:
				l.FailureInjected(at, "S-1-1", 1)
			}
		}
		checkChurn(t, &l, l.Analyze(time.Duration(rng.Int63n(int64(at)+1))))
	}
}
