package harness

import (
	"errors"
	"testing"

	"repro/internal/topology"
)

// withWorkers runs fn with the pool width pinned, restoring it afterwards.
func withWorkers(t *testing.T, n int, fn func()) {
	t.Helper()
	old := Workers
	Workers = n
	defer func() { Workers = old }()
	fn()
}

func TestTrialSeedDerivation(t *testing.T) {
	if TrialSeed(10, 0) != 10 {
		t.Errorf("TrialSeed(10, 0) = %d, want 10", TrialSeed(10, 0))
	}
	if TrialSeed(10, 3) != 10+3*7919 {
		t.Errorf("TrialSeed(10, 3) = %d, want %d", TrialSeed(10, 3), 10+3*7919)
	}
	// Seeds must be a pure function of (base, index): this is what makes
	// the parallel runner's output independent of scheduling order.
	if TrialSeed(10, 2) != TrialSeed(10, 2) {
		t.Error("TrialSeed is not deterministic")
	}
}

// TestRunTrialsOrdersResultsByIndex runs the pool at width 4, at width 1 (the
// sequential run) and at width 0, which must clamp to 1 rather than leave the
// trials unserved.
func TestRunTrialsOrdersResultsByIndex(t *testing.T) {
	opts := Options{Seed: 5}
	for _, width := range []int{4, 1, 0} {
		withWorkers(t, width, func() {
			rs, err := runTrials(opts, 8, func(o Options) (int64, error) {
				return o.Seed, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for i, got := range rs {
				if want := TrialSeed(5, i); got != want {
					t.Errorf("width %d: trial %d saw seed %d, want %d", width, i, got, want)
				}
			}
		})
	}
}

func TestRunTrialsReturnsLowestIndexedError(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	withWorkers(t, 4, func() {
		_, err := runTrials(Options{}, 6, func(o Options) (int, error) {
			switch o.Seed {
			case TrialSeed(0, 4):
				return 0, errB
			case TrialSeed(0, 2):
				return 0, errA
			}
			return 0, nil
		})
		if err != errA {
			t.Errorf("got error %v, want the lowest-indexed error %v", err, errA)
		}
	})
}

// TestParallelTrialsDeterministic is the acceptance check for the parallel
// harness: a parallel run and a forced-sequential run of the same
// configuration must produce bit-identical summaries.
func TestParallelTrialsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full fabric trials in -short mode")
	}
	opts := DefaultOptions(topology.TwoPodSpec(), ProtoMRMTP, 7)
	const n = 4

	var seq, par FailureSummary
	var err error
	withWorkers(t, 1, func() {
		seq, err = RunFailureTrials(opts, topology.TC1, n)
	})
	if err != nil {
		t.Fatal(err)
	}
	withWorkers(t, 4, func() {
		par, err = RunFailureTrials(opts, topology.TC1, n)
	})
	if err != nil {
		t.Fatal(err)
	}
	if seq != par {
		t.Errorf("parallel summary differs from sequential:\nsequential: %+v\nparallel:   %+v", seq, par)
	}

	var seqLoss, parLoss float64
	withWorkers(t, 1, func() {
		seqLoss, err = RunLossTrials(opts, topology.TC2, false, 2)
	})
	if err != nil {
		t.Fatal(err)
	}
	withWorkers(t, 2, func() {
		parLoss, err = RunLossTrials(opts, topology.TC2, false, 2)
	})
	if err != nil {
		t.Fatal(err)
	}
	if seqLoss != parLoss {
		t.Errorf("parallel loss %v differs from sequential %v", parLoss, seqLoss)
	}
}

// TestRunnersRejectNoTrials: a cell of no trials is an error, not a NaN mean
// loss or a summary that reads as "converged in 0 s".
func TestRunnersRejectNoTrials(t *testing.T) {
	opts := DefaultOptions(topology.TwoPodSpec(), ProtoMRMTP, 1)
	for _, n := range []int{0, -1} {
		if lost, err := RunLossTrials(opts, topology.TC1, false, n); err == nil {
			t.Errorf("RunLossTrials(n=%d) = %v, want an error", n, lost)
		}
		if s, err := RunFailureTrials(opts, topology.TC1, n); err == nil {
			t.Errorf("RunFailureTrials(n=%d) = %+v, want an error", n, s)
		}
		if _, err := RunCell(opts, n, func(Options) (int, error) { return 1, nil }, func([]int) int { return 0 }); err == nil {
			t.Errorf("RunCell(n=%d) succeeded, want an error", n)
		}
	}
}

// TestWarmMemoScope holds the memo to its scope: one bring-up per
// configuration and trial seed within a sweep, none carried into the next,
// and no part in a bring-up made outside the trial pool.
func TestWarmMemoScope(t *testing.T) {
	// bench's grid loop at tiny scale: spec, protocol, failure case, then
	// the failure and the near and far loss cells.
	const n = 1
	specs := []topology.Spec{topology.TwoPodSpec()}
	protos := []Protocol{ProtoMRMTP, ProtoBGP, ProtoBGPBFD}
	grid := func() {
		for _, spec := range specs {
			for _, proto := range protos {
				opts := DefaultOptions(spec, proto, 1)
				for _, tc := range topology.AllFailureCases() {
					if _, err := RunFailureTrials(opts, tc, n); err != nil {
						t.Fatal(err)
					}
					for _, reverse := range []bool{false, true} {
						if _, err := RunLossTrials(opts, tc, reverse, n); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
		}
	}
	cells := len(specs) * len(protos) * len(topology.AllFailureCases()) * 3
	for pass := 1; pass <= 2; pass++ {
		w0, f0 := memo.counts()
		grid()
		w1, f1 := memo.counts()
		if got, want := w1-w0, len(specs)*len(protos)*n; got != want {
			t.Errorf("pass %d made %d bring-ups, want %d (specs × protocols × trials)", pass, got, want)
		}
		if got, want := f1-f0, cells*n; got != want {
			t.Errorf("pass %d made %d forks, want %d (one per trial)", pass, got, want)
		}
	}

	// A direct RunWorkload call brings its own fabric up.
	memo.mu.Lock()
	config, entries := memo.config, len(memo.entries)
	memo.mu.Unlock()
	w0, f0 := memo.counts()
	w := DefaultWorkloadConfig()
	w.Flows = 20
	if _, err := RunWorkload(DefaultOptions(topology.TwoPodSpec(), ProtoMRMTP, 1), w); err != nil {
		t.Fatal(err)
	}
	if w1, f1 := memo.counts(); w1 != w0 || f1 != f0 {
		t.Errorf("a direct RunWorkload made %d bring-ups and %d forks through the memo, want none", w1-w0, f1-f0)
	}
	memo.mu.Lock()
	if memo.config != config || len(memo.entries) != entries {
		t.Errorf("a direct RunWorkload changed the memo: %d entries, was %d", len(memo.entries), entries)
	}
	memo.mu.Unlock()

	// A change of configuration empties the memo.
	a := DefaultOptions(topology.TwoPodSpec(), ProtoMRMTP, 11)
	b := a
	b.MTPAccept = 1
	for _, opts := range []Options{a, b} {
		if _, err := RunFailureTrials(opts, topology.TC2, 2); err != nil {
			t.Fatal(err)
		}
	}
	memo.mu.Lock()
	defer memo.mu.Unlock()
	if len(memo.entries) != 2 {
		t.Errorf("memo holds %d snapshots after a 2-trial cell, want 2", len(memo.entries))
	}
	for key := range memo.entries {
		if key.MTPAccept != b.MTPAccept {
			t.Errorf("memo still holds a snapshot of the previous configuration (seed %d)", key.Seed)
		}
	}
}
