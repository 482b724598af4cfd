package harness

import (
	"fmt"
	"runtime"
	"sync"
)

// Workers is the number of concurrent trials the multi-trial runners use:
// GOMAXPROCS, which the environment variable of that name sets. Trials are
// independent simulations, so they scale out to physical parallelism; set
// 1 to force sequential execution. The figures are
// identical either way: each trial's seed is a pure function of its index
// (TrialSeed) and results are collected by index, so a parallel run and a
// sequential run of the same configuration summarize bit-identically.
var Workers = runtime.GOMAXPROCS(0) //simlint:shared parallelism knob set by bench before trials start, read-only inside runTrials

// TrialSeed derives trial i's seed from the base seed. The stride is a
// prime, so that trials sample distinct timer phases instead of clustering,
// while staying a pure function of (base, i) — the property the parallel
// runner's determinism rests on.
func TrialSeed(base int64, i int) int64 { return base + int64(i)*7919 }

// runTrials evaluates fn for trial indices [0, n) on a bounded worker pool
// and returns the results ordered by index. Each invocation receives a copy
// of opts with the trial's derived seed, marked pooled so that its bring-up
// comes from the memo. Trials run sequentially on the calling goroutine
// when the pool is sized out (Workers <= 1). n < 1 is an error: no trial is
// no measurement, and a summary of none would read as one.
//
// On error the lowest-indexed failure is returned, which is the one a
// sequential stop-at-first-failure loop would have seen.
func runTrials[T any](opts Options, n int, fn func(o Options) (T, error)) ([]T, error) {
	if n < 1 {
		return nil, fmt.Errorf("harness: %d trials requested, want at least 1", n)
	}
	results := make([]T, n)
	errs := make([]error, n)
	run := func(i int) {
		o := opts
		o.Seed = TrialSeed(opts.Seed, i)
		o.pooled = true
		results[i], errs[i] = fn(o)
	}

	workers := Workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			run(i)
			if errs[i] != nil {
				return nil, errs[i]
			}
		}
		return results, nil
	}

	var wg sync.WaitGroup
	idx := make(chan int)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				run(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			return nil, errs[i]
		}
	}
	return results, nil
}

// CellID names one data point of a campaign: which protocol, on which
// topology, under which scenario. Result and summary types embed it, so the
// json tags here are the first three keys of every *-summary.json entry.
type CellID struct {
	Protocol Protocol `json:"protocol"`
	Pods     int      `json:"pods"`
	Scenario string   `json:"scenario"`
}

// Cell is one data point of an experiment — a (protocol, topology, scenario)
// combination — as the pooled summary plus the per-trial results behind it,
// in trial order. Every experiment family's artifacts render from cells.
type Cell[S, R any] struct {
	Summary S
	Trials  []R
}

// RunCell runs n seeds of one configuration over the trial pool and pools
// them with summarize, like the paper's "values averaged over multiple
// runs". Pooling is in trial order, so the cell is identical whatever the
// pool width. n < 1 is an error.
func RunCell[S, R any](opts Options, n int, trial func(Options) (R, error), summarize func([]R) S) (Cell[S, R], error) {
	rs, err := runTrials(opts, n, trial)
	if err != nil {
		return Cell[S, R]{}, err
	}
	return Cell[S, R]{Summary: summarize(rs), Trials: rs}, nil
}
