package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/budget"
)

func TestSummarizeKnown(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Mean != 5 {
		t.Errorf("N=%d mean=%v, want 8 and 5", s.N, s.Mean)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("min=%v max=%v", s.Min, s.Max)
	}
	// Sample standard deviation of this classic set is ~2.138.
	if math.Abs(s.StdDev-2.138) > 0.01 {
		t.Errorf("stddev = %v, want ~2.138", s.StdDev)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if s := Summarize(nil); s != (Summary{}) {
		t.Errorf("empty summary = %+v", s)
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty-sample helpers not zero")
	}
}

func TestPercentileEndpoints(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if Percentile(xs, 0) != 1 || Percentile(xs, 100) != 5 {
		t.Error("endpoint percentiles wrong")
	}
	if got := Percentile(xs, 50); got != 3 {
		t.Errorf("P50 = %v, want 3", got)
	}
	if got := Percentile(xs, 25); got != 2 {
		t.Errorf("P25 = %v, want 2", got)
	}
}

func TestQuantilesKnownSample(t *testing.T) {
	// 1..100: linear interpolation between closest ranks gives exact
	// closed-form values for every quantile the harness reports.
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	s := Summarize(xs)
	for _, tc := range []struct {
		name      string
		got, want float64
	}{
		{"P50", s.P50, 50.5},
		{"P95", s.P95, 95.05},
		{"P99", s.P99, 99.01},
		{"P999", s.P999, 99.901},
	} {
		if math.Abs(tc.got-tc.want) > 1e-9 {
			t.Errorf("%s = %v, want %v", tc.name, tc.got, tc.want)
		}
	}
	// A single-element sample pins every percentile to that element.
	one := Summarize([]float64{7})
	if one.P50 != 7 || one.P95 != 7 || one.P99 != 7 || one.P999 != 7 {
		t.Errorf("single-sample percentiles = %v/%v/%v/%v, want 7", one.P50, one.P95, one.P99, one.P999)
	}
}

// TestP99UnchangedByP999 pins the regression contract for adding P999:
// every previously-reported quantile must stay bit-identical to the direct
// Percentile computation it has always used — adding a field must not
// perturb existing figure values.
func TestP99UnchangedByP999(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		s := Summarize(xs)
		return s.P50 == Percentile(xs, 50) &&
			s.P95 == Percentile(xs, 95) &&
			s.P99 == Percentile(xs, 99) &&
			s.P999 == Percentile(xs, 99.9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// One pinned literal so a change to Percentile itself also trips.
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Summarize(xs).P99; got != Percentile(xs, 99) || math.Abs(got-8.86) > 1e-9 {
		t.Errorf("P99 = %v, want 8.86 exactly", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{5, 1, 3}
	Percentile(xs, 50)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Error("Percentile sorted the caller's slice")
	}
}

func TestSummaryProperties(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		s := Summarize(xs)
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		return s.Min == sorted[0] &&
			s.Max == sorted[len(sorted)-1] &&
			s.Min <= s.Mean && s.Mean <= s.Max &&
			s.Min <= s.P50 && s.P50 <= s.P95 && s.P95 <= s.P99 && s.P99 <= s.P999 && s.P999 <= s.Max &&
			s.StdDev >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestString(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	if got := s.String(); got == "" {
		t.Error("empty String()")
	}
}

// A single sample pins every percentile: with one closest rank there is
// nothing to interpolate toward, so P50 through P999 all answer the sample.
func TestSummarizeSingleSample(t *testing.T) {
	s := Summarize([]float64{42.5})
	if s.N != 1 {
		t.Fatalf("n=%d, want 1", s.N)
	}
	for name, got := range map[string]float64{
		"mean": s.Mean, "min": s.Min, "max": s.Max,
		"p50": s.P50, "p95": s.P95, "p99": s.P99, "p999": s.P999,
	} {
		if got != 42.5 {
			t.Errorf("%s = %v, want 42.5", name, got)
		}
	}
	if s.StdDev != 0 {
		t.Errorf("stddev = %v, want 0 for n=1", s.StdDev)
	}
}

// Tail percentiles on tiny samples (n < 10) must stay within the observed
// range and keep their ordering — the closest-rank interpolation has fewer
// points than the percentile resolution implies.
func TestSummarizeTinySamples(t *testing.T) {
	for n := 2; n < 10; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		s := Summarize(xs)
		if s.P99 < s.P95 || s.P999 < s.P99 || s.P999 > s.Max {
			t.Errorf("n=%d: percentile ordering broken: p95=%v p99=%v p999=%v max=%v",
				n, s.P95, s.P99, s.P999, s.Max)
		}
		// With n points the top percentiles interpolate inside the last
		// inter-sample gap: strictly above the second-largest sample.
		if s.P999 <= float64(n-1) {
			t.Errorf("n=%d: p999 = %v, want inside the top gap (%d, %d]", n, s.P999, n-1, n)
		}
	}
}

// Constant samples collapse the whole summary to the constant with zero
// spread, regardless of sample count.
func TestSummarizeConstantSamples(t *testing.T) {
	for _, n := range []int{3, 7, 100} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = 6.25
		}
		s := Summarize(xs)
		for name, got := range map[string]float64{
			"mean": s.Mean, "min": s.Min, "max": s.Max,
			"p50": s.P50, "p95": s.P95, "p99": s.P99, "p999": s.P999,
		} {
			if got != 6.25 {
				t.Errorf("n=%d: %s = %v, want the constant 6.25", n, name, got)
			}
		}
		if s.StdDev != 0 {
			t.Errorf("n=%d: stddev = %v, want exactly 0", n, s.StdDev)
		}
	}
}

// TestSortedPercentileMatchesPercentile holds the sorted-sample read to
// Percentile, the copy-and-sort oracle, at arbitrary ranks.
func TestSortedPercentileMatchesPercentile(t *testing.T) {
	f := func(raw []int16, p uint16) bool {
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		q := float64(p%1100)/10 - 2 // spans below 0 and above 100
		return SortedPercentile(sorted, q) == Percentile(xs, q)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSummarizeSortsOnce: every quantile comes from one sorted copy, the
// one object Summarize allocates.
func TestSummarizeSortsOnce(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64((i * 7919) % 1000)
	}
	if allocs, bytes := budget.PerRun(50, func() { Summarize(xs) }); allocs != 1 || bytes != 8*1024 {
		t.Errorf("Summarize of 1000 samples: %d objects, %d bytes per call; want 1 and 8192 (one sorted copy)", allocs, bytes)
	}
}
