// Package stats provides the small set of descriptive statistics the
// experiment harness reports: the paper plots values "averaged over
// multiple runs", and per-trial spread (min/max/percentiles) is what tells
// a reader whether a mean is trustworthy.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary describes a sample of measurements.
type Summary struct {
	N      int
	Mean   float64
	Min    float64
	Max    float64
	StdDev float64
	P50    float64
	P95    float64
	P99    float64
	// P999 resolves the extreme tail: chaos campaigns produce
	// distributions whose interesting mass (blackhole outliers, dampened
	// reconvergence stragglers) sits beyond the 99th percentile.
	P999 float64
}

// Summarize computes a Summary. An empty sample yields the zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	for _, x := range xs {
		s.Mean += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean /= float64(len(xs))
	var sq float64
	for _, x := range xs {
		d := x - s.Mean
		sq += d * d
	}
	if len(xs) > 1 {
		s.StdDev = math.Sqrt(sq / float64(len(xs)-1))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.P50 = SortedPercentile(sorted, 50)
	s.P95 = SortedPercentile(sorted, 95)
	s.P99 = SortedPercentile(sorted, 99)
	s.P999 = SortedPercentile(sorted, 99.9)
	return s
}

// Percentile returns the p-th percentile (0..100) using linear
// interpolation between closest ranks. It does not modify xs. It sorts a
// copy of xs on every call; a caller reading several quantiles of one
// sample sorts once and reads them with SortedPercentile.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return SortedPercentile(sorted, p)
}

// SortedPercentile is Percentile of a sample already sorted in ascending
// order.
func SortedPercentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// String renders "mean=… [min=…, p50=…, p95=…, p99=…, p999=…, max=…] n=…".
func (s Summary) String() string {
	return fmt.Sprintf("mean=%.2f [min=%.2f p50=%.2f p95=%.2f p99=%.2f p999=%.2f max=%.2f] n=%d",
		s.Mean, s.Min, s.P50, s.P95, s.P99, s.P999, s.Max, s.N)
}
