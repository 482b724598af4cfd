package workload

import (
	"fmt"
	"math"
)

// SizeDist draws flow sizes. Sample is an inverse-CDF transform: the caller
// supplies u ∈ [0,1) from its own random source, so a distribution is pure
// data and every draw is reproducible from the generator's seed.
type SizeDist interface {
	Name() string
	// Sample returns a flow size in bytes for the quantile u.
	Sample(u float64) int
}

// FixedSize is the degenerate distribution: every flow carries the same
// number of bytes. Used by tests and the incast pattern's classic form.
type FixedSize int

// Name implements SizeDist.
func (f FixedSize) Name() string { return fmt.Sprintf("fixed-%dB", int(f)) }

// Sample implements SizeDist.
func (f FixedSize) Sample(float64) int { return int(f) }

// cdfPoint anchors an empirical CDF: cum of the flows are at most bytes.
type cdfPoint struct {
	bytes float64
	cum   float64
}

// empirical interpolates log-linearly between anchor points, the standard
// way DCN studies (DCTCP, FatPaths) encode measured flow-size mixes. Flow
// sizes below the first anchor start at minBytes.
type empirical struct {
	name     string
	minBytes float64
	points   []cdfPoint
}

func (e empirical) Name() string { return e.name }

func (e empirical) Sample(u float64) int {
	if u < 0 {
		u = 0
	}
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	prev := cdfPoint{bytes: e.minBytes, cum: 0}
	for _, p := range e.points {
		if u <= p.cum {
			frac := (u - prev.cum) / (p.cum - prev.cum)
			b := math.Exp(math.Log(prev.bytes) + frac*(math.Log(p.bytes)-math.Log(prev.bytes)))
			return int(math.Ceil(b))
		}
		prev = p
	}
	return int(e.points[len(e.points)-1].bytes)
}

// WebSearchMix approximates the web-search workload shape every DCN
// load-balancing study stresses: most flows are short queries, a heavy tail
// of multi-hundred-KB responses carries most of the bytes. The anchors are
// scaled so a simulated run stays in the tens of thousands of packets while
// keeping ~50% of bytes in the top decile of flows.
func WebSearchMix() SizeDist {
	return empirical{
		name:     "websearch",
		minBytes: 200,
		points: []cdfPoint{
			{1_000, 0.15},
			{5_000, 0.35},
			{10_000, 0.55},
			{30_000, 0.75},
			{100_000, 0.90},
			{300_000, 0.97},
			{1_000_000, 1.0},
		},
	}
}

// CacheMix approximates a cache-follower workload: overwhelmingly tiny
// object reads with rare large fills.
func CacheMix() SizeDist {
	return empirical{
		name:     "cache",
		minBytes: 128,
		points: []cdfPoint{
			{512, 0.40},
			{1_000, 0.60},
			{2_000, 0.75},
			{5_000, 0.85},
			{20_000, 0.93},
			{100_000, 0.98},
			{500_000, 1.0},
		},
	}
}

// Pattern selects how flow endpoints are paired.
type Pattern int

// Traffic patterns from the DCN load-balancing literature.
const (
	// PatternRandom pairs a uniformly random source with a uniformly
	// random destination in a different rack — the all-to-all mix.
	PatternRandom Pattern = iota
	// PatternPermutation fixes a rack-shifting derangement and cycles
	// sources through it: every host sends to one fixed partner, the
	// worst case for a static hash with few flows.
	PatternPermutation
	// PatternIncast points every flow at one victim host, the
	// many-to-one pattern that stresses the victim's rack egress queue.
	PatternIncast
)

func (p Pattern) String() string {
	switch p {
	case PatternRandom:
		return "random"
	case PatternPermutation:
		return "permutation"
	case PatternIncast:
		return "incast"
	}
	return fmt.Sprintf("Pattern(%d)", int(p))
}
