package workload

import (
	"math"
	"testing"
	"time"

	"repro/internal/ipstack"
	"repro/internal/simnet"
)

// storedSeries is one direction sampled as the Sampler did when it stored the
// whole 56-byte LinkSample a tick, Util computed from the link's bandwidth at
// the tick. It stays as the oracle of the 32-byte row and the derived Util.
type storedSeries struct {
	from                         *simnet.Port
	link                         *simnet.Link
	lastTx, lastDropB, lastFluid uint64
	samples                      []LinkSample
}

func (sr *storedSeries) sample(now, interval time.Duration) {
	tx := sr.from.Counters.TxBytes
	ls := sr.link.Stats(sr.from)
	fluid := sr.link.FluidBytes(sr.from, now)
	smp := LinkSample{
		TxBytes:    (tx - sr.lastTx) - (ls.OverflowBytes - sr.lastDropB),
		Queued:     ls.Queued,
		Drops:      ls.Overflows,
		Lost:       ls.Lost,
		Corrupted:  ls.Corrupted,
		FluidBytes: fluid - sr.lastFluid,
	}
	if bps := sr.link.Bandwidth(); bps > 0 {
		capacity := float64(bps) / 8 * interval.Seconds()
		smp.Util = float64(smp.TxBytes+smp.FluidBytes) / capacity
	}
	sr.lastTx = tx
	sr.lastDropB = ls.OverflowBytes
	sr.lastFluid = fluid
	sr.samples = append(sr.samples, smp)
}

// TestSampleMatchesStoredSample holds every sample the Sampler derives from
// its 32-byte rows to the LinkSample the 56-byte code stored, field by field
// and Util bit for bit, and its running peaks and drop total to the scans
// over those samples that they replaced. A test timer armed after the
// sampler's reads the counters at the sampler's instants, before anything
// else of that instant runs: traffic is offered half a millisecond off the
// tick grid. The sampled links are one shaped (overload with tail drops, a
// fluid reservation that changes twice, loss and corruption impairments) and
// one unshaped (Util 0) with impairments, both directions of each.
func TestSampleMatchesStoredSample(t *testing.T) {
	const interval = 10 * time.Millisecond
	sim := simnet.New(7)
	a, b, c := sim.AddNode("a"), sim.AddNode("b"), sim.AddNode("c")
	a.Handler, b.Handler, c.Handler = ipstack.New(a), ipstack.New(b), ipstack.New(c)
	shaped := sim.ConnectLatency(a.AddPort(), b.AddPort(), 0)
	shaped.SetBandwidth(8_000_000, 4) // 1 MB/s, 4-frame queue
	shaped.Impair(a.Port(1), simnet.Impairment{LossRate: 0.2, CorruptRate: 0.2})
	shaped.Impair(b.Port(1), simnet.Impairment{CorruptRate: 0.3})
	ideal := sim.ConnectLatency(a.AddPort(), c.AddPort(), 0)
	ideal.Impair(a.Port(2), simnet.Impairment{LossRate: 0.3, CorruptRate: 0.1})

	s := NewSampler(sim, interval)
	s.Watch(shaped)
	s.Watch(ideal)
	s.Start()
	var oracle []*storedSeries
	for _, l := range []*simnet.Link{shaped, ideal} {
		for _, from := range []*simnet.Port{l.A, l.B} {
			oracle = append(oracle, &storedSeries{
				from: from, link: l,
				lastTx: from.Counters.TxBytes, lastDropB: l.Stats(from).OverflowBytes, lastFluid: l.FluidBytes(from, sim.Now()),
			})
		}
	}
	var instants []time.Duration
	var tick *simnet.Timer
	tick = sim.After(interval, func() {
		instants = append(instants, sim.Now())
		for _, sr := range oracle {
			sr.sample(sim.Now(), interval)
		}
		tick.Reset(interval)
	})

	// Twice the shaped link's capacity for 150 ms, a trickle back, and a
	// steady stream on the ideal link; fresh buffers, since Send owns them.
	for i := 0; i < 150; i++ {
		at := time.Duration(i)*time.Millisecond + 500*time.Microsecond
		sim.At(at, func() {
			a.Port(1).Send(make([]byte, 1000))
			a.Port(1).Send(make([]byte, 1000))
			a.Port(2).Send(make([]byte, 700))
			if i%3 == 0 {
				b.Port(1).Send(make([]byte, 300))
			}
		})
	}
	sim.At(25500*time.Microsecond, func() { shaped.SetFluidLoad(a.Port(1), 2_000_000, sim.Now()) })
	sim.At(60500*time.Microsecond, func() { shaped.SetFluidLoad(b.Port(1), 3_000_000, sim.Now()) })
	sim.At(120500*time.Microsecond, func() { shaped.SetFluidLoad(a.Port(1), 500_000, sim.Now()) })
	sim.RunFor(250 * time.Millisecond)
	s.Stop()
	tick.Stop()

	series := s.Series()
	if len(series) != len(oracle) {
		t.Fatalf("%d series, the oracle samples %d", len(series), len(oracle))
	}
	var peakQueue int
	var peakUtil float64
	var drops uint64
	var seen LinkSample // the largest of each field anywhere, to show the run exercised it
	for col, sr := range series {
		want := oracle[col].samples
		if sr.Len() != len(want) {
			t.Fatalf("%s: %d samples, the oracle took %d", sr.Name, sr.Len(), len(want))
		}
		for i, w := range want {
			got := sr.Sample(i)
			if sr.At(i) != instants[i] {
				t.Fatalf("%s sample %d: at %v, the oracle's tick at %v", sr.Name, i, sr.At(i), instants[i])
			}
			if math.Float64bits(got.Util) != math.Float64bits(w.Util) {
				t.Fatalf("%s sample %d: Util %v (%#x), stored %v (%#x)", sr.Name, i, got.Util, math.Float64bits(got.Util), w.Util, math.Float64bits(w.Util))
			}
			if got != w {
				t.Fatalf("%s sample %d: %+v, stored %+v", sr.Name, i, got, w)
			}
			peakQueue = max(peakQueue, w.Queued)
			if w.Util > peakUtil {
				peakUtil = w.Util
			}
			seen.Queued = max(seen.Queued, w.Queued)
			seen.Util = max(seen.Util, w.Util)
			seen.Drops = max(seen.Drops, w.Drops)
			seen.Lost = max(seen.Lost, w.Lost)
			seen.Corrupted = max(seen.Corrupted, w.Corrupted)
			seen.FluidBytes = max(seen.FluidBytes, w.FluidBytes)
		}
		if n := len(want); n > 0 {
			drops += want[n-1].Drops
		}
	}
	if len(instants) < 20 {
		t.Fatalf("only %d ticks over 250 ms at a 10 ms cadence", len(instants))
	}
	if seen.Queued == 0 || seen.Util == 0 || seen.Drops == 0 || seen.Lost == 0 || seen.Corrupted == 0 || seen.FluidBytes == 0 {
		t.Fatalf("the run left a field at 0 in every sample, so the comparison shows nothing of it: %+v", seen)
	}
	if s.PeakQueue() != peakQueue || math.Float64bits(s.PeakUtil()) != math.Float64bits(peakUtil) || s.TotalDrops() != drops {
		t.Errorf("peak queue %d, peak util %v, drops %d; the scans of the stored samples read %d, %v, %d",
			s.PeakQueue(), s.PeakUtil(), s.TotalDrops(), peakQueue, peakUtil, drops)
	}
}

// TestNarrowPanicsPastRange: a counter a telemetry row cannot hold stops the
// run instead of wrapping.
func TestNarrowPanicsPastRange(t *testing.T) {
	if got := narrow(math.MaxUint32, "overflow"); got != math.MaxUint32 {
		t.Fatalf("narrow(2³²−1) = %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("narrow(2³²) returned")
		}
	}()
	narrow(math.MaxUint32+1, "overflow")
}
