package workload

import (
	"fmt"
	"math"
	"time"

	"repro/internal/invariant"
	"repro/internal/simnet"
)

// LinkSample is one observation of one transmit direction of a link. Its
// instant is the tick's, LinkSeries.At.
type LinkSample struct {
	// TxBytes accepted into the serializer in the interval ending at At:
	// bytes offered by the sender minus egress tail-drops.
	TxBytes uint64
	// Util is TxBytes as a fraction of what the direction could carry in
	// the interval (0 when the link is unshaped, i.e. infinite capacity).
	Util float64
	// Queued is the egress-queue depth at sampling time.
	Queued int
	// Drops is the cumulative overflow-drop count for this direction.
	Drops uint64
	// Lost is the cumulative count of frames dropped in this direction by
	// loss injection (link loss, impairments, one-way faults).
	Lost uint64
	// Corrupted is the cumulative count of frames corrupted in this
	// direction by impairment injection.
	Corrupted uint64
	// FluidBytes is the bytes the fluid engine's reservation carried on
	// this direction in the interval (0 in packet mode). Util already
	// includes them.
	FluidBytes uint64
}

// LinkSeries is the time series of one link direction: one column of its
// Sampler's rows, read through Len, At and Sample.
type LinkSeries struct {
	Name string // "L-1-1:eth1->S-1-1:eth3"

	s         *Sampler
	col       int // index into each row
	from      *simnet.Port
	link      *simnet.Link
	bps       int64 // the link's bandwidth at Start, which Util divides by
	lastTx    uint64
	lastDropB uint64
	lastFluid uint64
}

// sampleRow is what a tick stores of one series: the two interval byte counts
// and the four counters LinkSample reports, narrowed to 32 bits (narrow
// panics past the range), in 32 bytes and no pointer. Util is derived when
// the sample is read.
type sampleRow struct {
	tx, fluid              uint64
	queued                 int32
	drops, lost, corrupted uint32
}

// PoolSample is one observation of the engine's frame-pool occupancy.
// A monotonic InUse climb on a closed workload is a leaked buffer.
//
// Peak is the running maximum of the sampled InUse values (not the pool's
// internal high-water mark, which also sees between-sample spikes) and
// Recycled counts buffers returned for reuse (not the pool's bucket hits);
// the workload-telemetry.csv artifacts pin both definitions.
type PoolSample struct {
	At time.Duration
	// InUse is the number of lent pool buffers not yet returned.
	InUse int
	// Peak is the high-water mark of sampled InUse.
	Peak int
	// Recycled is the cumulative count of buffers returned to the pool
	// for reuse.
	Recycled uint64
}

// Len is the number of samples taken.
func (sr *LinkSeries) Len() int { return len(sr.s.rows) }

// At is the instant of sample i.
func (sr *LinkSeries) At(i int) time.Duration { return sr.s.pool[i].At }

// Sample returns sample i.
func (sr *LinkSeries) Sample(i int) LinkSample {
	r := &sr.s.rows[i][sr.col]
	return LinkSample{
		TxBytes:    r.tx,
		Util:       sr.util(r.tx, r.fluid),
		Queued:     int(r.queued),
		Drops:      uint64(r.drops),
		Lost:       uint64(r.lost),
		Corrupted:  uint64(r.corrupted),
		FluidBytes: r.fluid,
	}
}

// util is the interval's tx and fluid bytes as a fraction of what the
// direction could carry in it: 0 on an unshaped link. Utilization counts
// both engines' traffic: real packet bytes plus the fluid reservation's
// carried bytes.
func (sr *LinkSeries) util(tx, fluid uint64) float64 {
	if sr.bps <= 0 {
		return 0
	}
	capacity := float64(sr.bps) / 8 * sr.s.interval.Seconds()
	return float64(tx+fluid) / capacity
}

// narrow stores a counter in 32 bits, and panics on one that does not fit.
func narrow(v uint64, what string) uint32 {
	if v > math.MaxUint32 {
		panic(fmt.Sprintf("workload: %s counter %d does not fit a telemetry row's 32 bits", what, v))
	}
	return uint32(v)
}

// Sampler polls link counters on a fixed virtual-time cadence: the
// utilization / queue-depth / drop telemetry a production fabric would
// scrape from switch ASICs. It also snapshots frame-pool occupancy each
// tick so buffer leaks show up in the same time series.
//
// Each tick stores one row, made at its exact size: a 32-byte sampleRow per
// watched direction, in Watch order. A row is written once and never copied,
// and the tick's instant is stored once, in its pool sample. The peaks and
// the drop total accumulate as the ticks are taken.
type Sampler struct {
	sim      *simnet.Sim
	interval time.Duration
	series   []*LinkSeries
	rows     [][]sampleRow // rows[i][col]: tick i of series col
	pool     []PoolSample  // one per tick, At the tick's instant
	poolPeak int
	timer    *simnet.Timer

	peakQueue int
	peakUtil  float64
	drops     uint64 // the last tick's overflow drops, summed over the series
}

// NewSampler creates a sampler polling every interval (positive) once started.
func NewSampler(sim *simnet.Sim, interval time.Duration) *Sampler {
	return &Sampler{sim: sim, interval: interval}
}

// Watch adds both directions of a link to the sample set. Call before Start:
// every row holds every series.
func (s *Sampler) Watch(l *simnet.Link) {
	if s.timer != nil {
		panic("workload: Sampler.Watch after Start")
	}
	add := func(from, to *simnet.Port) {
		s.series = append(s.series, &LinkSeries{
			Name: fmt.Sprintf("%s->%s", from.Name(), to.Name()),
			s:    s,
			col:  len(s.series),
			from: from,
			link: l,
		})
	}
	add(l.A, l.B)
	add(l.B, l.A)
}

// Start records the baseline and begins sampling. Call after Watch.
func (s *Sampler) Start() {
	for _, sr := range s.series {
		sr.bps = sr.link.Bandwidth()
		sr.lastTx = sr.from.Counters.TxBytes
		sr.lastDropB = s.link(sr).OverflowBytes
		sr.lastFluid = sr.link.FluidBytes(sr.from, s.sim.Now())
	}
	s.timer = s.sim.After(s.interval, s.sample)
}

// Stop ends sampling.
func (s *Sampler) Stop() {
	if s.timer != nil {
		s.timer.Stop()
	}
}

func (s *Sampler) sample() {
	now := s.sim.Now()
	row := make([]sampleRow, len(s.series))
	var drops uint64
	for i, sr := range s.series {
		if invariant.Enabled {
			invariant.Assertf(sr.link.Bandwidth() == sr.bps,
				"workload: %s changed bandwidth from %d to %d bps while sampled", sr.Name, sr.bps, sr.link.Bandwidth())
		}
		tx := sr.from.Counters.TxBytes
		ls := s.link(sr)
		fluid := sr.link.FluidBytes(sr.from, now)
		if ls.Queued > math.MaxInt32 {
			panic(fmt.Sprintf("workload: %s queue depth %d does not fit a telemetry row's 32 bits", sr.Name, ls.Queued))
		}
		r := &row[i]
		*r = sampleRow{
			tx:        (tx - sr.lastTx) - (ls.OverflowBytes - sr.lastDropB),
			fluid:     fluid - sr.lastFluid,
			queued:    int32(ls.Queued),
			drops:     narrow(ls.Overflows, "overflow"),
			lost:      narrow(ls.Lost, "loss"),
			corrupted: narrow(ls.Corrupted, "corruption"),
		}
		s.peakQueue = max(s.peakQueue, ls.Queued)
		if u := sr.util(r.tx, r.fluid); u > s.peakUtil {
			s.peakUtil = u
		}
		drops += ls.Overflows
		sr.lastTx = tx
		sr.lastDropB = ls.OverflowBytes
		sr.lastFluid = fluid
	}
	s.drops = drops
	s.rows = append(s.rows, row)
	fs := s.sim.FrameStats()
	if len(s.pool) == 0 || fs.InUse > s.poolPeak {
		s.poolPeak = fs.InUse
	}
	s.pool = append(s.pool, PoolSample{At: now, InUse: fs.InUse, Peak: s.poolPeak, Recycled: fs.Returned})
	s.timer.Reset(s.interval)
}

func (s *Sampler) link(sr *LinkSeries) simnet.LinkStats {
	return sr.link.Stats(sr.from)
}

// Series returns every watched direction's time series.
func (s *Sampler) Series() []*LinkSeries { return s.series }

// PoolSeries returns the sampled frame-pool occupancy over the run.
func (s *Sampler) PoolSeries() []PoolSample { return s.pool }

// PeakQueue returns the deepest egress queue observed across all series.
func (s *Sampler) PeakQueue() int { return s.peakQueue }

// PeakUtil returns the highest per-interval utilization observed.
func (s *Sampler) PeakUtil() float64 { return s.peakUtil }

// TotalDrops sums the final cumulative overflow drops across all series.
func (s *Sampler) TotalDrops() uint64 { return s.drops }

// --- uplink load balance ----------------------------------------------------

// Group is one set of equal-cost uplinks (a device's uplink ports): the
// unit over which hashing is supposed to spread load.
type Group struct {
	Name  string
	Ports []*simnet.Port
}

// GroupLoad is the measured spread of one group.
type GroupLoad struct {
	Name  string
	Bytes []uint64 // per uplink, since the meter's baseline
	// MaxOverMean is the classic imbalance index: 1.0 is perfect. Groups
	// that carried nothing report 1.0.
	MaxOverMean float64
	// Jain is Jain's fairness index: 1.0 is perfect, 1/n is worst.
	Jain float64
}

// LoadMeter measures per-uplink byte spread between two instants: it
// snapshots TxBytes (and fluid-reservation) baselines at creation and
// computes indices at Read, so the balance indices see both engines'
// traffic.
type LoadMeter struct {
	sim    *simnet.Sim
	groups []Group
	base   [][]uint64
}

// NewLoadMeter snapshots the baseline transmit counters of every group.
// sim supplies the clock the fluid byte integrals are read at.
func NewLoadMeter(sim *simnet.Sim, groups []Group) *LoadMeter {
	m := &LoadMeter{sim: sim, groups: groups}
	now := sim.Now()
	for _, g := range groups {
		base := make([]uint64, len(g.Ports))
		for i, p := range g.Ports {
			base[i] = p.Counters.TxBytes + p.Link.FluidBytes(p, now)
		}
		m.base = append(m.base, base)
	}
	return m
}

// Read computes each group's byte spread since the baseline, in group
// order.
func (m *LoadMeter) Read() []GroupLoad {
	now := m.sim.Now()
	out := make([]GroupLoad, 0, len(m.groups))
	for gi, g := range m.groups {
		gl := GroupLoad{Name: g.Name, Bytes: make([]uint64, len(g.Ports))}
		var total, max uint64
		var sumSq float64
		for i, p := range g.Ports {
			b := p.Counters.TxBytes + p.Link.FluidBytes(p, now) - m.base[gi][i]
			gl.Bytes[i] = b
			total += b
			if b > max {
				max = b
			}
			sumSq += float64(b) * float64(b)
		}
		if total == 0 || len(g.Ports) == 0 {
			gl.MaxOverMean, gl.Jain = 1, 1
		} else {
			mean := float64(total) / float64(len(g.Ports))
			gl.MaxOverMean = float64(max) / mean
			gl.Jain = float64(total) * float64(total) / (float64(len(g.Ports)) * sumSq)
		}
		out = append(out, gl)
	}
	return out
}
