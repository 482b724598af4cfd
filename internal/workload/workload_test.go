package workload

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/fluid"
	"repro/internal/ipstack"
	"repro/internal/netaddr"
	"repro/internal/simnet"
)

func TestSizeDistBoundedAndMonotonic(t *testing.T) {
	for _, dist := range []SizeDist{WebSearchMix(), CacheMix()} {
		prev := 0
		for i := 0; i <= 1000; i++ {
			u := float64(i) / 1000
			b := dist.Sample(u)
			if b < prev {
				t.Fatalf("%s: Sample not monotonic at u=%.3f: %d < %d", dist.Name(), u, b, prev)
			}
			prev = b
		}
		if min := dist.Sample(0); min < 64 {
			t.Errorf("%s: Sample(0) = %d, implausibly small", dist.Name(), min)
		}
		if max := dist.Sample(0.9999999); max > 1_000_001 {
			t.Errorf("%s: Sample(~1) = %d, above the top anchor", dist.Name(), max)
		}
	}
	if got := FixedSize(5000).Sample(0.7); got != 5000 {
		t.Errorf("FixedSize sample = %d", got)
	}
}

func TestSizeDistHeavyTail(t *testing.T) {
	// The websearch mix must put the majority of bytes in the large
	// minority of flows — the property that makes hashing collisions
	// visible in byte imbalance.
	dist := WebSearchMix()
	rng := rand.New(rand.NewSource(7))
	var total, topDecile float64
	var sizes []float64
	for i := 0; i < 20000; i++ {
		sizes = append(sizes, float64(dist.Sample(rng.Float64())))
	}
	for _, s := range sizes {
		total += s
	}
	sorted := append([]float64(nil), sizes...)
	sort.Float64s(sorted)
	cut := sorted[len(sorted)*9/10]
	for _, s := range sizes {
		if s >= cut {
			topDecile += s
		}
	}
	if frac := topDecile / total; frac < 0.4 {
		t.Errorf("top-decile flows carry %.2f of bytes, want heavy tail (>0.4)", frac)
	}
}

// rig is a minimal two-rack testbed: two hosts joined by one router.
type rig struct {
	sim    *simnet.Sim
	hosts  []Host
	router *simnet.Node
}

func newRig(t testing.TB, seed int64) *rig {
	t.Helper()
	sim := simnet.New(seed)
	a, r, b := sim.AddNode("h-a"), sim.AddNode("router"), sim.AddNode("h-b")
	sa, sr, sb := ipstack.New(a), ipstack.New(r), ipstack.New(b)
	sim.Connect(a.AddPort(), r.AddPort())
	sim.Connect(r.AddPort(), b.AddPort())
	s1 := netaddr.MakePrefix(netaddr.MakeIPv4(10, 1, 0, 0), 24)
	s2 := netaddr.MakePrefix(netaddr.MakeIPv4(10, 2, 0, 0), 24)
	i1 := sa.AddIface(a.Port(1), s1.Host(1), s1)
	sr.AddIface(r.Port(1), s1.Host(254), s1)
	sr.AddIface(r.Port(2), s2.Host(254), s2)
	i2 := sb.AddIface(b.Port(1), s2.Host(1), s2)
	sa.AddDefaultRoute(s1.Host(254), i1)
	sb.AddDefaultRoute(s2.Host(254), i2)
	return &rig{
		sim: sim,
		hosts: []Host{
			{Stack: sa, IP: s1.Host(1), Name: "h-a", Rack: "ra"},
			{Stack: sb, IP: s2.Host(1), Name: "h-b", Rack: "rb"},
		},
		router: r,
	}
}

func smallConfig(seed int64) Config {
	cfg := DefaultConfig(seed)
	cfg.Flows = 12
	cfg.Sizes = FixedSize(4000)
	cfg.MeanArrival = 2 * time.Millisecond
	return cfg
}

// hybridConfig is smallConfig as a hybrid run of a websearch mix — mice on
// packets, the rest fluid — over one uncontended solver link; resolves says
// which flows find a path.
func hybridConfig(flows int, resolves func(*Flow) bool) Config {
	cfg := smallConfig(5)
	cfg.Flows = flows
	cfg.Sizes = WebSearchMix()
	cfg.Mode = ModeHybrid
	cfg.FluidCutoff = 20_000
	cfg.Solver = fluid.New(fluid.Config{RateCapBps: 1e8})
	path := []fluid.LinkID{cfg.Solver.AddLink(1_000_000_000, nil)}
	cfg.PathOf = func(f *Flow) ([]fluid.LinkID, time.Duration, bool) {
		return path, 200 * time.Microsecond, resolves(f)
	}
	return cfg
}

// TestDefaultConfigSeedsTheSchedule: DefaultConfig's seed drives the flow
// schedule — two seeds draw different arrivals and pairings, one seed the
// same schedule twice.
func TestDefaultConfigSeedsTheSchedule(t *testing.T) {
	schedule := func(seed int64) (starts []time.Duration, pairs [][2]uint16) {
		e, err := New(nil, newRig(t, 1).hosts, DefaultConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range e.flows {
			starts = append(starts, f.Start)
			pairs = append(pairs, [2]uint16{f.Src, f.Dst})
		}
		return starts, pairs
	}
	starts1, pairs1 := schedule(1)
	starts2, pairs2 := schedule(2)
	if slices.Equal(starts1, starts2) || slices.Equal(pairs1, pairs2) {
		t.Error("seeds 1 and 2 drew the same arrivals or the same pairings")
	}
	again, pairsAgain := schedule(2)
	if !slices.Equal(starts2, again) || !slices.Equal(pairs2, pairsAgain) {
		t.Error("seed 2 drew two different schedules")
	}
}

// TestNewRefusals: every configuration New refuses is refused with an error
// naming its own fault. A flow slot holds its hosts as uint16, its size as
// int32 and its packet state as an int32 index, so counts and sizes past
// that are refused rather than wrapped.
func TestNewRefusals(t *testing.T) {
	two := make([]Host, 2)
	real := newRig(t, 1).hosts
	past := int64(math.MaxInt32) + 1
	with := func(edit func(*Config)) Config {
		cfg := DefaultConfig(1)
		edit(&cfg)
		return cfg
	}
	path := func(*Flow) ([]fluid.LinkID, time.Duration, bool) { return nil, 0, false }
	for _, c := range []struct {
		name  string
		hosts []Host
		cfg   Config
		want  string
	}{
		{"no hosts", nil, DefaultConfig(1), "need at least 2 hosts, got 0"},
		{"one host", make([]Host, 1), DefaultConfig(1), "need at least 2 hosts, got 1"},
		{"hosts past uint16", make([]Host, math.MaxUint16+1), DefaultConfig(1), "65536 hosts do not fit"},
		{"no flows", two, with(func(c *Config) { c.Flows = 0 }), "need at least 1 flow, got 0"},
		{"negative flows", two, with(func(c *Config) { c.Flows = -3 }), "need at least 1 flow, got -3"},
		{"no size distribution", two, with(func(c *Config) { c.Sizes = nil }), "no flow size distribution"},
		{"fluid without Solver", two, with(func(c *Config) { c.Mode, c.PathOf = ModeFluid, path }), "fluid mode needs a Solver"},
		{"hybrid without Solver", two, with(func(c *Config) { c.Mode, c.PathOf = ModeHybrid, path }), "hybrid mode needs a Solver"},
		{"fluid without PathOf", two, with(func(c *Config) { c.Mode, c.Solver = ModeFluid, &fluid.Solver{} }), "fluid mode needs a PathOf"},
		{"hybrid without PathOf", two, with(func(c *Config) { c.Mode, c.Solver = ModeHybrid, &fluid.Solver{} }), "hybrid mode needs a PathOf"},
		{"flows past int32", two, with(func(c *Config) { c.Flows = int(past) }), "2147483648 flows do not fit"},
		{"size past int32", real, with(func(c *Config) { c.Sizes = FixedSize(past) }), "fixed-2147483648B drew 2147483648 bytes for flow 1"},
	} {
		e, err := New(nil, c.hosts, c.cfg)
		if e != nil || err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: New = %v, %v; want a refusal containing %q", c.name, e, err, c.want)
		}
	}
}

// TestNewTakesTheLargestSlot: the largest size a slot holds is accepted whole.
func TestNewTakesTheLargestSlot(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.Flows = 1
	cfg.Sizes = FixedSize(math.MaxInt32)
	e, err := New(nil, newRig(t, 1).hosts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if f := e.flows[0]; f.Bytes != math.MaxInt32 || f.Packets() != 2_147_484 {
		t.Errorf("a %d-byte flow holds %d bytes in %d packets", math.MaxInt32, f.Bytes, f.Packets())
	}
}

func TestEngineCompletesAllFlows(t *testing.T) {
	w := newRig(t, 1)
	e, err := New(nil, w.hosts, smallConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	w.sim.RunFor(2 * time.Second)
	if !e.Done() {
		t.Fatal("engine not done after 2s of virtual time")
	}
	r := e.Report(nil)
	if r.Completed != r.Flows || r.Abandoned != 0 || r.Incomplete != 0 {
		t.Fatalf("report %+v, want all %d complete", r, r.Flows)
	}
	if r.Retransmits != 0 {
		t.Errorf("lossless path needed %d retransmits", r.Retransmits)
	}
	if r.CompletionRate() != 1 {
		t.Errorf("completion rate = %v", r.CompletionRate())
	}
	// 4000B at 1000B packets = 4 packets per flow.
	if want := uint64(12 * 4); r.PacketsSent != want {
		t.Errorf("packets sent = %d, want %d", r.PacketsSent, want)
	}
	var fct int
	for _, b := range r.Buckets {
		fct += len(b.FCTms)
		for _, ms := range b.FCTms {
			if ms <= 0 {
				t.Errorf("bucket %s has non-positive FCT %v", b.Label, ms)
			}
		}
	}
	if fct != r.Completed {
		t.Errorf("bucketed FCT count %d != completed %d", fct, r.Completed)
	}
}

func TestEngineDeterministic(t *testing.T) {
	run := func() Report {
		w := newRig(t, 1)
		cfg := smallConfig(5)
		cfg.Sizes = WebSearchMix()
		e, err := New(nil, w.hosts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.Start()
		w.sim.RunFor(5 * time.Second)
		return e.Report(nil)
	}
	r1, r2 := run(), run()
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("same seed, different reports:\n%+v\n%+v", r1, r2)
	}
}

func TestEngineRepairsAcrossOutage(t *testing.T) {
	// Black-hole the path while flows are in flight; the repair rounds
	// must finish every flow once the path heals, with the stall visible
	// in the FCT tail.
	w := newRig(t, 1)
	cfg := smallConfig(7)
	cfg.Flows = 6
	cfg.MeanArrival = 5 * time.Millisecond
	e, err := New(nil, w.hosts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	w.sim.RunFor(10 * time.Millisecond)
	w.router.Port(2).Fail()
	w.sim.RunFor(300 * time.Millisecond)
	w.router.Port(2).Restore()
	w.sim.RunFor(5 * time.Second)
	if !e.Done() {
		t.Fatal("flows not repaired after the outage healed")
	}
	r := e.Report(nil)
	if r.Completed != r.Flows {
		t.Fatalf("completed %d/%d", r.Completed, r.Flows)
	}
	if r.Retransmits == 0 {
		t.Error("outage produced no retransmits")
	}
	maxFCT := 0.0
	for _, b := range r.Buckets {
		for _, ms := range b.FCTms {
			if ms > maxFCT {
				maxFCT = ms
			}
		}
	}
	if maxFCT < 250 {
		t.Errorf("max FCT %.1fms does not reflect the ~300ms outage", maxFCT)
	}
}

// finishedScan is the scan Engine.Done's counter replaced.
func finishedScan(e *Engine) int {
	n := 0
	for _, f := range e.flows {
		if f.Done() || f.Abandoned() {
			n++
		}
	}
	return n
}

// TestDoneCounterMatchesScan holds Engine.Done's completion counter against
// the scan it replaced, mid-run and at the end of a packet, a fluid and a
// hybrid run in which flows finish by every route: delivered, completed by
// the solver, abandoned for want of a path, abandoned after MaxRounds into
// a blackhole.
func TestDoneCounterMatchesScan(t *testing.T) {
	for _, mode := range []Mode{ModePacket, ModeFluid, ModeHybrid} {
		w := newRig(t, 1)
		cfg := smallConfig(5)
		cfg.Flows = 40
		cfg.Sizes = WebSearchMix()
		cfg.Mode = mode
		cfg.FluidCutoff = 20_000
		cfg.RTO = 2 * time.Millisecond
		cfg.MaxRounds = 3
		if mode != ModePacket {
			cfg.Solver = fluid.New(fluid.Config{RateCapBps: 1e8})
			link := cfg.Solver.AddLink(1_000_000_000, func(int64, time.Duration) {})
			// A flow's SrcPort is 19 999 + its ID, and 7 divides 19 999:
			// every seventh flow by ID finds no path.
			cfg.PathOf = func(f *Flow) ([]fluid.LinkID, time.Duration, bool) {
				return []fluid.LinkID{link}, 200 * time.Microsecond, f.SrcPort%7 != 0
			}
		}
		e, err := New(nil, w.hosts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		check := func(when string) {
			t.Helper()
			if scan := finishedScan(e); e.finished != scan {
				t.Fatalf("%s, %s: counter says %d flows finished, scan says %d", mode, when, e.finished, scan)
			}
		}
		e.Start()
		w.sim.RunFor(20 * time.Millisecond)
		check("before the outage")
		w.router.Port(2).Fail() // three 2 ms repair rounds give up inside it
		w.sim.RunFor(30 * time.Millisecond)
		check("in the outage")
		w.router.Port(2).Restore()
		w.sim.RunFor(5 * time.Second)
		check("at the end")
		if !e.Done() {
			t.Fatalf("%s: engine not done; %d of %d finished", mode, e.finished, len(e.flows))
		}
		r := e.Report(nil)
		if mode != ModeFluid && r.Abandoned == 0 {
			t.Errorf("%s: the outage abandoned no packet flow; the MaxRounds exit went untested", mode)
		}
		if mode != ModePacket && r.Abandoned == 0 {
			t.Errorf("%s: no flow was abandoned for want of a path", mode)
		}
	}
}

// TestReportFCTsInGenerationOrder holds Report's two passes to the plain scan
// they replaced: each bucket's FCT sample lists its completed flows in
// flow-generation order — the artifacts and the benchmark's digest hash them
// in that order — in a slice made at exactly the counted size.
func TestReportFCTsInGenerationOrder(t *testing.T) {
	w := newRig(t, 1)
	e, err := New(nil, w.hosts, hybridConfig(60, func(f *Flow) bool { return f.SrcPort%7 != 0 }))
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	w.sim.RunFor(5 * time.Second)
	buckets := DefaultBuckets()
	r := e.Report(buckets)
	want := make([][]float64, len(buckets))
	for i := range e.flows {
		if f := &e.flows[i]; f.Done() {
			b := bucketOf(buckets, int(f.Bytes))
			want[b] = append(want[b], float64(f.FCT)/float64(time.Millisecond))
		}
	}
	busy := 0
	for i, br := range r.Buckets {
		if !reflect.DeepEqual(br.FCTms, want[i]) {
			t.Errorf("bucket %s: FCTs %v, want generation order %v", br.Label, br.FCTms, want[i])
		}
		if br.Completed != len(want[i]) || cap(br.FCTms) != len(want[i]) {
			t.Errorf("bucket %s: %d completed in a sample of capacity %d, want %d and %d", br.Label, br.Completed, cap(br.FCTms), len(want[i]), len(want[i]))
		}
		if len(want[i]) > 1 {
			busy++
		}
	}
	if busy < 2 || r.Completed == r.Flows {
		t.Fatalf("%d buckets hold more than one FCT and %d of %d flows completed: the mix no longer spreads over buckets and outcomes", busy, r.Completed, r.Flows)
	}
}

// TestDoneCountsStragglerOnce covers the one flow state two sites reach: the
// sender gives up after MaxRounds while its packets are still on a slow
// wire, and their arrival then completes the flow it abandoned.
func TestDoneCountsStragglerOnce(t *testing.T) {
	w := newRig(t, 1)
	w.sim.Links()[1].Latency = 50 * time.Millisecond // longer than every repair round together
	cfg := smallConfig(5)
	cfg.RTO = 2 * time.Millisecond
	cfg.MaxRounds = 3
	e, err := New(nil, w.hosts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	w.sim.RunFor(time.Second)
	both := 0
	for _, f := range e.flows {
		if f.Done() && f.Abandoned() {
			both++
		}
	}
	if both == 0 {
		t.Fatal("no flow was both abandoned and then completed; the rig no longer builds the case")
	}
	if scan := finishedScan(e); e.finished != scan || !e.Done() {
		t.Fatalf("counter says %d of %d flows finished, scan says %d", e.finished, len(e.flows), scan)
	}
}

func TestPatternPairing(t *testing.T) {
	hosts := []Host{
		{Name: "a1", Rack: "a"}, {Name: "a2", Rack: "a"},
		{Name: "b1", Rack: "b"}, {Name: "b2", Rack: "b"},
	}
	e := &Engine{hosts: hosts, cfg: Config{Pattern: PatternPermutation}}
	pair := e.pairer(rand.New(rand.NewSource(1)))
	for i := 0; i < 8; i++ {
		src, dst := pair(i)
		if hosts[src].Rack == hosts[dst].Rack {
			t.Errorf("permutation paired %s with %s (same rack)", hosts[src].Name, hosts[dst].Name)
		}
	}
	e.cfg.Pattern = PatternIncast
	pair = e.pairer(rand.New(rand.NewSource(1)))
	for i := 0; i < 8; i++ {
		src, dst := pair(i)
		if dst != 0 || src == 0 {
			t.Errorf("incast flow %d: src=%d dst=%d, want all into host 0", i, src, dst)
		}
	}
	e.cfg.Pattern = PatternRandom
	pair = e.pairer(rand.New(rand.NewSource(1)))
	for i := 0; i < 32; i++ {
		src, dst := pair(i)
		if src == dst || hosts[src].Rack == hosts[dst].Rack {
			t.Errorf("random pairing %d: %d->%d not cross-rack", i, src, dst)
		}
	}
}

func TestSamplerSeriesAndDrops(t *testing.T) {
	sim := simnet.New(1)
	a, b := sim.AddNode("a"), sim.AddNode("b")
	b.Handler = ipstack.New(b)
	a.Handler = ipstack.New(a)
	link := sim.ConnectLatency(a.AddPort(), b.AddPort(), 0)
	link.SetBandwidth(8_000_000, 4) // 1 MB/s, 4-frame queue

	s := NewSampler(sim, 10*time.Millisecond)
	s.Watch(link)
	s.Start()

	// Offer 2x capacity for 100 ms: utilization should pin near 1 and the
	// queue must overflow. Send takes ownership of its buffer (frames that
	// tail-drop are recycled into the pool), so each call gets a fresh one.
	var offer func()
	n := 0
	offer = func() {
		a.Port(1).Send(make([]byte, 1000))
		a.Port(1).Send(make([]byte, 1000))
		if n++; n < 100 {
			sim.After(time.Millisecond, offer)
		}
	}
	offer()
	sim.RunFor(200 * time.Millisecond)
	s.Stop()

	if len(s.Series()) != 2 {
		t.Fatalf("series count = %d, want both directions", len(s.Series()))
	}
	fwd := s.Series()[0]
	if fwd.Len() < 15 {
		t.Fatalf("only %d samples over 200ms at 10ms cadence", fwd.Len())
	}
	// The first interval can exceed 1.0 by the queue growth it absorbed;
	// steady-state intervals must sit at the wire rate.
	if peak := s.PeakUtil(); peak < 0.9 || peak > 1.5 {
		t.Errorf("peak utilization %.2f, want ~1.0-1.4 on a saturated link", peak)
	}
	for i := 2; i < 9; i++ {
		if u := fwd.Sample(i).Util; u < 0.95 || u > 1.05 {
			t.Errorf("steady-state sample %d utilization %.2f, want ~1.0", i, u)
		}
	}
	if s.PeakQueue() == 0 {
		t.Error("saturated link never showed a queued frame")
	}
	if s.TotalDrops() == 0 {
		t.Error("2x overload never dropped at a 4-frame queue")
	}
	// Reverse direction is idle.
	rev := s.Series()[1]
	for i := range rev.Len() {
		if smp := rev.Sample(i); smp.TxBytes != 0 || smp.Drops != 0 {
			t.Fatalf("idle direction recorded traffic: %+v", smp)
		}
	}
	// Frame-pool occupancy is sampled on the same ticks as the links, one
	// interval apart from the first interval's end.
	pool := s.PoolSeries()
	if len(pool) != fwd.Len() {
		t.Fatalf("pool samples = %d, want %d (one per tick)", len(pool), fwd.Len())
	}
	for i, ps := range pool {
		if want := time.Duration(i+1) * 10 * time.Millisecond; ps.At != want || fwd.At(i) != want || rev.At(i) != want {
			t.Fatalf("tick %d: pool sample at %v, link samples at %v and %v, want %v", i, ps.At, fwd.At(i), rev.At(i), want)
		}
		if ps.Peak < ps.InUse {
			t.Fatalf("pool sample %d: peak %d below in-use %d", i, ps.Peak, ps.InUse)
		}
	}
	if last := pool[len(pool)-1]; last.Recycled == 0 {
		t.Error("a saturated link tail-dropping frames never returned a buffer to the pool")
	}
}

func TestSamplerSurfacesImpairmentCounters(t *testing.T) {
	// Lost/Corrupted from the link's impairment state must reach the
	// telemetry samples, per direction, so the workload CSV can show
	// where a gray failure sat.
	sim := simnet.New(3)
	a, b := sim.AddNode("a"), sim.AddNode("b")
	a.Handler, b.Handler = ipstack.New(a), ipstack.New(b)
	link := sim.ConnectLatency(a.AddPort(), b.AddPort(), 0)
	link.Impair(a.Port(1), simnet.Impairment{LossRate: 0.5, CorruptRate: 0.5})

	s := NewSampler(sim, 10*time.Millisecond)
	s.Watch(link)
	s.Start()
	// Fresh buffer per Send: ownership passes to the simulator, and lost
	// frames are recycled into the pool.
	for i := 0; i < 50; i++ {
		sim.After(time.Duration(i)*time.Millisecond, func() { a.Port(1).Send(make([]byte, 100)) })
	}
	sim.RunFor(100 * time.Millisecond)
	s.Stop()

	fwd := s.Series()[0]
	last := fwd.Sample(fwd.Len() - 1)
	if last.Lost == 0 {
		t.Error("50% loss on 50 frames surfaced no Lost count")
	}
	if last.Corrupted == 0 {
		t.Error("50% corruption on 50 frames surfaced no Corrupted count")
	}
	rev := s.Series()[1]
	for i := range rev.Len() {
		if smp := rev.Sample(i); smp.Lost != 0 || smp.Corrupted != 0 {
			t.Fatalf("clean reverse direction recorded impairments: %+v", smp)
		}
	}
}

func TestLoadMeterIndices(t *testing.T) {
	sim := simnet.New(1)
	a, b, c := sim.AddNode("a"), sim.AddNode("b"), sim.AddNode("c")
	b.Handler = ipstack.New(b)
	c.Handler = ipstack.New(c)
	sim.Connect(a.AddPort(), b.AddPort())
	sim.Connect(a.AddPort(), c.AddPort())
	g := Group{Name: "a-uplinks", Ports: []*simnet.Port{a.Port(1), a.Port(2)}}
	idle := Group{Name: "idle", Ports: []*simnet.Port{b.Port(1)}}
	m := NewLoadMeter(sim, []Group{g, idle})

	a.Port(1).Send(make([]byte, 3000))
	a.Port(2).Send(make([]byte, 1000))
	sim.RunFor(time.Millisecond)

	loads := m.Read()
	if got := loads[0].MaxOverMean; got != 1.5 {
		t.Errorf("max/mean = %v, want 1.5 (3000 vs mean 2000)", got)
	}
	// Jain for (3000,1000): 16e6/(2*10e6) = 0.8.
	if got := loads[0].Jain; got < 0.799 || got > 0.801 {
		t.Errorf("jain = %v, want 0.8", got)
	}
	if loads[1].MaxOverMean != 1 || loads[1].Jain != 1 || slices.ContainsFunc(loads[1].Bytes, func(b uint64) bool { return b > 0 }) {
		t.Errorf("idle group = %+v, want neutral indices over no bytes", loads[1])
	}
}

// peakConcurrentFullSort is peakConcurrent as it was before it left the
// completions no launch can observe out of the sort: every completion
// collected and sorted. It stays as the oracle.
func peakConcurrentFullSort(e *Engine) int {
	var starts, ends []time.Duration
	for i := range e.flows {
		f := &e.flows[i]
		if !f.launched() {
			continue
		}
		starts = append(starts, e.base+f.Start)
		if f.Done() {
			ends = append(ends, e.base+f.Start+f.FCT)
		}
	}
	slices.Sort(starts)
	slices.Sort(ends)
	cur, peak, j := 0, 0, 0
	for _, s := range starts {
		for j < len(ends) && ends[j] <= s {
			cur--
			j++
		}
		cur++
		peak = max(peak, cur)
	}
	return peak
}

// TestPeakConcurrentMatchesFullSort holds the sweep to the full sort it
// replaced: on seeded flow tables built to sit on its edges — completions at
// the very instant of a launch and of the last launch, launches at one
// instant, flows unlaunched, unfinished, all finished before the last launch,
// none finished — and on packet, fluid and hybrid runs read before, inside
// and after an outage that leaves flows incomplete and then abandoned. A
// schedule is in Start order, as New generates it.
func TestPeakConcurrentMatchesFullSort(t *testing.T) {
	check := func(what string, e *Engine) {
		t.Helper()
		if got, want := e.peakConcurrent(), peakConcurrentFullSort(e); got != want {
			t.Fatalf("%s: peak concurrency %d, the full sort says %d", what, got, want)
		}
	}
	check("no flows", &Engine{})
	rng := rand.New(rand.NewSource(24))
	for table := 0; table < 400; table++ {
		e := &Engine{flows: make([]Flow, rng.Intn(60)), base: time.Duration(rng.Intn(1000))}
		grain := time.Duration(1 + rng.Intn(5)) // coarse instants: ties everywhere
		spread, long := 1+rng.Intn(40), rng.Intn(3) == 0
		starts := make([]time.Duration, len(e.flows))
		for i := range starts {
			starts[i] = time.Duration(rng.Intn(spread)) * grain
			if table%2 == 0 {
				starts[i] = time.Duration(i*spread/len(e.flows)) * grain
			}
		}
		slices.Sort(starts)
		for i := range e.flows {
			f := &e.flows[i]
			if rng.Intn(8) > 0 {
				f.state |= flowLaunched
			}
			f.Start = starts[i]
			if f.launched() && rng.Intn(5) > 0 {
				f.state |= flowDone
			}
			f.FCT = time.Duration(rng.Intn(spread/2+1)) * grain
			if long {
				f.FCT += time.Duration(spread) * grain // nothing ends before the last launch
			}
		}
		check(fmt.Sprintf("table %d", table), e)
	}

	for _, mode := range []Mode{ModePacket, ModeFluid, ModeHybrid} {
		for seed := int64(1); seed <= 3; seed++ {
			w := newRig(t, seed)
			cfg := smallConfig(seed)
			cfg.Flows = 40
			cfg.Sizes = WebSearchMix()
			cfg.Mode = mode
			cfg.FluidCutoff = 20_000
			cfg.RTO = 2 * time.Millisecond
			cfg.MaxRounds = 3
			if mode != ModePacket {
				cfg.Solver = fluid.New(fluid.Config{RateCapBps: 1e8})
				link := cfg.Solver.AddLink(1_000_000_000, func(int64, time.Duration) {})
				cfg.PathOf = func(f *Flow) ([]fluid.LinkID, time.Duration, bool) {
					return []fluid.LinkID{link}, 200 * time.Microsecond, f.SrcPort%7 != 0
				}
			}
			e, err := New(nil, w.hosts, cfg)
			if err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("%s seed %d", mode, seed)
			check(what+" unstarted", e)
			e.Start()
			w.sim.RunFor(20 * time.Millisecond)
			check(what+" before the outage", e)
			w.router.Port(2).Fail()
			w.sim.RunFor(30 * time.Millisecond)
			check(what+" in the outage", e)
			w.router.Port(2).Restore()
			w.sim.RunFor(5 * time.Second)
			check(what+" at the end", e)
			if r := e.Report(nil); r.PeakConcurrent < 2 || r.PeakConcurrent > r.Flows {
				t.Errorf("%s: Report says %d of %d flows were in flight at once", what, r.PeakConcurrent, r.Flows)
			}
		}
		// Sparse arrivals: every flow but the last is over before the last launch.
		w := newRig(t, 9)
		cfg := smallConfig(9)
		cfg.Flows = 20
		cfg.MeanArrival = 50 * time.Millisecond
		cfg.Mode = mode
		if mode != ModePacket {
			cfg.Solver = fluid.New(fluid.Config{RateCapBps: 1e8})
			link := cfg.Solver.AddLink(1_000_000_000, nil)
			cfg.PathOf = func(*Flow) ([]fluid.LinkID, time.Duration, bool) { return []fluid.LinkID{link}, 0, true }
		}
		e, err := New(nil, w.hosts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.Start()
		w.sim.RunFor(10 * time.Second)
		check(mode.String()+" sparse", e)
		if !e.Done() {
			t.Fatalf("%s sparse: engine not done", mode)
		}
	}
}
