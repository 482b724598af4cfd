package pathtrace

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/icmp"
	"repro/internal/ipv4"
	"repro/internal/netaddr"
)

type fakeClock struct{ now time.Duration }

func (c *fakeClock) Now() time.Duration { return c.now }

// fakeFabric answers probes like a linear path of routers: hop i replies
// time-exceeded from 10.0.0.i, the destination (hop == pathLen) replies
// port-unreachable. Setting drop[ttl] swallows that hop's probes.
type fakeFabric struct {
	tracer  *Tracer
	pathLen int
	drop    map[int]bool
	sent    int
}

func (f *fakeFabric) SendProbe(ipWire []byte, hopLimit int) {
	f.sent++
	if f.drop[hopLimit] {
		return
	}
	wire := append([]byte(nil), ipWire...)
	var m icmp.Message
	var from netaddr.IPv4
	if hopLimit >= f.pathLen {
		m = icmp.PortUnreachable(wire)
		from = netaddr.MakeIPv4(10, 0, 0, byte(f.pathLen))
	} else {
		m = icmp.TimeExceeded(wire)
		from = netaddr.MakeIPv4(10, 0, 0, byte(hopLimit))
	}
	// Round-trip through marshalling, as a real reply would.
	reply, err := icmp.Unmarshal(m.Marshal())
	if err != nil {
		panic(err)
	}
	f.tracer.Dispatch(from, reply)
}

func newFakeTrace(pathLen, maxTTL int) (*Tracer, *Prober, *fakeFabric, *fakeClock) {
	tr := &Tracer{}
	clock := &fakeClock{}
	fab := &fakeFabric{tracer: tr, pathLen: pathLen, drop: map[int]bool{}}
	p := tr.AddProber(ProberConfig{
		Src:    netaddr.MakeIPv4(192, 168, 11, 254),
		Dst:    netaddr.MakeIPv4(192, 168, 14, 254),
		MaxTTL: maxTTL,
	}, clock, fab)
	return tr, p, fab, clock
}

func TestProberHopAttribution(t *testing.T) {
	_, p, _, clock := newFakeTrace(3, 4)
	for i := 0; i < 10; i++ {
		p.Tick()
		clock.now += 50 * time.Millisecond
	}
	snap := p.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("got %d cells, want 4", len(snap))
	}
	for ttl := 1; ttl <= 3; ttl++ {
		c := snap[ttl-1]
		if !c.Seen || c.Addr != netaddr.MakeIPv4(10, 0, 0, byte(ttl)) {
			t.Errorf("ttl %d: addr = %s seen=%v, want 10.0.0.%d", ttl, c.Addr, c.Seen, ttl)
		}
		wantReached := ttl == 3
		if c.Reached != wantReached {
			t.Errorf("ttl %d: reached = %v, want %v", ttl, c.Reached, wantReached)
		}
		if c.LossEWMA != 0 || c.Lost != 0 {
			t.Errorf("ttl %d: loss %d ewma %f on a clean path", ttl, c.Lost, c.LossEWMA)
		}
	}
	// TTL 4 walks past the destination: port-unreachable again (the fake
	// keeps answering), mirroring how real traceroute clamps at the target.
	if snap[3].Addr != netaddr.MakeIPv4(10, 0, 0, 3) {
		t.Errorf("ttl 4 addr = %s, want destination", snap[3].Addr)
	}
}

func TestProberLossAccounting(t *testing.T) {
	_, p, fab, clock := newFakeTrace(3, 3)
	fab.drop[2] = true
	rounds := 12
	for i := 0; i < rounds; i++ {
		p.Tick()
		clock.now += 50 * time.Millisecond
	}
	snap := p.Snapshot()
	if snap[0].Lost != 0 || snap[2].Lost != 0 {
		t.Errorf("healthy hops recorded loss: %d %d", snap[0].Lost, snap[2].Lost)
	}
	// Hop 2 drops everything; all but the last `grace` probes have been
	// finalized as lost.
	wantLost := uint64(rounds - grace)
	if snap[1].Lost != wantLost {
		t.Errorf("hop 2 lost = %d, want %d", snap[1].Lost, wantLost)
	}
	if snap[1].LossEWMA < 0.8 {
		t.Errorf("hop 2 loss EWMA = %f, want near 1", snap[1].LossEWMA)
	}
	if snap[1].Seen {
		t.Error("hop 2 marked seen with every probe dropped")
	}
}

func TestProberSurvivesRoundWrap(t *testing.T) {
	// probeID keeps 11 bits of the round, which wraps at round 2048 —
	// 102.4 s of 50 ms rounds. Replies past the wrap still match their slot.
	_, p, _, clock := newFakeTrace(3, 3)
	for i := 0; i < 2100; i++ {
		p.Tick()
		clock.now += 50 * time.Millisecond
	}
	for _, c := range p.Snapshot() {
		if c.Lost != 0 || c.LossEWMA != 0 {
			t.Errorf("ttl %d: %d lost (EWMA %f) on a clean path after 2100 rounds", c.TTL, c.Lost, c.LossEWMA)
		}
	}
}

func TestProberRTTQuantiles(t *testing.T) {
	tr := &Tracer{}
	clock := &fakeClock{}
	// Answer after advancing the clock, simulating a 7ms RTT.
	var prober *Prober
	lag := 7 * time.Millisecond
	fab := &deferredFabric{tracer: tr, clock: clock, lag: lag}
	prober = tr.AddProber(ProberConfig{MaxTTL: 1,
		Src: netaddr.MakeIPv4(1, 1, 1, 1), Dst: netaddr.MakeIPv4(2, 2, 2, 2)}, clock, fab)
	_ = prober
	for i := 0; i < 10; i++ {
		tr.Probers()[0].Tick()
		clock.now += 50 * time.Millisecond
	}
	snap := tr.Snapshot()
	if got := snap[0].RTTP50; got != lag {
		t.Errorf("RTT P50 = %v, want %v", got, lag)
	}
	if got := snap[0].RTTP95; got != lag {
		t.Errorf("RTT P95 = %v, want %v", got, lag)
	}
}

// deferredFabric advances the clock before answering, so replies carry a
// nonzero RTT.
type deferredFabric struct {
	tracer *Tracer
	clock  *fakeClock
	lag    time.Duration
}

func (f *deferredFabric) SendProbe(ipWire []byte, hopLimit int) {
	wire := append([]byte(nil), ipWire...)
	f.clock.now += f.lag
	m := icmp.PortUnreachable(wire)
	reply, err := icmp.Unmarshal(m.Marshal())
	if err != nil {
		panic(err)
	}
	f.tracer.Dispatch(netaddr.MakeIPv4(2, 2, 2, 2), reply)
	f.clock.now -= f.lag // Tick's send loop continues at the send time
}

func TestDispatchIgnoresForeignICMP(t *testing.T) {
	tr, _, _, _ := newFakeTrace(3, 3)
	// Echo replies and unrelated errors must not be claimed.
	if tr.Dispatch(netaddr.MakeIPv4(1, 2, 3, 4), icmp.Message{Type: icmp.TypeEchoReply}) {
		t.Error("claimed an echo reply")
	}
	pkt := ipv4.Packet{Header: ipv4.Header{Protocol: ipv4.ProtoUDP, TTL: 1,
		Src: netaddr.MakeIPv4(9, 9, 9, 9), Dst: netaddr.MakeIPv4(8, 8, 8, 8)},
		Payload: []byte{0x12, 0x34, 0x00, 0x35, 0, 8, 0, 0}}
	teMsg := icmp.TimeExceeded(pkt.Marshal())
	te, _ := icmp.Unmarshal(teMsg.Marshal())
	if tr.Dispatch(netaddr.MakeIPv4(1, 2, 3, 4), te) {
		t.Error("claimed a quote for a foreign UDP flow")
	}
}

func mkCell(prober, ttl int, sent uint64, loss float64, cover ...DirectedLink) Cell {
	c := Cell{Cover: cover}
	c.Prober = prober
	c.TTL = ttl
	c.Sent = sent
	c.LossEWMA = loss
	c.Seen = true
	return c
}

func TestLocalizerIsolatesLossyLink(t *testing.T) {
	l := NewLocalizer()
	bad := DirectedLink{"S-1-1", "T-1"}
	down := DirectedLink{"T-1", "S-1-1"}
	up2 := DirectedLink{"S-1-2", "T-2"}
	leaf := DirectedLink{"L-1-1", "S-1-1"}

	healthy := func(now time.Duration) []Cell {
		return []Cell{
			mkCell(0, 1, 40, 0, leaf),
			mkCell(0, 2, 40, 0, leaf, bad, down),
			mkCell(1, 2, 40, 0, up2),
			mkCell(2, 2, 40, 0, down), // cross-traffic over the reverse direction
		}
	}
	l.Arm(0, healthy(0))
	if acc := l.Sweep(100*time.Millisecond, healthy(100*time.Millisecond)); acc != nil {
		t.Fatalf("healthy sweep accused %v", acc)
	}

	// Fault: cells crossing S-1-1->T-1 go lossy; the reverse direction
	// stays covered by a healthy cross-traffic cell (purity 1/2 under
	// minPurity), while leaf is half-exonerated by the clean TTL-1 cell —
	// only the lossy direction survives the candidate filter.
	lossy := []Cell{
		mkCell(0, 1, 60, 0, leaf),
		mkCell(0, 2, 60, 0.9, leaf, bad, down),
		mkCell(1, 2, 60, 0.85, bad),
		mkCell(2, 2, 60, 0, down),
	}
	// The leader must persist for persistSweeps consecutive sweeps before
	// it is accused.
	now := 200 * time.Millisecond
	for i := 1; i < persistSweeps; i++ {
		if acc := l.Sweep(now, lossy); acc != nil {
			t.Fatalf("sweep %d accused %v before the streak matured", i, acc)
		}
		now += 100 * time.Millisecond
	}
	acc := l.Sweep(now, lossy)
	if len(acc) != 1 || acc[0].Link != bad {
		t.Fatalf("accused %v, want %v", acc, bad)
	}
	if acc[0].Cells != 2 || acc[0].Latency {
		t.Errorf("accusation detail = %+v", acc[0])
	}
	// The same link is never accused twice.
	if acc := l.Sweep(now+100*time.Millisecond, lossy); acc != nil {
		t.Errorf("re-accused %v", acc)
	}
}

func TestLocalizerAmbiguityDefers(t *testing.T) {
	l := NewLocalizer()
	a := DirectedLink{"S-1-1", "T-1"}
	b := DirectedLink{"T-1", "S-2-1"}
	l.Arm(0, nil)
	// Two anomalous cells blame the same pair: neither link dominates, so
	// no accusation, no matter how many sweeps the tie persists.
	tied := []Cell{mkCell(0, 2, 60, 0.9, a, b), mkCell(1, 2, 60, 0.9, a, b)}
	for i := 0; i < 2*persistSweeps; i++ {
		if acc := l.Sweep(time.Duration(i+1)*100*time.Millisecond, tied); acc != nil {
			t.Fatalf("ambiguous evidence accused %v", acc)
		}
	}
	// A third cell crossing only `a` breaks the tie; the new leader still
	// has to hold its lead for persistSweeps sweeps.
	split := append(tied, mkCell(2, 2, 60, 0.9, a))
	var acc []Accusation
	for i := 0; i < persistSweeps; i++ {
		if acc = l.Sweep(time.Duration(i+30)*100*time.Millisecond, split); acc != nil {
			break
		}
	}
	if len(acc) != 1 || acc[0].Link != a {
		t.Fatalf("accused %v, want %v", acc, a)
	}
}

func TestLocalizerBlameOutlivesReroute(t *testing.T) {
	// A protocol that reroutes before the loss EWMA crosses threshold
	// leaves anomalous cells whose *current* cover no longer contains the
	// faulty link. The localizer remembers each cell's covers for
	// coverMemory, so the faulty link, covered only when the localizer was
	// armed, stays blamed; the detour ties it on blame but collects healthy
	// votes from the clean cell now crossing it, so the faulty link ranks
	// purer and wins. The streak matures on a sweep exactly coverMemory
	// after the arm: the memory still holds the link there.
	l := NewLocalizer()
	faulty := DirectedLink{"S-1-1", "T-1"}
	detour := DirectedLink{"S-1-2", "T-2"}
	l.Arm(0, []Cell{mkCell(0, 2, 40, 0, faulty), mkCell(1, 2, 40, 0, faulty)})

	cells := []Cell{mkCell(0, 2, 60, 0.6, detour), mkCell(1, 2, 60, 0.55, detour), mkCell(2, 2, 60, 0, detour)}
	var acc []Accusation
	for i := persistSweeps - 1; i >= 0; i-- {
		acc = l.Sweep(coverMemory-time.Duration(i)*100*time.Millisecond, cells)
	}
	if len(acc) != 1 || acc[0].Link != faulty {
		t.Fatalf("accused %v, want %v", acc, faulty)
	}
	// A sweep later the arm's covers are forgotten and only the detour is
	// blamed.
	if blame := l.state(&cells[0]).remember(coverMemory+100*time.Millisecond, cells[0].Cover); !slices.Equal(blame, []DirectedLink{detour}) {
		t.Errorf("blame past coverMemory = %v, want only %v", blame, detour)
	}
}

// coverHistory is the blame memory the trace harness kept before the
// localizer held it, kept as the oracle: every cover with the time it was
// seen, pruned from the oldest while older than coverMemory (the newest
// always stays), and the union of what remains.
type coverHistory []coverEntry

type coverEntry struct {
	at    time.Duration
	links []DirectedLink
}

func (h *coverHistory) update(now time.Duration, cover []DirectedLink) []DirectedLink {
	hist := append(*h, coverEntry{now, cover})
	cut := 0
	for cut < len(hist)-1 && now-hist[cut].at > coverMemory {
		cut++
	}
	*h = hist[cut:]
	var blame []DirectedLink
	seen := make(map[DirectedLink]bool)
	for _, e := range *h {
		for _, l := range e.links {
			if !seen[l] {
				seen[l] = true
				blame = append(blame, l)
			}
		}
	}
	return blame
}

// TestBlameMemoryMatchesHistory holds the per-link last-seen times to the
// cover history they replaced: random cover sequences over a small link
// alphabet, on 100 ms steps so a link last covered exactly coverMemory ago
// is common, into three cells of one localizer, each cell skipping some
// steps. After every step the two blame sets must be equal as sets.
func TestBlameMemoryMatchesHistory(t *testing.T) {
	alphabet := []DirectedLink{
		{"L-1-1", "S-1-1"}, {"S-1-1", "T-1"}, {"T-1", "S-2-1"}, {"S-2-1", "L-2-1"}, {"S-1-2", "T-2"},
	}
	rng := rand.New(rand.NewSource(30))
	for seq := 0; seq < 300; seq++ {
		l := NewLocalizer()
		cells := []Cell{mkCell(0, 1, 0, 0), mkCell(0, 2, 0, 0), mkCell(3, 1, 0, 0)}
		oracles := make([]coverHistory, len(cells))
		for step := 0; step < 60; step++ {
			now := time.Duration(step) * 100 * time.Millisecond
			for ci := range cells {
				if rng.Intn(4) == 0 {
					continue
				}
				var cover []DirectedLink
				for _, link := range alphabet {
					if rng.Intn(4) == 0 {
						cover = append(cover, link)
					}
				}
				got := l.state(&cells[ci]).remember(now, cover)
				want := oracles[ci].update(now, cover)
				if len(got) != len(want) || !containsAll(got, want) {
					t.Fatalf("sequence %d, cell %d at %v: blame %v, the cover history says %v", seq, ci, now, got, want)
				}
			}
		}
	}
}

func containsAll(set, elems []DirectedLink) bool {
	for _, e := range elems {
		if !slices.Contains(set, e) {
			return false
		}
	}
	return true
}

func TestLocalizerLatencyAnomaly(t *testing.T) {
	l := NewLocalizer()
	link := DirectedLink{"L-1-1", "S-1-1"}
	base := []Cell{mkCell(0, 1, 40, 0, link), mkCell(1, 1, 40, 0, link)}
	base[0].RTTP50 = 200 * time.Microsecond
	base[1].RTTP50 = 200 * time.Microsecond
	l.Arm(0, base)

	slow := []Cell{mkCell(0, 1, 80, 0, link), mkCell(1, 1, 80, 0, link)}
	slow[0].RTTP50 = 30 * time.Millisecond
	slow[1].RTTP50 = 32 * time.Millisecond
	var acc []Accusation
	for i := 0; i < persistSweeps; i++ {
		if acc = l.Sweep(time.Duration(i+10)*100*time.Millisecond, slow); acc != nil {
			break
		}
	}
	if len(acc) != 1 || acc[0].Link != link || !acc[0].Latency {
		t.Fatalf("latency sweep accused %+v, want latency accusation of %v", acc, link)
	}
}

func TestLocalizerThresholds(t *testing.T) {
	l := NewLocalizer()
	a := DirectedLink{"A", "B"}
	// One anomalous cell is below minCells: no accusation ever.
	cells := []Cell{mkCell(0, 1, 100, 0.9, a)}
	l.Arm(0, nil)
	if acc := l.Sweep(2*time.Second, cells); acc != nil {
		t.Errorf("single-cell evidence accused %v", acc)
	}
	// Under minSent the cell is ignored entirely.
	young := []Cell{mkCell(0, 1, 2, 1, a), mkCell(1, 1, 2, 1, a)}
	if acc := l.Sweep(3*time.Second, young); acc != nil {
		t.Errorf("under-sampled evidence accused %v", acc)
	}
}
