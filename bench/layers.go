package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/bgp"
	"repro/internal/ethernet"
	"repro/internal/flowhash"
	"repro/internal/fluid"
	"repro/internal/harness"
	"repro/internal/ipstack"
	"repro/internal/ipv4"
	"repro/internal/metrics"
	"repro/internal/mrmtp"
	"repro/internal/netaddr"
	"repro/internal/simnet"
	"repro/internal/simnet/framepool"
	"repro/internal/stats"
	"repro/internal/tcp"
	"repro/internal/topology"
	"repro/internal/udp"
	"repro/internal/workload"
)

// This file is the per-layer half of a -trace run: probes (one timed call
// into a module at a fixed size) and kernels (a fixed number of calls into
// one function). Both are the same whatever the workload, so a layer that
// got slower reads slower in every trace; which workload should feel it is
// written in README.md.

// sink keeps kernel results alive so the compiler cannot drop the calls.
var sink any

// kernel is a fixed-count microbenchmark of one public function.
type kernel struct {
	name   string // metric name without the _ns / _allocs suffix
	size   string // suffix after it naming the input size, e.g. ".g100"
	ops    int    // calls per batch at full scale, sized for about 10 ms
	allocs bool   // also report heap allocations per call
	setup  func() (func(), error)
}

const kernelBatches = 5

// run times kernelBatches batches and reports the median batch's ns per
// call, and mallocs per call over all batches.
func (k kernel) run(sc scale) (ns, allocs float64, err error) {
	op, err := k.setup()
	if err != nil {
		return 0, 0, fmt.Errorf("kernel %s%s: %w", k.name, k.size, err)
	}
	ops := k.ops / sc.kernelDiv
	if ops < 4 {
		ops = 4
	}
	for i := 0; i < ops/10+1; i++ {
		op()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	batch := make([]float64, kernelBatches)
	for b := range batch {
		t0 := now()
		for i := 0; i < ops; i++ {
			op()
		}
		batch[b] = float64(since(t0).Nanoseconds()) / float64(ops)
	}
	runtime.ReadMemStats(&m1)
	return stats.Percentile(batch, 50), float64(m1.Mallocs-m0.Mallocs) / float64(ops*kernelBatches), nil
}

var (
	ipA   = netaddr.MakeIPv4(192, 168, 11, 1)
	ipB   = netaddr.MakeIPv4(192, 168, 14, 1)
	macA  = netaddr.MAC{2, 0, 0, 0, 0, 1}
	macB  = netaddr.MAC{2, 0, 0, 0, 0, 2}
	noop  = func() {}
	udpIP = ipv4.Packet{
		Header:  ipv4.Header{TTL: 64, Protocol: ipv4.ProtoUDP, Src: ipA, Dst: ipB},
		Payload: make([]byte, 64),
	}
)

// deepSim returns a simulator whose heap already holds depth far-future
// events, so every schedule and pop sifts through log2(depth) levels.
func deepSim(depth int) *simnet.Sim {
	s := simnet.New(1)
	for i := 0; i < depth; i++ {
		s.After(time.Hour+time.Duration(i), noop)
	}
	return s
}

func eventKernel(depth int) func() (func(), error) {
	return func() (func(), error) {
		s := deepSim(depth)
		return func() {
			s.After(time.Microsecond, noop)
			s.Step()
		}, nil
	}
}

// sinkHandler swallows frames.
type sinkHandler struct{ frames int }

func (h *sinkHandler) Start()                           {}
func (h *sinkHandler) HandleFrame(*simnet.Port, []byte) { h.frames++ }
func (h *sinkHandler) PortDown(*simnet.Port)            {}
func (h *sinkHandler) PortUp(*simnet.Port)              {}

// udpHosts wires host a to host b, through a router when routed, and
// returns the op that sends one 1000-byte datagram and runs the simulator
// until it is delivered.
func udpHosts(routed bool) (func(), error) {
	s := simnet.New(1)
	na, nb := s.AddNode("a"), s.AddNode("b")
	sa, sb := ipstack.New(na), ipstack.New(nb)
	netA := netaddr.MakePrefix(netaddr.MakeIPv4(10, 0, 1, 0), 24)
	netB := netA
	hops := 1
	if routed {
		netB = netaddr.MakePrefix(netaddr.MakeIPv4(10, 0, 2, 0), 24)
		nr := s.AddNode("r")
		sr := ipstack.New(nr)
		s.Connect(na.AddPort(), nr.AddPort())
		s.Connect(nr.AddPort(), nb.AddPort())
		sr.AddIface(nr.Port(1), netA.Host(254), netA)
		sr.AddIface(nr.Port(2), netB.Host(254), netB)
		hops = 2
	} else {
		s.Connect(na.AddPort(), nb.AddPort())
	}
	src, dst := netA.Host(1), netB.Host(2)
	ia := sa.AddIface(na.Port(1), src, netA)
	ib := sb.AddIface(nb.Port(1), dst, netB)
	if routed {
		sa.AddDefaultRoute(netA.Host(254), ia)
		sb.AddDefaultRoute(netB.Host(254), ib)
	}
	got := 0
	sb.ListenUDP(9, func(_, _ netaddr.IPv4, _ udp.Datagram) { got++ })
	s.Start()
	payload := make([]byte, 1000)
	step := time.Duration(hops)*s.DefaultLatency + 50*time.Microsecond
	op := func() {
		sa.SendUDP(src, dst, 4000, 9, payload)
		s.RunFor(step)
	}
	for i := 0; i < 3 && got == 0; i++ { // ARP resolves on the first sends
		op()
		s.RunFor(time.Millisecond)
	}
	if got == 0 {
		return nil, fmt.Errorf("datagram never delivered")
	}
	return op, nil
}

func fibKernel(routes int) func() (func(), error) {
	return func() (func(), error) {
		s := simnet.New(1)
		na, nb := s.AddNode("a"), s.AddNode("b")
		s.Connect(na.AddPort(), nb.AddPort())
		st := ipstack.New(na)
		link := netaddr.MakePrefix(netaddr.MakeIPv4(172, 16, 0, 0), 31)
		ifc := st.AddIface(na.Port(1), link.Host(0), link)
		var last netaddr.Prefix
		for i := 0; i < routes; i++ {
			last = netaddr.MakePrefix(netaddr.MakeIPv4(192, 168, byte(i), 0), 24)
			st.FIB.Replace(ipstack.Route{
				Prefix:   last,
				NextHops: []ipstack.NextHop{{Via: link.Host(1), Iface: ifc}},
				Proto:    ipstack.ProtoBGP,
			})
		}
		dst := last.Host(1)
		if _, ok := st.FIB.Lookup(dst); !ok {
			return nil, fmt.Errorf("no route to %v", dst)
		}
		return func() { sink, _ = st.FIB.Lookup(dst) }, nil
	}
}

// mrmtpFabric brings up the 4-PoD MR-MTP fabric the data-plane kernels
// forward across, and the flow they forward: L-1-1's rack to L-4-2's.
func mrmtpFabric() (*harness.Fabric, *mrmtp.Router, []byte, error) {
	f, err := harness.Build(harness.DefaultOptions(topology.FourPodSpec(), harness.ProtoMRMTP, 1))
	if err != nil {
		return nil, nil, nil, err
	}
	if err := f.WarmUp(harness.WarmupTime); err != nil {
		return nil, nil, nil, err
	}
	src, dst := f.Topo.Servers[0], f.Topo.Servers[len(f.Topo.Servers)-1]
	f.Stacks[dst.Name].ListenUDP(9, func(_, _ netaddr.IPv4, _ udp.Datagram) {})
	dg := udp.Datagram{SrcPort: 4000, DstPort: 9, Payload: make([]byte, 1000)}
	pkt := ipv4.Packet{
		Header:  ipv4.Header{TTL: 64, Protocol: ipv4.ProtoUDP, Src: src.IP, Dst: dst.IP},
		Payload: dg.Marshal(src.IP, dst.IP),
	}
	return f, f.Routers[src.Ports[1].Peer.Device.Name], pkt.Marshal(), nil
}

// fluidFixture loads a solver with groups distinct three-link paths of ten
// long-lived flows each.
func fluidFixture(groups int) (*fluid.Solver, [][]fluid.LinkID) {
	s := fluid.New(fluid.Config{RateCapBps: 66e6})
	for i := 0; i < 96; i++ {
		s.AddLink(200_000_000, nil)
	}
	paths := make([][]fluid.LinkID, groups)
	id := uint32(0)
	for i := range paths {
		paths[i] = []fluid.LinkID{fluid.LinkID(i % 32), fluid.LinkID(32 + (i/32)%32), fluid.LinkID(64 + (i*5)%32)}
		for j := 0; j < 10; j++ {
			id++
			s.Admit(id, 1<<50, paths[i], time.Millisecond, 0)
		}
	}
	s.Reallocate(0)
	return s, paths
}

func reallocateKernel(groups int) func() (func(), error) {
	return func() (func(), error) {
		s, _ := fluidFixture(groups)
		var now time.Duration
		return func() {
			now += time.Millisecond
			sink = s.Reallocate(now)
		}, nil
	}
}

var kernels = []kernel{
	{"simnet.event", "", 50_000, false, eventKernel(1_000)},
	// 100k pending events is the packet engine at 10^4 concurrent flows.
	{"simnet.event", ".deep", 50_000, false, eventKernel(100_000)},
	{"simnet.timer_reset", "", 500_000, false, func() (func(), error) {
		s := deepSim(1_000)
		t := s.After(time.Millisecond, noop)
		return func() { t.Reset(time.Millisecond) }, nil
	}},
	{"simnet.frame_delivery", "", 200_000, true, func() (func(), error) {
		s := simnet.New(1)
		na, nb := s.AddNode("a"), s.AddNode("b")
		nb.Handler = &sinkHandler{}
		s.Connect(na.AddPort(), nb.AddPort())
		frame := make([]byte, 85) // a BGP keepalive's worth
		return func() {
			na.Port(1).Send(frame)
			s.Step()
		}, nil
	}},
	{"framepool.getput", "", 500_000, false, func() (func(), error) {
		p := framepool.New()
		return func() { p.Put(p.Get(1500)) }, nil
	}},
	{"ethernet.marshal", "", 20_000, false, func() (func(), error) {
		f := ethernet.Frame{Dst: macB, Src: macA, EtherType: ethernet.TypeIPv4, Payload: make([]byte, 1000)}
		return func() { sink = f.Marshal() }, nil
	}},
	{"ethernet.unmarshal", "", 200_000, false, func() (func(), error) {
		f := ethernet.Frame{Dst: macB, Src: macA, EtherType: ethernet.TypeIPv4, Payload: make([]byte, 1000)}
		wire := f.Marshal()
		return func() { sink, _ = ethernet.Unmarshal(wire) }, nil
	}},
	{"ipv4.marshal", "", 100_000, false, func() (func(), error) {
		p := udpIP
		return func() { sink = p.Marshal() }, nil
	}},
	{"ipv4.unmarshal", "", 200_000, false, func() (func(), error) {
		wire := udpIP.Marshal()
		return func() { sink, _ = ipv4.Unmarshal(wire) }, nil
	}},
	{"ipv4.forward", "", 2_000_000, false, func() (func(), error) {
		wire := udpIP.Marshal()
		fresh := append([]byte(nil), wire...)
		return func() {
			if wire[8] <= 1 { // TTL spent: start over from a fresh header
				copy(wire, fresh)
			}
			sink = ipv4.Forward(wire)
		}, nil
	}},
	{"ipv4.checksum", "", 500_000, false, func() (func(), error) {
		buf := udpIP.Marshal()[:ipv4.HeaderLen]
		return func() { sink = ipv4.Checksum(buf) }, nil
	}},
	// The UDP codec's cost is the pseudo-header checksum over the payload,
	// so it is measured at the workload's packet size.
	{"udp.marshal", ".b1000", 20_000, false, func() (func(), error) {
		d := udp.Datagram{SrcPort: 4000, DstPort: 9, Payload: make([]byte, 1000)}
		return func() { sink = d.Marshal(ipA, ipB) }, nil
	}},
	{"udp.unmarshal", ".b1000", 20_000, false, func() (func(), error) {
		d := udp.Datagram{SrcPort: 4000, DstPort: 9, Payload: make([]byte, 1000)}
		wire := d.Marshal(ipA, ipB)
		return func() { sink, _ = udp.Unmarshal(ipA, ipB, wire) }, nil
	}},
	{"flowhash.hash", "", 200_000, false, func() (func(), error) {
		k := flowhash.Key{Src: ipA, Dst: ipB, Proto: ipv4.ProtoUDP, SrcPort: 4000, DstPort: 9}
		return func() { sink = k.Hash() }, nil
	}},
	{"mrmtp.marshal", "", 100_000, false, func() (func(), error) {
		m := mrmtp.Message{Type: mrmtp.TypeUpdate, Sub: mrmtp.UpdateLost, Roots: []byte{11, 12}}
		return func() { sink, _ = m.Marshal() }, nil
	}},
	{"mrmtp.parse", "", 100_000, false, func() (func(), error) {
		m := mrmtp.Message{Type: mrmtp.TypeAdvertise, Tier: 2, VIDs: []mrmtp.VID{{11, 1}, {12, 1}}}
		wire, err := m.Marshal()
		return func() { sink, _ = mrmtp.ParseMessage(wire) }, err
	}},
	{"bgp.marshal_update", "", 50_000, false, func() (func(), error) {
		u := bgpUpdate()
		return func() { sink = bgp.MarshalUpdate(u) }, nil
	}},
	{"bgp.parse_update", "", 50_000, false, func() (func(), error) {
		wire := bgp.MarshalUpdate(bgpUpdate())
		return func() { sink, _ = bgp.ParseMessage(wire) }, nil
	}},
	{"bgp.split_stream", "", 50_000, false, func() (func(), error) {
		var stream []byte
		for i := 0; i < 8; i++ {
			stream = append(stream, bgp.MarshalKeepalive()...)
		}
		return func() { sink, _, _ = bgp.SplitStream(stream) }, nil
	}},
	{"tcp.segment", "", 100_000, false, func() (func(), error) {
		seg := tcp.Segment{SrcPort: 179, DstPort: 40000, Seq: 1, Ack: 1, Flags: tcp.FlagACK | tcp.FlagPSH,
			Window: 65535, TSVal: 1, TSEcr: 1, Payload: bgp.MarshalKeepalive()}
		return func() { sink, _ = tcp.Unmarshal(ipA, ipB, seg.Marshal(ipA, ipB)) }, nil
	}},
	{"ipstack.send_udp", "", 10_000, true, func() (func(), error) { return udpHosts(false) }},
	{"ipstack.forward", "", 10_000, false, func() (func(), error) { return udpHosts(true) }},
	// The FIB is a linear scan: r256 is a top spine's table at 32 PoDs x 8
	// leaves, r16 the paper's fabrics.
	{"ipstack.fib_lookup", ".r16", 100_000, false, fibKernel(16)},
	{"ipstack.fib_lookup", ".r256", 10_000, false, fibKernel(256)},
	{"mrmtp.next_data_hop", "", 200_000, false, func() (func(), error) {
		_, leaf, wire, err := mrmtpFabric()
		if err != nil {
			return nil, err
		}
		key := flowhash.FromIPPacket(wire)
		dstRoot := wire[ipv4.HeaderLen-2] // third octet of the destination address
		if _, ok := leaf.NextDataHop(dstRoot, key); !ok {
			return nil, fmt.Errorf("no next hop toward root %d", dstRoot)
		}
		return func() { sink, _ = leaf.NextDataHop(dstRoot, key) }, nil
	}},
	// One packet across the whole MR-MTP fabric: encapsulation, four
	// forwarding hops, decapsulation, host delivery.
	{"mrmtp.inject_data", "", 5_000, false, func() (func(), error) {
		f, leaf, wire, err := mrmtpFabric()
		if err != nil {
			return nil, err
		}
		return func() {
			leaf.InjectData(wire, mrmtp.DataTTL)
			f.Sim.RunFor(600 * time.Microsecond)
		}, nil
	}},
	{"fluid.admit", "", 100_000, false, func() (func(), error) {
		s, paths := fluidFixture(100)
		id, now := uint32(1<<20), time.Duration(0)
		return func() {
			id++
			s.Admit(id, 1<<50, paths[int(id)%len(paths)], time.Millisecond, now)
			if id%1024 == 0 { // an epoch's worth of admissions, then resolve them
				now += time.Millisecond
				s.Reallocate(now)
			}
		}, nil
	}},
	{"fluid.reallocate", ".g100", 5_000, false, reallocateKernel(100)},
	{"fluid.reallocate", ".g1000", 500, false, reallocateKernel(1000)},
	{"fluid.advance", "", 50_000, false, func() (func(), error) {
		s, _ := fluidFixture(100)
		var now time.Duration
		return func() {
			now += time.Millisecond
			sink = s.Advance(now)
		}, nil
	}},
	{"fluid.repath", "", 2_000, false, func() (func(), error) {
		s, paths := fluidFixture(100)
		flip := fluid.LinkID(0)
		alt := make([]fluid.LinkID, 3)
		return func() {
			flip ^= 1 // every group moves to its other third link, every call
			s.Repath(func(id uint32) ([]fluid.LinkID, time.Duration, bool) {
				copy(alt, paths[(id-1)/10])
				alt[2] = 64 + (alt[2]-64+16*flip)%32
				return alt, time.Millisecond, true
			})
		}, nil
	}},
	{"stats.summarize", ".n10000", 4, false, func() (func(), error) {
		rng := rand.New(rand.NewSource(1))
		xs := make([]float64, 10_000)
		for i := range xs {
			xs[i] = rng.ExpFloat64()
		}
		return func() { sink = stats.Summarize(xs) }, nil
	}},
	{"metrics.analyze", "", 200, false, func() (func(), error) {
		var l metrics.Log
		for i := 0; i < 2_000; i++ {
			node := fmt.Sprintf("S-%d-1", i%20)
			l.RouteUpdate(time.Duration(i)*time.Microsecond, node)
			l.ControlMessage(time.Duration(i)*time.Microsecond, node, 85)
		}
		return func() { sink = l.Analyze(0) }, nil
	}},
}

func bgpUpdate() bgp.Update {
	return bgp.Update{
		ASPath:  []uint16{64512, 64513, 64601},
		NextHop: netaddr.MakeIPv4(172, 16, 0, 1),
		NLRI:    []netaddr.Prefix{netaddr.MakePrefix(netaddr.MakeIPv4(192, 168, 11, 0), 24)},
	}
}

// probeMetrics lists what runProbes reports, in BENCHMARK.json order.
func probeMetrics() []metricDef {
	out := []metricDef{lower("topology.build_s", "s")}
	for _, stage := range []string{"harness.build_s", "harness.warmup_s"} {
		for _, p := range gridProtocols {
			out = append(out, lower(stage+"."+protoKey(p), "s"))
		}
	}
	for _, p := range gridProtocols {
		out = append(out, lower("harness.warmup_events."+protoKey(p), "count"))
	}
	out = append(out,
		higher("simnet.events_per_s", "1/s"),
		lower("mrmtp.table_size.spine", "count"),
		lower("mrmtp.table_size.top", "count"),
		lower("bgp.fib_len.spine", "count"),
		lower("bgp.fib_len.top", "count"),
		lower("bgp.sessions", "count"),
		lower("bfd.transitions", "count"),
	)
	for _, p := range gridProtocols {
		out = append(out, lower("sim.convergence_ms."+protoKey(p)+".tc1", "ms"))
	}
	for _, p := range gridProtocols {
		out = append(out, lower("harness.bringup4_s."+protoKey(p), "s"))
	}
	return append(out,
		lower("harness.trial_s.failure", "s"),
		lower("harness.trial_s.loss", "s"),
		lower("workload.run_s.packet", "s"),
		lower("workload.run_s.hybrid", "s"),
		higher("framepool.hit_ratio", "ratio"),
		lower("workload.new_s.f1e6", "s"),
		lower("workload.report_s.f1e6", "s"),
	)
}

// bringupKey indexes the bring-up price table.
type bringupKey struct {
	pods  int
	proto harness.Protocol
}

// bringUp times Build plus WarmUp of one fabric: the work every trial and
// every RunWorkload call repeats before its experiment starts.
func bringUp(spec topology.Spec, proto harness.Protocol, seed int64) (float64, error) {
	t0 := now()
	f, err := harness.Build(harness.DefaultOptions(spec, proto, seed))
	if err != nil {
		return 0, err
	}
	if err := f.WarmUp(harness.WarmupTime); err != nil {
		return 0, err
	}
	return since(t0).Seconds(), nil
}

// bringUpTable prices the paper's two fabrics under each protocol (median
// of three bring-ups; they take milliseconds).
func bringUpTable(seed int64) (map[bringupKey]float64, error) {
	table := make(map[bringupKey]float64)
	for _, spec := range []topology.Spec{topology.TwoPodSpec(), topology.FourPodSpec()} {
		for _, proto := range gridProtocols {
			var xs []float64
			for i := 0; i < 3; i++ {
				s, err := bringUp(spec, proto, seed)
				if err != nil {
					return nil, fmt.Errorf("bring-up %d-PoD %s: %w", spec.Pods, proto, err)
				}
				xs = append(xs, s)
			}
			table[bringupKey{spec.Pods, proto}] = stats.Percentile(xs, 50)
		}
	}
	return table, nil
}

// packetProbe drives the packet engine directly over a warm 4-PoD MR-MTP
// fabric, as harness.RunWorkload does, so the run itself can be timed apart
// from bring-up and the simulator's frame-pool counters read afterwards.
func packetProbe(sc scale, seed int64) (runS, hitRatio float64, err error) {
	w := packetConfig(sc)
	f, err := harness.Build(harness.DefaultOptions(topology.FourPodSpec(), harness.ProtoMRMTP, seed))
	if err != nil {
		return 0, 0, err
	}
	if err := f.WarmUp(harness.WarmupTime); err != nil {
		return 0, 0, err
	}
	for _, link := range f.Sim.Links() {
		link.SetBandwidth(w.LinkBps, w.LinkQueue)
	}
	cfg := workload.DefaultConfig(seed)
	cfg.Seed = seed
	cfg.Flows = sc.packetFlows / 4
	cfg.MeanArrival = w.MeanArrival
	cfg.Sizes = newStratified(workload.WebSearchMix(), cfg.Flows, seed)
	e, err := workload.New(f.Sim, f.WorkloadHosts(), cfg)
	if err != nil {
		return 0, 0, err
	}
	before := f.Sim.FrameStats()
	t0 := now()
	e.Start()
	for start := f.Sim.Now(); !e.Done() && f.Sim.Now()-start < w.MaxRun; {
		f.Sim.RunFor(50 * time.Millisecond)
	}
	runS = since(t0).Seconds()
	if !e.Done() {
		return 0, 0, fmt.Errorf("packet probe: flows still in flight after %v", w.MaxRun)
	}
	after := f.Sim.FrameStats()
	recycled, fresh := after.Recycled-before.Recycled, after.Fresh-before.Fresh
	return runS, float64(recycled) / float64(recycled+fresh), nil
}

// engineProbe times workload.New and Engine.Report at the million-flow
// scale, with the fluid run between them reduced to one uncontended link so
// that only the engine's own bookkeeping is on the clock.
func engineProbe(sc scale, seed int64) (newS, reportS float64, err error) {
	f, err := harness.Build(harness.DefaultOptions(topology.TwoPodSpec(), harness.ProtoMRMTP, seed))
	if err != nil {
		return 0, 0, err
	}
	if err := f.WarmUp(harness.WarmupTime); err != nil {
		return 0, 0, err
	}
	w := fluidConfig(sc)
	solver := fluid.New(fluid.Config{RateCapBps: 66e6})
	path := []fluid.LinkID{solver.AddLink(1e15, nil)}
	cfg := workload.DefaultConfig(seed)
	cfg.Seed = seed
	cfg.Mode = workload.ModeFluid
	cfg.Flows = 2 * sc.fluidFlows
	cfg.Sizes = w.Sizes
	cfg.MeanArrival = 2 * time.Second / time.Duration(cfg.Flows)
	cfg.RateInterval = w.RateInterval
	cfg.Solver = solver
	cfg.PathOf = func(*workload.Flow) ([]fluid.LinkID, time.Duration, bool) { return path, 0, true }

	t0 := now()
	e, err := workload.New(f.Sim, f.WorkloadHosts(), cfg)
	newS = since(t0).Seconds()
	if err != nil {
		return 0, 0, err
	}
	e.Start()
	for i := 0; i < 60 && !e.Done(); i++ {
		f.Sim.RunFor(time.Second)
	}
	t0 = now()
	rep := e.Report(nil)
	reportS = since(t0).Seconds()
	if rep.Completed != rep.Flows {
		return 0, 0, fmt.Errorf("engine probe: %d of %d flows completed", rep.Completed, rep.Flows)
	}
	return newS, reportS, nil
}

// runProbes takes every workload-independent per-layer reading.
func runProbes(sc scale, seed int64, table map[bringupKey]float64) (map[string]float64, error) {
	m := make(map[string]float64)

	t0 := now()
	if _, err := topology.Build(sc.fabric); err != nil {
		return nil, err
	}
	m["topology.build_s"] = since(t0).Seconds()

	// The fabric-scale fabric, one pass per protocol with a 1 s idle window:
	// bring-up cost by stage, steady-state event rate, and the simulated
	// statistics that must not move for a speed-only change.
	var probe repResult
	var steadyEvents, steadyS float64
	for _, proto := range gridProtocols {
		fr, ok := runFabric(sc.fabric, proto, seed, time.Second, sc.fabricSettle, nil, &probe)
		if !ok {
			return nil, fmt.Errorf("fabric probe: %v", probe.errs)
		}
		pk := protoKey(proto)
		m["harness.build_s."+pk] = fr.buildS
		m["harness.warmup_s."+pk] = fr.warmupS
		m["harness.warmup_events."+pk] = float64(fr.warmupEvents)
		m["sim.convergence_ms."+pk+".tc1"] = float64(fr.convergence) / float64(time.Millisecond)
		steadyEvents += float64(fr.steadyEvents)
		steadyS += fr.steadyS
		switch proto {
		case harness.ProtoMRMTP:
			m["mrmtp.table_size.spine"], m["mrmtp.table_size.top"] = float64(fr.spineTable), float64(fr.topTable)
		case harness.ProtoBGPBFD:
			m["bgp.fib_len.spine"], m["bgp.fib_len.top"] = float64(fr.spineTable), float64(fr.topTable)
			m["bgp.sessions"] = float64(fr.sessions)
			m["bfd.transitions"] = float64(fr.bfdTransitions)
		}
	}
	m["simnet.events_per_s"] = steadyEvents / steadyS

	four := topology.FourPodSpec()
	var failS, lossS float64
	for _, proto := range gridProtocols {
		m["harness.bringup4_s."+protoKey(proto)] = table[bringupKey{4, proto}]
		opts := harness.DefaultOptions(four, proto, seed)
		t0 = now()
		if _, err := harness.RunFailureTrials(opts, topology.TC1, 1); err != nil {
			return nil, err
		}
		failS += since(t0).Seconds()
		t0 = now()
		if _, err := harness.RunLossTrials(opts, topology.TC1, false, 1); err != nil {
			return nil, err
		}
		lossS += since(t0).Seconds()
	}
	m["harness.trial_s.failure"] = failS / float64(len(gridProtocols))
	m["harness.trial_s.loss"] = lossS / float64(len(gridProtocols))

	var err error
	if m["workload.run_s.packet"], m["framepool.hit_ratio"], err = packetProbe(sc, seed); err != nil {
		return nil, err
	}

	// The hybrid engine's solver wiring is private to harness, so its run
	// is RunWorkload on the fluid leg minus a twin fabric's bring-up.
	w := fluidConfig(sc)
	w.Flows /= 5
	w.MeanArrival = 2 * time.Second / time.Duration(w.Flows)
	t0 = now()
	res, err := harness.RunWorkload(harness.DefaultOptions(sc.fluidSpec, harness.ProtoMRMTP, seed), w)
	if err != nil {
		return nil, err
	}
	if res.Report.Completed != res.Report.Flows {
		return nil, fmt.Errorf("hybrid probe: %d of %d flows completed", res.Report.Completed, res.Report.Flows)
	}
	m["workload.run_s.hybrid"] = since(t0).Seconds() - table[bringupKey{sc.fluidSpec.Pods, harness.ProtoMRMTP}]

	if m["workload.new_s.f1e6"], m["workload.report_s.f1e6"], err = engineProbe(sc, seed); err != nil {
		return nil, err
	}

	for _, k := range kernels {
		ns, allocs, err := k.run(sc)
		if err != nil {
			return nil, err
		}
		m[k.name+"_ns"+k.size] = ns
		if k.allocs {
			m[k.name+"_allocs"+k.size] = allocs
		}
	}
	return m, nil
}
