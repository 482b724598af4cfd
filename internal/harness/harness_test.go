package harness

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/capture"
	"repro/internal/ipstack"
	"repro/internal/netaddr"
	"repro/internal/topology"
	"repro/internal/trafficgen"
	"repro/internal/udp"
)

func buildAndWarm(t *testing.T, spec topology.Spec, proto Protocol) *Fabric {
	t.Helper()
	f, err := Build(DefaultOptions(spec, proto, 42))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := f.WarmUp(WarmupTime); err != nil {
		t.Fatalf("WarmUp: %v", err)
	}
	return f
}

func TestMRMTPFabricConverges(t *testing.T) {
	f := buildAndWarm(t, topology.TwoPodSpec(), ProtoMRMTP)
	if err := f.CheckConverged(); err != nil {
		t.Fatal(err)
	}
}

func TestFig2VIDTables(t *testing.T) {
	// The paper's Fig. 2: S1_1 acquires 11.1 and 12.1; the top spines
	// acquire one VID per ToR with the plane-1/plane-2 suffixes.
	f := buildAndWarm(t, topology.TwoPodSpec(), ProtoMRMTP)
	want := map[string][]string{
		"S-1-1": {"11.1", "12.1"},
		"S-1-2": {"11.2", "12.2"},
		"S-2-1": {"13.1", "14.1"},
		"T-1":   {"11.1.1", "12.1.1", "13.1.1", "14.1.1"},
		"T-3":   {"11.1.2", "12.1.2", "13.1.2", "14.1.2"},
		"T-4":   {"11.2.2", "12.2.2", "13.2.2", "14.2.2"},
	}
	for name, vids := range want {
		got := f.Routers[name].VIDs()
		if !reflect.DeepEqual(got, vids) {
			t.Errorf("%s VIDs = %v, want %v", name, got, vids)
		}
	}
}

func TestListing5VIDTableRender(t *testing.T) {
	f := buildAndWarm(t, topology.FourPodSpec(), ProtoMRMTP)
	out := f.Routers["T-1"].RenderVIDTable()
	// Listing 5 shape: one line per pod-facing port, two root VIDs each.
	for _, want := range []string{"eth1\t11.1.1, 12.1.1", "eth2\t13.1.1, 14.1.1", "eth3\t15.1.1, 16.1.1", "eth4\t17.1.1, 18.1.1"} {
		if !contains(out, want) {
			t.Errorf("VID table missing %q:\n%s", want, out)
		}
	}
}

func contains(haystack, needle string) bool {
	return len(haystack) >= len(needle) && (haystack == needle || len(haystack) > 0 && indexOf(haystack, needle) >= 0)
}

func indexOf(h, n string) int {
	for i := 0; i+len(n) <= len(h); i++ {
		if h[i:i+len(n)] == n {
			return i
		}
	}
	return -1
}

func TestBGPFabricConverges(t *testing.T) {
	for _, spec := range []topology.Spec{topology.TwoPodSpec(), topology.FourPodSpec()} {
		f := buildAndWarm(t, spec, ProtoBGP)
		if err := f.CheckConverged(); err != nil {
			t.Fatalf("%d pods: %v", spec.Pods, err)
		}
	}
}

func TestBGPBFDFabricConverges(t *testing.T) {
	f := buildAndWarm(t, topology.TwoPodSpec(), ProtoBGPBFD)
	if err := f.CheckConverged(); err != nil {
		t.Fatal(err)
	}
}

func TestListing3SpineRoutingTable(t *testing.T) {
	// A tier-2 spine's kernel table: connected link routes, single-path
	// routes to its own pod's leaves, ECMP pairs to remote pods.
	f := buildAndWarm(t, topology.FourPodSpec(), ProtoBGP)
	fib := &f.Stacks["S-1-1"].FIB
	out := fib.Render()
	for _, want := range []string{
		"proto kernel scope link",
		"192.168.11.0/24 via",
		"192.168.13.0/24 proto bgp metric 20",
		"nexthop via",
	} {
		if !contains(out, want) {
			t.Errorf("spine table missing %q:\n%s", want, out)
		}
	}
	// Remote-pod prefixes must be 2-way ECMP.
	r := fib.Get(netaddr.MakePrefix(netaddr.MakeIPv4(192, 168, 13, 0), 24), ipstack.ProtoBGP)
	if r == nil || len(r.NextHops) != 2 {
		t.Fatalf("remote prefix route = %+v, want 2-way ECMP", r)
	}
}

func TestMRMTPDataPath(t *testing.T) {
	f := buildAndWarm(t, topology.TwoPodSpec(), ProtoMRMTP)
	src, srcDev, err := f.ServerStack(11, 1)
	if err != nil {
		t.Fatal(err)
	}
	dst, dstDev, err := f.ServerStack(14, 1)
	if err != nil {
		t.Fatal(err)
	}
	var got int
	dst.ListenUDP(7, func(_, _ netaddr.IPv4, dg udp.Datagram) { got++ })
	for i := 0; i < 10; i++ {
		src.SendUDP(srcDev.IP, dstDev.IP, 9000+uint16(i), 7, []byte("cross-fabric"))
	}
	f.Sim.RunFor(100 * time.Millisecond)
	if got != 10 {
		t.Fatalf("delivered %d/10 packets across the MR-MTP fabric", got)
	}
}

func TestBGPDataPath(t *testing.T) {
	f := buildAndWarm(t, topology.TwoPodSpec(), ProtoBGP)
	src, srcDev, err := f.ServerStack(11, 1)
	if err != nil {
		t.Fatal(err)
	}
	dst, dstDev, err := f.ServerStack(14, 1)
	if err != nil {
		t.Fatal(err)
	}
	var got int
	dst.ListenUDP(7, func(_, _ netaddr.IPv4, dg udp.Datagram) { got++ })
	for i := 0; i < 10; i++ {
		src.SendUDP(srcDev.IP, dstDev.IP, 9000+uint16(i), 7, []byte("cross-fabric"))
	}
	f.Sim.RunFor(100 * time.Millisecond)
	if got != 10 {
		t.Fatalf("delivered %d/10 packets across the BGP fabric", got)
	}
}

func TestFig5MRMTPBlastRadius(t *testing.T) {
	// Paper §VII.B: MR-MTP blast radius 2-PoD: 3 (TC1/TC2), 1 (TC3/TC4);
	// 4-PoD: 7 and 3.
	want := map[int]map[topology.FailureCase]int{
		2: {topology.TC1: 3, topology.TC2: 3, topology.TC3: 1, topology.TC4: 1},
		4: {topology.TC1: 7, topology.TC2: 7, topology.TC3: 3, topology.TC4: 3},
	}
	for pods, cases := range want {
		spec := topology.TwoPodSpec()
		if pods == 4 {
			spec = topology.FourPodSpec()
		}
		for tc, wantBlast := range cases {
			r, err := RunFailure(DefaultOptions(spec, ProtoMRMTP, 1), tc)
			if err != nil {
				t.Fatalf("%d-pod %v: %v", pods, tc, err)
			}
			if r.BlastRadius != wantBlast {
				t.Errorf("%d-pod %v blast = %d (%v), want %d", pods, tc, r.BlastRadius, r.UpdatedNodes, wantBlast)
			}
		}
	}
}

func TestFig5BGPBlastRadiusTC3TC4(t *testing.T) {
	// Paper §VII.B: BGP blast radius for TC3/TC4 is 3 in the 2-PoD
	// topology and 5 in the 4-PoD topology.
	for _, c := range []struct {
		spec topology.Spec
		want int
	}{
		{topology.TwoPodSpec(), 3},
		{topology.FourPodSpec(), 5},
	} {
		for _, tc := range []topology.FailureCase{topology.TC3, topology.TC4} {
			r, err := RunFailure(DefaultOptions(c.spec, ProtoBGP, 1), tc)
			if err != nil {
				t.Fatalf("%v: %v", tc, err)
			}
			if r.BlastRadius != c.want {
				t.Errorf("%d-pod %v blast = %d (%v), want %d", c.spec.Pods, tc, r.BlastRadius, r.UpdatedNodes, c.want)
			}
		}
	}
}

func TestFig5BGPBlastRadiusLargerAtTC1(t *testing.T) {
	// The qualitative contrast of Fig. 5: for BGP a leaf-adjacent failure
	// touches most of the fabric, far more than a top-adjacent one.
	r1, err := RunFailure(DefaultOptions(topology.TwoPodSpec(), ProtoBGP, 1), topology.TC1)
	if err != nil {
		t.Fatal(err)
	}
	r3, err := RunFailure(DefaultOptions(topology.TwoPodSpec(), ProtoBGP, 1), topology.TC3)
	if err != nil {
		t.Fatal(err)
	}
	if r1.BlastRadius <= r3.BlastRadius {
		t.Errorf("TC1 blast (%d) should exceed TC3 blast (%d)", r1.BlastRadius, r3.BlastRadius)
	}
	if r1.BlastRadius < 7 {
		t.Errorf("TC1 blast = %d (%v), want most of the 12 routers", r1.BlastRadius, r1.UpdatedNodes)
	}
}

func TestFig4ConvergenceOrdering(t *testing.T) {
	// Fig. 4 at TC1: detection is remote, so convergence is dominated by
	// the dead timer: MR-MTP (100 ms) < BGP/BFD (300 ms) < BGP (3 s).
	conv := make(map[Protocol]time.Duration)
	for _, proto := range []Protocol{ProtoMRMTP, ProtoBGP, ProtoBGPBFD} {
		r, err := RunFailure(DefaultOptions(topology.TwoPodSpec(), proto, 7), topology.TC1)
		if err != nil {
			t.Fatalf("%v: %v", proto, err)
		}
		conv[proto] = r.Convergence
	}
	if !(conv[ProtoMRMTP] < conv[ProtoBGPBFD] && conv[ProtoBGPBFD] < conv[ProtoBGP]) {
		t.Errorf("convergence ordering violated: MR-MTP=%v BFD=%v BGP=%v",
			conv[ProtoMRMTP], conv[ProtoBGPBFD], conv[ProtoBGP])
	}
	if conv[ProtoMRMTP] > 150*time.Millisecond {
		t.Errorf("MR-MTP TC1 convergence = %v, want ~dead timer (<=150ms)", conv[ProtoMRMTP])
	}
	if conv[ProtoBGP] < time.Second {
		t.Errorf("plain BGP TC1 convergence = %v, want hold-timer scale", conv[ProtoBGP])
	}
}

func TestFig4TC2FasterThanTC1(t *testing.T) {
	// Fig. 4: at TC2 the update originator detects the failure locally,
	// so convergence is far below the detection-dominated TC1.
	for _, proto := range []Protocol{ProtoMRMTP, ProtoBGP} {
		r1, err := RunFailure(DefaultOptions(topology.TwoPodSpec(), proto, 3), topology.TC1)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := RunFailure(DefaultOptions(topology.TwoPodSpec(), proto, 3), topology.TC2)
		if err != nil {
			t.Fatal(err)
		}
		if r2.Convergence >= r1.Convergence {
			t.Errorf("%v: TC2 convergence %v should beat TC1 %v", proto, r2.Convergence, r1.Convergence)
		}
	}
}

func TestFig6ControlOverhead(t *testing.T) {
	// Fig. 6: MR-MTP's update bytes are far below BGP's, and the 4-PoD
	// overhead is roughly double the 2-PoD overhead for both.
	get := func(spec topology.Spec, proto Protocol) int {
		t.Helper()
		r, err := RunFailure(DefaultOptions(spec, proto, 5), topology.TC1)
		if err != nil {
			t.Fatal(err)
		}
		return r.ControlBytes
	}
	m2 := get(topology.TwoPodSpec(), ProtoMRMTP)
	m4 := get(topology.FourPodSpec(), ProtoMRMTP)
	b2 := get(topology.TwoPodSpec(), ProtoBGP)
	b4 := get(topology.FourPodSpec(), ProtoBGP)
	t.Logf("control overhead bytes: MR-MTP %d->%d, BGP %d->%d (paper: 120->264, 1023->2139)", m2, m4, b2, b4)
	if b2 <= 3*m2 || b4 <= 3*m4 {
		t.Errorf("BGP overhead (%d, %d) should be several times MR-MTP's (%d, %d)", b2, b4, m2, m4)
	}
	if m4 <= m2 || b4 <= b2 {
		t.Error("4-PoD overhead should exceed 2-PoD overhead for both protocols")
	}
	if m2 < 100 || m2 > 200 {
		t.Errorf("MR-MTP 2-PoD overhead = %d bytes, want ~120 (paper)", m2)
	}
}

func TestFig7PacketLossNearSender(t *testing.T) {
	// Fig. 7: sender at ToR 11 (close to the failures). TC1/TC3 are
	// detected locally by the forwarding node => tiny loss; TC2/TC4 wait
	// for the dead timer => loss scales with the timer.
	opts := DefaultOptions(topology.TwoPodSpec(), ProtoMRMTP, 11)
	near := func(proto Protocol, tc topology.FailureCase) uint64 {
		t.Helper()
		o := opts
		o.Protocol = proto
		r, err := RunLoss(o, tc, false)
		if err != nil {
			t.Fatalf("%v %v: %v", proto, tc, err)
		}
		return r.Lost
	}
	mtpTC1, mtpTC2 := near(ProtoMRMTP, topology.TC1), near(ProtoMRMTP, topology.TC2)
	bgpTC2 := near(ProtoBGP, topology.TC2)
	bfdTC2 := near(ProtoBGPBFD, topology.TC2)
	t.Logf("near-sender loss: MR-MTP TC1=%d TC2=%d, BGP TC2=%d, BFD TC2=%d", mtpTC1, mtpTC2, bgpTC2, bfdTC2)
	if mtpTC1 > 5 {
		t.Errorf("MR-MTP TC1 loss = %d, want ~0 (local detection)", mtpTC1)
	}
	if mtpTC2 > 60 {
		t.Errorf("MR-MTP TC2 loss = %d, want ~dead-timer worth (<60)", mtpTC2)
	}
	if bgpTC2 < 300 {
		t.Errorf("BGP TC2 loss = %d, want hold-timer scale (>300)", bgpTC2)
	}
	if !(mtpTC2 < bfdTC2 && bfdTC2 < bgpTC2) {
		t.Errorf("loss ordering violated: MR-MTP %d, BFD %d, BGP %d", mtpTC2, bfdTC2, bgpTC2)
	}
}

func TestFig8PacketLossFarSender(t *testing.T) {
	// Fig. 8: sender at ToR 14 (far side). Now TC1/TC3 are the lossy
	// cases because the node forwarding into the failure is unaware.
	lossFor := func(proto Protocol, tc topology.FailureCase) uint64 {
		t.Helper()
		r, err := RunLoss(DefaultOptions(topology.TwoPodSpec(), proto, 13), tc, true)
		if err != nil {
			t.Fatalf("%v %v: %v", proto, tc, err)
		}
		return r.Lost
	}
	mtpTC1 := lossFor(ProtoMRMTP, topology.TC1)
	mtpTC2 := lossFor(ProtoMRMTP, topology.TC2)
	bgpTC1 := lossFor(ProtoBGP, topology.TC1)
	t.Logf("far-sender loss: MR-MTP TC1=%d TC2=%d, BGP TC1=%d", mtpTC1, mtpTC2, bgpTC1)
	if mtpTC1 <= mtpTC2 {
		t.Errorf("far sender: TC1 loss (%d) should exceed TC2 loss (%d)", mtpTC1, mtpTC2)
	}
	if bgpTC1 < 300 {
		t.Errorf("BGP far-sender TC1 loss = %d, want hold-timer scale", bgpTC1)
	}
	if mtpTC1 > 60 {
		t.Errorf("MR-MTP far-sender TC1 loss = %d, want dead-timer scale (<60)", mtpTC1)
	}
}

func TestFig9KeepAliveBGPBFD(t *testing.T) {
	r, err := RunKeepAlive(DefaultOptions(topology.TwoPodSpec(), ProtoBGPBFD, 3), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	bfdStats := r[capture.ClassBFD]
	kaStats := r[capture.ClassBGPKeepalive]
	if bfdStats.Count < 100 {
		t.Errorf("BFD frames in 10s = %d, want ~150+ (100ms interval, both directions)", bfdStats.Count)
	}
	if got := bfdStats.Bytes / max(bfdStats.Count, 1); got != 66 {
		t.Errorf("BFD frame size = %d bytes, want 66 (Fig. 9)", got)
	}
	if kaStats.Count < 10 {
		t.Errorf("BGP keepalives in 10s = %d, want ~20", kaStats.Count)
	}
	if got := kaStats.Bytes / max(kaStats.Count, 1); got != 85 {
		t.Errorf("BGP keepalive frame size = %d bytes, want 85 (Fig. 9)", got)
	}
	if r[capture.ClassTCPAck].Count == 0 {
		t.Error("no TCP acknowledgements captured; the paper counts them as BGP overhead")
	}
}

func TestFig10KeepAliveMRMTP(t *testing.T) {
	r, err := RunKeepAlive(DefaultOptions(topology.TwoPodSpec(), ProtoMRMTP, 3), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	hello := r[capture.ClassMTPHello]
	if hello.Count < 300 {
		t.Errorf("MR-MTP hellos in 10s = %d, want ~400 (50ms both directions)", hello.Count)
	}
	if got := hello.Bytes / max(hello.Count, 1); got != 15 {
		t.Errorf("hello frame size = %d bytes, want 15 (Fig. 10)", got)
	}
	// No IP-world liveness machinery in the MR-MTP fabric.
	for _, cl := range []capture.Class{capture.ClassBFD, capture.ClassBGPKeepalive, capture.ClassTCPAck} {
		if r[cl].Count != 0 {
			t.Errorf("unexpected %s frames in MR-MTP fabric", cl)
		}
	}
}

func TestDataSuppressesKeepAlives(t *testing.T) {
	// Paper §IV.B/§IX: every MR-MTP message serves as a keep-alive, so a
	// busy link carries fewer explicit hellos than an idle one.
	f := buildAndWarm(t, topology.TwoPodSpec(), ProtoMRMTP)
	src, srcDev, _ := f.ServerStack(11, 1)
	_, dstDev, _ := f.ServerStack(12, 1) // same pod: crosses L-1-1's uplinks
	cfg := trafficgen.DefaultConfig(srcDev.IP, dstDev.IP)
	cfg.Interval = 5 * time.Millisecond
	port, err := PickFlowPort(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.SrcPort = port
	sender := trafficgen.NewSender(src, cfg)
	leaf := f.Routers["L-1-1"]
	before := leaf.Stats.HellosSent
	f.Sim.RunFor(5 * time.Second)
	idleRate := float64(leaf.Stats.HellosSent-before) / 5
	sender.Start()
	before = leaf.Stats.HellosSent
	f.Sim.RunFor(5 * time.Second)
	busyRate := float64(leaf.Stats.HellosSent-before) / 5
	sender.Stop()
	if busyRate >= idleRate {
		t.Errorf("hello rate under load (%v/s) should drop below idle rate (%v/s)", busyRate, idleRate)
	}
}

func TestMRMTPRecovery(t *testing.T) {
	// Slow-to-Accept: after the failed interface is restored, the fabric
	// re-forms the meshed trees and end-to-end delivery resumes.
	f := buildAndWarm(t, topology.TwoPodSpec(), ProtoMRMTP)
	fp, _ := f.Topo.FailurePoint(topology.TC1)
	port := f.Sim.Node(fp.Device).Port(fp.Port)
	port.Fail()
	f.Sim.RunFor(2 * time.Second)
	port.Restore()
	f.Sim.RunFor(5 * time.Second)
	if err := f.CheckConverged(); err != nil {
		t.Fatalf("fabric did not recover: %v", err)
	}
	// The restored path must carry traffic again.
	src, srcDev, _ := f.ServerStack(11, 1)
	dst, dstDev, _ := f.ServerStack(14, 1)
	var got int
	dst.ListenUDP(8, func(_, _ netaddr.IPv4, dg udp.Datagram) { got++ })
	for i := 0; i < 20; i++ {
		src.SendUDP(srcDev.IP, dstDev.IP, 9100+uint16(i), 8, []byte("post-recovery"))
	}
	f.Sim.RunFor(200 * time.Millisecond)
	if got != 20 {
		t.Errorf("delivered %d/20 after recovery", got)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
