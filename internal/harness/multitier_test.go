package harness

import (
	"strings"
	"testing"
	"time"

	"repro/internal/netaddr"
	"repro/internal/topology"
	"repro/internal/udp"
)

// fourTier is a 2-zone, 2-pods-per-zone, four-tier fabric: 8 leaves,
// 8 pod spines, 8 zone spines, 8 super spines = 32 routers.
func fourTier() topology.Spec {
	return topology.Spec{
		Pods: 4, Zones: 2, LeavesPerPod: 2,
		SpinesPerPod: 2, UplinksPerSpine: 2, UplinksPerZone: 2,
		ServersPerLeaf: 1,
	}
}

// zoneSpineUplink is A-1-1's uplink to T-1, the 4-tier analogue of TC3.
var zoneSpineUplink = topology.FailurePoint{Device: "A-1-1", Port: 1}

func fourTierOptions(proto Protocol) Options { return DefaultOptions(fourTier(), proto, 42) }

func warmFourTier(t *testing.T, proto Protocol) *Fabric {
	t.Helper()
	f, err := Build(fourTierOptions(proto))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := f.WarmUp(WarmupTime); err != nil {
		t.Fatalf("WarmUp: %v", err)
	}
	return f
}

func TestMultiTierTopologyShape(t *testing.T) {
	topo, err := topology.Build(fourTier())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(topo.Routers()); got != 32 {
		t.Errorf("routers = %d, want 32", got)
	}
	if got := len(topo.Aggs); got != 8 {
		t.Errorf("zone spines = %d, want 8", got)
	}
	// Plane wiring spot checks: pod spine S-1-1-1 uplinks to A-1-1, A-1-3;
	// zone spine A-1-1 uplinks to T-1, T-5.
	sp := topo.Devices["S-1-1-1"]
	if sp.Ports[1].Peer.Device.Name != "A-1-1" || sp.Ports[2].Peer.Device.Name != "A-1-3" {
		t.Errorf("S-1-1-1 uplinks: %s, %s", sp.Ports[1].Peer.Device.Name, sp.Ports[2].Peer.Device.Name)
	}
	agg := topo.Devices["A-1-1"]
	if agg.Ports[1].Peer.Device.Name != "T-1" || agg.Ports[2].Peer.Device.Name != "T-5" {
		t.Errorf("A-1-1 uplinks: %s, %s", agg.Ports[1].Peer.Device.Name, agg.Ports[2].Peer.Device.Name)
	}
	// Level sequence along a path: 1,2,3,4.
	leaf := topo.Devices["L-1-1-1"]
	if leaf.Level != 1 || sp.Level != 2 || agg.Level != 3 || topo.Devices["T-1"].Level != 4 {
		t.Error("levels wrong along the column")
	}
}

func TestMultiTierMRMTPConverges(t *testing.T) {
	f := warmFourTier(t, ProtoMRMTP)
	if err := f.CheckConverged(); err != nil {
		t.Fatal(err)
	}
	// VIDs at the super spines are four elements deep: root.port.port.port
	// — the paper's "scale to any number of spine tiers" claim in action.
	vids := f.Routers["T-1"].VIDs()
	if len(vids) != 8 {
		t.Fatalf("T-1 holds %d VIDs, want one per leaf (8): %v", len(vids), vids)
	}
	for _, v := range vids {
		if got := strings.Count(v, ".") + 1; got != 4 {
			t.Errorf("VID %s has %d elements, want 4 in a 4-tier fabric", v, got)
		}
	}
}

func TestMultiTierMRMTPCrossZoneTraffic(t *testing.T) {
	f := warmFourTier(t, ProtoMRMTP)
	// VID 11 is in zone 1; VID 18 (the last leaf) is in zone 2.
	src, srcDev, err := f.ServerStack(11, 1)
	if err != nil {
		t.Fatal(err)
	}
	dst, dstDev, err := f.ServerStack(18, 1)
	if err != nil {
		t.Fatal(err)
	}
	var got int
	dst.ListenUDP(7, func(_, _ netaddr.IPv4, dg udp.Datagram) { got++ })
	for i := 0; i < 10; i++ {
		src.SendUDP(srcDev.IP, dstDev.IP, 9500+uint16(i), 7, []byte("cross-zone"))
	}
	f.Sim.RunFor(100 * time.Millisecond)
	if got != 10 {
		t.Fatalf("delivered %d/10 across zones", got)
	}
}

func TestMultiTierBGPConverges(t *testing.T) {
	f := warmFourTier(t, ProtoBGP)
	if err := f.CheckConverged(); err != nil {
		t.Fatal(err)
	}
	// Cross-zone data path.
	src, srcDev, _ := f.ServerStack(11, 1)
	dst, dstDev, _ := f.ServerStack(18, 1)
	var got int
	dst.ListenUDP(7, func(_, _ netaddr.IPv4, dg udp.Datagram) { got++ })
	for i := 0; i < 10; i++ {
		src.SendUDP(srcDev.IP, dstDev.IP, 9600+uint16(i), 7, []byte("cross-zone"))
	}
	f.Sim.RunFor(100 * time.Millisecond)
	if got != 10 {
		t.Fatalf("BGP delivered %d/10 across zones", got)
	}
}

func TestMultiTierFailureRecovery(t *testing.T) {
	// Fail a zone spine's uplink (the 4-tier analogue of TC3) and verify
	// MR-MTP reconverges with the same dead-timer characteristics.
	f := warmFourTier(t, ProtoMRMTP)
	f.Log.Reset()
	failAt, err := f.FailPoint(zoneSpineUplink) // A-1-1's uplink to T-1
	if err != nil {
		t.Fatal(err)
	}
	f.Sim.RunFor(2 * time.Second)
	a := f.Log.Analyze(failAt)
	if a.Convergence > 150*time.Millisecond {
		t.Errorf("4-tier convergence = %v, want <= dead timer + dissemination", a.Convergence)
	}
	// T-1 lost its zone-1 VIDs; cross-zone traffic to zone 1 must avoid
	// it and still flow.
	src, srcDev, _ := f.ServerStack(18, 1)
	dst, dstDev, _ := f.ServerStack(11, 1)
	var got int
	dst.ListenUDP(7, func(_, _ netaddr.IPv4, dg udp.Datagram) { got++ })
	for i := 0; i < 20; i++ {
		src.SendUDP(srcDev.IP, dstDev.IP, 9700+uint16(i), 7, []byte("avoid-T-1"))
	}
	f.Sim.RunFor(100 * time.Millisecond)
	if got != 20 {
		t.Errorf("delivered %d/20 after zone-spine uplink failure", got)
	}
}

func TestRunPortFailureFourTier(t *testing.T) {
	// The same failure through the shared measurement (random timer phase,
	// full settle window): the 4-tier cell of `closlab -experiment scale`.
	opts := fourTierOptions(ProtoMRMTP)
	r, err := RunPortFailure(opts, zoneSpineUplink)
	if err != nil {
		t.Fatal(err)
	}
	if r.Convergence <= 0 || r.Convergence > 150*time.Millisecond || r.BlastRadius != 1 {
		t.Errorf("4-tier zone-spine uplink: convergence %v, blast radius %d (%v); want one dead timer and the one zone spine that must avoid T-1", r.Convergence, r.BlastRadius, r.UpdatedNodes)
	}
	for _, fp := range []topology.FailurePoint{{Device: "A-9-9", Port: 1}, {Device: "A-1-1", Port: 0}, {Device: "A-1-1", Port: 99}} {
		if _, err := RunPortFailure(opts, fp); err == nil {
			t.Errorf("RunPortFailure(%+v) succeeded, want an error naming the interface", fp)
		}
	}
}

func TestMultiTierListing2Config(t *testing.T) {
	topo, err := topology.Build(fourTier())
	if err != nil {
		t.Fatal(err)
	}
	cfg := topo.MRMTPConfig()
	if len(cfg.Topology.Leaves) != 8 || len(cfg.Topology.Pods) != 4 {
		t.Errorf("config: %d leaves, %d pods", len(cfg.Topology.Leaves), len(cfg.Topology.Pods))
	}
	blob, err := cfg.Render()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := topology.ParseConfig(blob); err != nil {
		t.Errorf("multi-tier config does not round-trip: %v", err)
	}
}

// TestFourTierFailureCases: TC1–TC4 resolve on the four-tier fabric to the
// same column one name longer, and the failure and loss experiments run on
// it like on any other. MR-MTP's advantage where the far end must time the
// failure out — TC2, TC4 for the near sender — holds one tier up.
func TestFourTierFailureCases(t *testing.T) {
	topo, err := topology.Build(fourTier())
	if err != nil {
		t.Fatal(err)
	}
	for tc, want := range map[topology.FailureCase]topology.FailurePoint{
		topology.TC1: {Device: "L-1-1-1", Port: 1},
		topology.TC2: {Device: "S-1-1-1", Port: 3},
		topology.TC3: {Device: "S-1-1-1", Port: 1},
		topology.TC4: {Device: "A-1-1", Port: 3},
	} {
		if got, err := topo.FailurePoint(tc); err != nil || got != want {
			t.Errorf("FailurePoint(%v) = %+v, %v; want %+v", tc, got, err, want)
		}
	}
	lost := make(map[Protocol]map[topology.FailureCase]uint64)
	for _, proto := range []Protocol{ProtoMRMTP, ProtoBGP} {
		lost[proto] = make(map[topology.FailureCase]uint64)
		for _, tc := range topology.AllFailureCases() {
			if _, err := RunFailure(fourTierOptions(proto), tc); err != nil {
				t.Errorf("RunFailure(%v, %v): %v", proto, tc, err)
			}
			r, err := RunLoss(fourTierOptions(proto), tc, false)
			if err != nil {
				t.Fatalf("RunLoss(%v, %v): %v", proto, tc, err)
			}
			lost[proto][tc] = r.Lost
		}
	}
	for _, tc := range []topology.FailureCase{topology.TC2, topology.TC4} {
		if m, b := lost[ProtoMRMTP][tc], lost[ProtoBGP][tc]; m > b {
			t.Errorf("%v: MR-MTP lost %d packets, BGP/ECMP %d; want no more", tc, m, b)
		}
	}
	t.Logf("packets lost: %v", lost)
}

// TestRouterIDsUnique: the identifier is a BGP Router-ID and the address an
// MR-MTP router answers path-trace probes from, so no two routers of a
// fabric may share one — zone spines included, which sit in no pod and
// repeat their index in every zone.
func TestRouterIDsUnique(t *testing.T) {
	for _, spec := range []topology.Spec{
		topology.TwoPodSpec(), topology.FourPodSpec(),
		{Pods: 24, LeavesPerPod: 4, SpinesPerPod: 4, UplinksPerSpine: 2, ServersPerLeaf: 1},
		fourTier(),
		{Pods: 6, Zones: 3, LeavesPerPod: 3, SpinesPerPod: 2, UplinksPerSpine: 3, UplinksPerZone: 2, ServersPerLeaf: 2},
		// More top spines than a byte counts.
		{Pods: 1, LeavesPerPod: 1, SpinesPerPod: 16, UplinksPerSpine: 17},
	} {
		topo, err := topology.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[netaddr.IPv4]string)
		for _, d := range topo.Routers() {
			id := routerID(d)
			if prev, dup := seen[id]; dup {
				t.Errorf("%+v: %s and %s share router ID %s", spec, prev, d.Name, id)
			}
			seen[id] = d.Name
		}
	}
	// The paper's fabrics keep the IDs their golden pcaps carry.
	topo, _ := topology.Build(topology.TwoPodSpec())
	for name, want := range map[string]netaddr.IPv4{
		"L-2-1": netaddr.MakeIPv4(10, 1, 2, 1), "S-1-2": netaddr.MakeIPv4(10, 2, 1, 2), "T-4": netaddr.MakeIPv4(10, 3, 0, 4),
	} {
		if got := routerID(topo.Devices[name]); got != want {
			t.Errorf("routerID(%s) = %s, want %s", name, got, want)
		}
	}
}
