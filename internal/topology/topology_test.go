package topology

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/netaddr"
)

// fourTierSpec is the 2-zone, 2-pods-per-zone fabric of the §IX experiments.
func fourTierSpec() Spec {
	return Spec{Pods: 4, LeavesPerPod: 2, SpinesPerPod: 2, UplinksPerSpine: 2, ServersPerLeaf: 1,
		Zones: 2, UplinksPerZone: 2}
}

func build(t *testing.T, spec Spec) *Topology {
	t.Helper()
	topo, err := Build(spec)
	if err != nil {
		t.Fatalf("Build(%+v): %v", spec, err)
	}
	return topo
}

func TestFig3Topologies(t *testing.T) {
	two := build(t, TwoPodSpec())
	if got := len(two.Routers()); got != 12 {
		t.Errorf("2-PoD routers = %d, want 12 (paper Fig. 3)", got)
	}
	four := build(t, FourPodSpec())
	if got := len(four.Routers()); got != 20 {
		t.Errorf("4-PoD routers = %d, want 20 (paper §VII.B: '15 of the 20 routers')", got)
	}
	if got := len(four.Leaves); got != 8 {
		t.Errorf("4-PoD leaves = %d, want 8", got)
	}
	if got := len(four.Tops); got != 4 {
		t.Errorf("4-PoD top spines = %d, want 4", got)
	}
}

func TestToRVIDsMatchFig2(t *testing.T) {
	topo := build(t, TwoPodSpec())
	want := map[string]int{"L-1-1": 11, "L-1-2": 12, "L-2-1": 13, "L-2-2": 14}
	for name, vid := range want {
		leaf := topo.Devices[name]
		if leaf == nil || leaf.VID != vid {
			t.Errorf("%s VID = %v, want %d", name, leaf, vid)
		}
		wantSubnet := netaddr.MakePrefix(netaddr.MakeIPv4(192, 168, byte(vid), 0), 24)
		if leaf.ServerSubnet != wantSubnet {
			t.Errorf("%s subnet = %s, want %s", name, leaf.ServerSubnet, wantSubnet)
		}
	}
}

func TestPlaneWiringMatchesFig2(t *testing.T) {
	// Fig. 2: S1_1 (our S-1-1) assigns 11.1.1 to S2_1 (T-1) on uplink 1
	// and 11.1.2 to S2_3 (T-3) on uplink 2; S1_2 reaches T-2 and T-4.
	topo := build(t, TwoPodSpec())
	cases := []struct {
		spine  string
		uplink int
		top    string
	}{
		{"S-1-1", 1, "T-1"}, {"S-1-1", 2, "T-3"},
		{"S-1-2", 1, "T-2"}, {"S-1-2", 2, "T-4"},
		{"S-2-1", 1, "T-1"}, {"S-2-1", 2, "T-3"},
	}
	for _, c := range cases {
		got := topo.Devices[c.spine].Ports[c.uplink].Peer.Device.Name
		if got != c.top {
			t.Errorf("%s uplink %d reaches %s, want %s", c.spine, c.uplink, got, c.top)
		}
	}
}

func TestLeafUplinkPortNumbers(t *testing.T) {
	// MR-MTP offers VID <tor>.<port>; ToR port 1 must face S-p-1 so S1_1
	// acquires 11.1 as in Fig. 2.
	topo := build(t, TwoPodSpec())
	leaf := topo.Devices["L-1-1"]
	if leaf.Ports[1].Peer.Device.Name != "S-1-1" || leaf.Ports[2].Peer.Device.Name != "S-1-2" {
		t.Errorf("L-1-1 uplinks: port1->%s port2->%s, want S-1-1, S-1-2",
			leaf.Ports[1].Peer.Device.Name, leaf.Ports[2].Peer.Device.Name)
	}
	if leaf.ServerPort != 3 {
		t.Errorf("server port = %d, want 3", leaf.ServerPort)
	}
}

func TestASNPlanMatchesListing1(t *testing.T) {
	topo := build(t, FourPodSpec())
	if topo.Devices["T-1"].ASN != 64512 {
		t.Errorf("T-1 ASN = %d, want 64512", topo.Devices["T-1"].ASN)
	}
	// T-1's four neighbors are the plane-1 spines of pods 1..4 with ASNs
	// 64513..64516, exactly the remote-as lines of Listing 1.
	seen := make(map[uint32]bool)
	for _, p := range topo.Devices["T-1"].Ports[1:] {
		seen[p.Peer.Device.ASN] = true
	}
	for asn := uint32(64513); asn <= 64516; asn++ {
		if !seen[asn] {
			t.Errorf("T-1 neighbors lack ASN %d (Listing 1)", asn)
		}
	}
	// Leaf ASNs unique.
	leafASN := make(map[uint32]string)
	for _, l := range topo.Leaves {
		if prev := leafASN[l.ASN]; prev != "" {
			t.Errorf("leaf ASN %d shared by %s and %s", l.ASN, prev, l.Name)
		}
		leafASN[l.ASN] = l.Name
	}
}

func TestLinkAddressing(t *testing.T) {
	topo := build(t, TwoPodSpec())
	// Spot-check the .1-upper/.2-lower rule on a leaf uplink.
	leaf := topo.Devices["L-1-1"]
	up := leaf.Ports[1]
	if up.IP != up.Subnet.Host(2) || up.Peer.IP != up.Subnet.Host(1) {
		t.Errorf("leaf %s IP=%s peer=%s subnet=%s; want leaf .2, spine .1", leaf.Name, up.IP, up.Peer.IP, up.Subnet)
	}
	if !up.IsUplink() || up.Peer.IsUplink() {
		t.Error("IsUplink misclassifies leaf-spine link")
	}
}

func TestServersShareLeafSubnet(t *testing.T) {
	topo := build(t, TwoPodSpec())
	srv := topo.Devices["H-1-1-1"]
	leaf := topo.Devices["L-1-1"]
	if srv == nil {
		t.Fatal("no server H-1-1-1")
	}
	if !leaf.ServerSubnet.Contains(srv.IP) {
		t.Errorf("server IP %s outside rack subnet %s", srv.IP, leaf.ServerSubnet)
	}
	if srv.IP != netaddr.MakeIPv4(192, 168, 11, 1) {
		t.Errorf("server IP = %s, want 192.168.11.1 (paper §III.D example)", srv.IP)
	}
	if gw := LeafGatewayIP(leaf); gw != netaddr.MakeIPv4(192, 168, 11, 254) {
		t.Errorf("gateway = %s, want 192.168.11.254", gw)
	}
}

func TestVIDDerivation(t *testing.T) {
	// Paper §III.A: third byte of the rack subnet.
	if got := DeriveVID(netaddr.MakePrefix(netaddr.MakeIPv4(192, 168, 11, 0), 24)); got != 11 {
		t.Errorf("DeriveVID = %d, want 11", got)
	}
}

func TestFailurePoints(t *testing.T) {
	topo := build(t, TwoPodSpec())
	cases := map[FailureCase]FailurePoint{
		TC1: {"L-1-1", 1}, // leaf's port 1 faces S-1-1
		TC2: {"S-1-1", 3}, // spine downlinks start after its 2 uplinks
		TC3: {"S-1-1", 1}, // spine's uplink 1 faces T-1
		TC4: {"T-1", 1},   // top's port 1 faces pod 1
	}
	for tc, want := range cases {
		got, err := topo.FailurePoint(tc)
		if err != nil || got != want {
			t.Errorf("FailurePoint(%v) = %+v, %v; want %+v", tc, got, err, want)
		}
	}
	// The two ends of a TC pair must be the same physical link.
	p1, _ := topo.FailurePoint(TC1)
	p2, _ := topo.FailurePoint(TC2)
	a := topo.Devices[p1.Device].Ports[p1.Port]
	b := topo.Devices[p2.Device].Ports[p2.Port]
	if a.Peer != b {
		t.Error("TC1 and TC2 are not two ends of the same link")
	}
}

func TestSpecValidation(t *testing.T) {
	fourTier := func(edit func(*Spec)) Spec {
		s := fourTierSpec()
		edit(&s)
		return s
	}
	bad := []Spec{
		{},
		{Pods: 0, LeavesPerPod: 2, SpinesPerPod: 2, UplinksPerSpine: 2},
		{Pods: 2, LeavesPerPod: 0, SpinesPerPod: 2, UplinksPerSpine: 2},
		{Pods: 2, LeavesPerPod: 2, SpinesPerPod: 0, UplinksPerSpine: 2},
		{Pods: 2, LeavesPerPod: 2, SpinesPerPod: 2, UplinksPerSpine: 0},
		{Pods: 130, LeavesPerPod: 2, SpinesPerPod: 2, UplinksPerSpine: 2}, // VID overflow
		// The zone tier: at least two zones, dividing the pods, and both
		// of its fields or neither.
		{Pods: 4, LeavesPerPod: 2, SpinesPerPod: 2, UplinksPerSpine: 2, Zones: 1, UplinksPerZone: 2},
		{Pods: 4, LeavesPerPod: 2, SpinesPerPod: 2, UplinksPerSpine: 2, Zones: 3, UplinksPerZone: 2},
		{Pods: 4, LeavesPerPod: 2, SpinesPerPod: 2, UplinksPerSpine: 2, Zones: 2},
		{Pods: 4, LeavesPerPod: 2, SpinesPerPod: 2, UplinksPerSpine: 2, UplinksPerZone: 2},
		{Pods: 4, LeavesPerPod: 2, SpinesPerPod: 2, UplinksPerSpine: 2, Zones: 2, UplinksPerZone: -1},
		// The four-tier fabric with a single zone, and with no zone uplinks.
		fourTier(func(s *Spec) { s.Zones = 1 }),
		fourTier(func(s *Spec) { s.UplinksPerZone = 0 }),
	}
	for _, s := range bad {
		if _, err := Build(s); err == nil {
			t.Errorf("Build(%+v) succeeded, want error", s)
		}
	}
}

// TestSpecRejectsWideDevices: a VID names a port in one byte, so a spec in
// which any device would have more than 255 ports must fail in Validate,
// saying which device class and how many ports, rather than build a fabric
// whose child VIDs collide.
func TestSpecRejectsWideDevices(t *testing.T) {
	three := func(edit func(*Spec)) error {
		s := TwoPodSpec()
		edit(&s)
		return s.Validate()
	}
	four := func(edit func(*Spec)) error {
		s := fourTierSpec()
		edit(&s)
		return s.Validate()
	}
	for _, tc := range []struct {
		name string
		err  error
		want string // "" = accepted
	}{
		{"pod spine at the limit", three(func(s *Spec) { s.UplinksPerSpine = 253 }), ""},
		{"pod spine", three(func(s *Spec) { s.UplinksPerSpine = 300 }), "pod spine would have 302 ports"},
		{"leaf uplinks", three(func(s *Spec) { s.SpinesPerPod = 255 }), "leaf would have 256 ports"},
		{"leaf servers", three(func(s *Spec) { s.ServersPerLeaf = 254 }), "leaf would have 256 ports"},
		{"four-tier pod spine", four(func(s *Spec) { s.UplinksPerSpine = 300 }), "pod spine would have 302 ports"},
		{"four-tier zone spine", four(func(s *Spec) { s.UplinksPerZone = 254 }), "zone spine would have 256 ports"},
		{"four-tier leaf", four(func(s *Spec) { s.SpinesPerPod = 255 }), "leaf would have 256 ports"},
	} {
		switch {
		case tc.want == "" && tc.err != nil:
			t.Errorf("%s: rejected: %v", tc.name, tc.err)
		case tc.want != "" && (tc.err == nil || !strings.Contains(tc.err.Error(), tc.want)):
			t.Errorf("%s: Validate() = %v, want an error containing %q", tc.name, tc.err, tc.want)
		}
	}
}

func TestBuildPropertyAnySaneSpecVerifies(t *testing.T) {
	f := func(pods, leaves, spines, uplinks, zones, zoneUplinks uint8) bool {
		spec := Spec{
			Pods:            int(pods%6) + 1,
			LeavesPerPod:    int(leaves%4) + 1,
			SpinesPerPod:    int(spines%3) + 1,
			UplinksPerSpine: int(uplinks%3) + 1,
			ServersPerLeaf:  1,
		}
		// Half the draws add a zone tier, with the drawn pods in each zone.
		if z := int(zones % 6); z >= 2 {
			spec.Pods *= z
			spec.Zones, spec.UplinksPerZone = z, int(zoneUplinks%3)+1
		}
		topo, err := Build(spec)
		if err != nil {
			return false
		}
		return topo.Verify() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestVerifyCatchesMiswiring: Verify holds a four-tier fabric to the plane
// rule, the zone boundaries and the addressing plan. The first defect keeps
// the wiring symmetric and every link one level apart, so only the rule
// itself can see it.
func TestVerifyCatchesMiswiring(t *testing.T) {
	swapPeers := func(a, b *Port) {
		a.Peer, b.Peer = b.Peer, a.Peer
		a.Peer.Peer, b.Peer.Peer = a, b
	}
	for _, tc := range []struct {
		name   string
		damage func(*Topology)
		want   string
	}{
		{"a pod spine's two uplinks swapped", func(topo *Topology) {
			sp := topo.Devices["S-1-1-1"]
			swapPeers(sp.Ports[1], sp.Ports[2])
		}, "S-1-1-1 uplink 1 reaches A-1-3:eth3, want A-1-1:eth3"},
		{"a pod spine uplink re-homed into the other zone", func(topo *Topology) {
			swapPeers(topo.Devices["S-1-1-1"].Ports[1], topo.Devices["S-2-1-1"].Ports[1])
		}, "S-1-1-1 uplink 1 reaches A-2-1:eth3, want A-1-1:eth3"},
		{"a link subnet used twice", func(topo *Topology) {
			a, b := topo.Devices["S-1-1-1"].Ports[1], topo.Devices["S-1-1-1"].Ports[2]
			b.Subnet, b.Peer.Subnet, b.IP, b.Peer.IP = a.Subnet, a.Subnet, a.IP, a.Peer.IP
		}, "subnet 172.16.8.0/24 reused by S-1-1-1:eth1 and S-1-1-1:eth2"},
	} {
		topo := build(t, fourTierSpec())
		tc.damage(topo)
		if err := topo.Verify(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Verify() = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

func TestMRMTPConfigMatchesListing2Shape(t *testing.T) {
	topo := build(t, FourPodSpec())
	cfg := topo.MRMTPConfig()
	if len(cfg.Topology.Leaves) != 8 {
		t.Errorf("config leaves = %d, want 8", len(cfg.Topology.Leaves))
	}
	if len(cfg.Topology.TopSpines) != 4 {
		t.Errorf("config top spines = %d, want 4", len(cfg.Topology.TopSpines))
	}
	if len(cfg.Topology.Pods) != 4 {
		t.Errorf("config pods = %d, want 4", len(cfg.Topology.Pods))
	}
	if port := cfg.Topology.LeavesNetworkPortDict["L-1-1"]; port != "eth3" {
		t.Errorf("L-1-1 rack port = %s, want eth3", port)
	}
	blob, err := cfg.Render()
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseConfig(blob)
	if err != nil {
		t.Fatalf("ParseConfig: %v", err)
	}
	if len(parsed.Topology.Leaves) != 8 {
		t.Error("round-trip lost leaves")
	}
}

func TestParseConfigErrors(t *testing.T) {
	if _, err := ParseConfig([]byte("{")); err == nil {
		t.Error("malformed JSON accepted")
	}
	if _, err := ParseConfig([]byte(`{"topology":{}}`)); err == nil {
		t.Error("empty topology accepted")
	}
	if _, err := ParseConfig([]byte(`{"topology":{"leaves":["L-1-1"],"leavesNetworkPortDict":{}}}`)); err == nil {
		t.Error("missing port dict entry accepted")
	}
}

func TestBGPConfigMatchesListing1Shape(t *testing.T) {
	topo := build(t, FourPodSpec())
	cfg, err := topo.BGPConfig("T-1", true)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"frr defaults datacenter",
		"router bgp 64512",
		"timers bgp 1 3",
		"remote-as 64513",
		"remote-as 64516",
		"transmit-interval 100",
		"profile lowerIntervals",
	} {
		if !strings.Contains(cfg, want) {
			t.Errorf("T-1 config missing %q:\n%s", want, cfg)
		}
	}
	noBFD, err := topo.BGPConfig("T-1", false)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(noBFD, "bfd") {
		t.Error("BFD lines present in non-BFD config")
	}
	if _, err := topo.BGPConfig("H-1-1-1", false); err == nil {
		t.Error("server accepted as BGP router")
	}
	if _, err := topo.BGPConfig("nope", false); err == nil {
		t.Error("unknown device accepted")
	}
}

func TestLeafConfigAdvertisesSubnet(t *testing.T) {
	topo := build(t, TwoPodSpec())
	cfg, err := topo.BGPConfig("L-1-1", false)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(cfg, "network 192.168.11.0/24") {
		t.Errorf("leaf config does not originate its rack subnet:\n%s", cfg)
	}
}

func TestMeasureConfigs(t *testing.T) {
	topo := build(t, FourPodSpec())
	cs, err := topo.MeasureConfigs(true)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Routers != 20 {
		t.Errorf("routers = %d, want 20", cs.Routers)
	}
	if cs.BGPBytes <= cs.MRMTPBytes {
		t.Errorf("BGP config (%d B) should exceed the single MR-MTP JSON (%d B)", cs.BGPBytes, cs.MRMTPBytes)
	}
}

func TestLeafByVID(t *testing.T) {
	topo := build(t, TwoPodSpec())
	if l := topo.LeafByVID(14); l == nil || l.Name != "L-2-2" {
		t.Errorf("LeafByVID(14) = %v, want L-2-2", l)
	}
	if topo.LeafByVID(99) != nil {
		t.Error("LeafByVID(99) should be nil")
	}
}

func TestScaleOutFabric(t *testing.T) {
	// The paper's future work scales PoDs and tiers; make sure a larger
	// fabric builds and verifies.
	spec := Spec{Pods: 8, LeavesPerPod: 4, SpinesPerPod: 4, UplinksPerSpine: 2, ServersPerLeaf: 2}
	topo := build(t, spec)
	if got, want := len(topo.Routers()), 8*4+8*4+8; got != want {
		t.Errorf("routers = %d, want %d", got, want)
	}
}
