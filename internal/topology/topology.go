// Package topology builds the folded-Clos fabrics of the paper's Fig. 2 and
// Fig. 3 and generalizes them to any number of PoDs and, grouping PoDs into
// zones, to one more spine tier (the paper's §IX future work scales the same
// construction both ways).
//
// A fabric has three or four router tiers plus servers (z- appears in the
// names of four-tier fabrics only):
//
//	top:     top spines   T-k
//	tier 3:  zone spines  A-z-g          (four-tier fabrics only)
//	tier 2:  pod spines   S-[z-]p-s
//	tier 1:  leaves/ToRs  L-[z-]p-t
//	tier 0:  servers      H-[z-]p-t-i
//
// One rule wires every tier (Fig. 2's "plane" wiring). A block is a leaf, a
// pod, a zone or the whole fabric; its top tier has width = the product of
// the uplink counts of the tiers below it (1 for a leaf). Uplink port v of
// the block's switch i connects switch i+(v-1)·width of the enclosing block,
// on that switch's downlink port for this child — which gives S1_1 →
// {S2_1, S2_3} in Fig. 2. Uplink ports are numbered first on every device
// because MR-MTP derives child VIDs from parent port numbers, and VIDs just
// grow one element per tier (11 → 11.1 → 11.1.1 → 11.1.1.2): "the scheme
// can easily scale to any number of spine tiers" (§III.B).
//
// The package is pure data — no simulator dependency — so the same
// description drives the MR-MTP fabric, the BGP fabric, configuration
// rendering (Listings 1 and 2), and verification.
package topology

import (
	"fmt"

	"repro/internal/netaddr"
)

// Tier identifies a device's layer in the folded-Clos fabric. The paper
// counts servers as tier 0 and ToRs as tier 1.
type Tier int

// Fabric tiers.
const (
	TierServer Tier = iota
	TierLeaf
	TierSpine
	TierTop
)

func (t Tier) String() string {
	switch t {
	case TierServer:
		return "server"
	case TierLeaf:
		return "leaf"
	case TierSpine:
		return "spine"
	case TierTop:
		return "top-spine"
	}
	return fmt.Sprintf("Tier(%d)", int(t))
}

// AS numbering per RFC 7938 as captured in the paper's Listing 1: the top
// spines share one ASN, the spines of pod p share BaseASNTop+p, and every
// leaf gets a unique ASN. Zone spines extend the plan: one ASN per zone.
const (
	BaseASNTop  uint32 = 64512
	BaseASNLeaf uint32 = 64601
	baseASNZone uint32 = 64700
)

// Spec describes a fabric to build. Zones and UplinksPerZone are zero in the
// paper's three-tier fabrics; set together they group the pods into zones
// under a tier of zone spines (§IX, "Scaling the DCN to multiple tiers").
type Spec struct {
	Pods            int // number of PoDs in the whole fabric
	LeavesPerPod    int // ToRs per pod
	SpinesPerPod    int // tier-2 spines per pod
	UplinksPerSpine int // uplinks from each pod spine
	ServersPerLeaf  int // hosts per rack (1 on FABRIC, per the paper)
	Zones           int // groups of Pods/Zones pods, each under its own zone spines
	UplinksPerZone  int // uplinks from each zone spine
}

// TwoPodSpec is the paper's 2-PoD test topology (12 routers).
func TwoPodSpec() Spec {
	return Spec{Pods: 2, LeavesPerPod: 2, SpinesPerPod: 2, UplinksPerSpine: 2, ServersPerLeaf: 1}
}

// FourPodSpec is the paper's 4-PoD test topology (20 routers).
func FourPodSpec() Spec {
	return Spec{Pods: 4, LeavesPerPod: 2, SpinesPerPod: 2, UplinksPerSpine: 2, ServersPerLeaf: 1}
}

// level is one router tier as the builder and the verifier see it. A block
// of the tier (a leaf, a pod, a zone, the fabric) has down child blocks, so
// each of its switches has up uplink ports followed by down downlink ports.
type level struct {
	tier   Tier
	letter string // device-name prefix
	class  string // what an error message calls a switch of this tier
	up     int
	down   int
}

// levels lists the router tiers bottom-up. It is all that Validate's port
// check, Build and Verify know about a fabric's shape.
func (s Spec) levels() []level {
	leaf := level{TierLeaf, "L", "leaf", s.SpinesPerPod, s.ServersPerLeaf}
	spine := level{TierSpine, "S", "pod spine", s.UplinksPerSpine, s.LeavesPerPod}
	if s.Zones == 0 {
		return []level{leaf, spine, {TierTop, "T", "top spine", 0, s.Pods}}
	}
	return []level{leaf, spine,
		{TierSpine, "A", "zone spine", s.UplinksPerZone, s.Pods / s.Zones},
		{TierTop, "T", "top spine", 0, s.Zones}}
}

// Validate rejects impossible specs.
func (s Spec) Validate() error {
	switch {
	case s.Pods < 1:
		return fmt.Errorf("topology: need at least one pod, got %d", s.Pods)
	case s.LeavesPerPod < 1:
		return fmt.Errorf("topology: need at least one leaf per pod, got %d", s.LeavesPerPod)
	case s.SpinesPerPod < 1:
		return fmt.Errorf("topology: need at least one spine per pod, got %d", s.SpinesPerPod)
	case s.UplinksPerSpine < 1:
		return fmt.Errorf("topology: need at least one uplink per spine, got %d", s.UplinksPerSpine)
	case s.ServersPerLeaf < 0:
		return fmt.Errorf("topology: negative servers per leaf")
	case (s.Zones == 0) != (s.UplinksPerZone == 0):
		return fmt.Errorf("topology: Zones (%d) and UplinksPerZone (%d) must be set together", s.Zones, s.UplinksPerZone)
	case s.Zones != 0 && (s.Zones < 2 || s.Pods%s.Zones != 0):
		return fmt.Errorf("topology: need at least two zones dividing the %d pods evenly, got %d", s.Pods, s.Zones)
	case s.UplinksPerZone < 0:
		return fmt.Errorf("topology: negative uplinks per zone spine")
	case s.Pods*s.LeavesPerPod > 245:
		// ToR VIDs are derived from the third byte of 192.168.x.0/24
		// (paper §III.A) starting at 11, so 245 leaves fit.
		return fmt.Errorf("topology: %d leaves exceed the single-byte VID space", s.Pods*s.LeavesPerPod)
	}
	for _, l := range s.levels() {
		if l.up+l.down > maxPorts {
			return fmt.Errorf("topology: a %s would have %d ports, more than the %d a VID's port byte can name",
				l.class, l.up+l.down, maxPorts)
		}
	}
	return nil
}

// maxPorts is the widest device a fabric may hold: a child VID appends the
// port its JOIN arrived on as one byte (paper §III.B), so on a wider device
// two ports would hand out the same VID.
const maxPorts = 255

// Device is one node in the fabric.
type Device struct {
	Name string
	Tier Tier
	// Level is the numeric tier: 0 servers, 1 ToRs, counting up to the
	// fabric's top. It equals int(Tier) in three-tier fabrics; in four-tier
	// ones zone spines are TierSpine at level 3 and the top is level 4.
	Level int
	Pod   int // 1-based, counted across zones; 0 for zone and top spines
	Index int // 1-based within (tier, pod or zone)
	ASN   uint32
	// Ordinal is the device's dense rank in creation order, 0-based: the
	// index of per-device tables that must not hash the name.
	Ordinal int

	// Leaf-only fields.
	VID          int            // ToR VID derived from the server subnet (paper §III.A)
	ServerSubnet netaddr.Prefix // 192.168.<VID>.0/24
	ServerPort   int            // first port facing the rack (the leavesNetworkPortDict entry)

	// Server-only field: the host's address inside its rack subnet.
	IP netaddr.IPv4

	Ports []*Port // 1-based; Ports[0] is nil
}

// Port is one interface of a device, with the BGP point-to-point addressing
// that the paper's Listings 1 and 3 show (the MR-MTP fabric ignores the IPs
// on router-to-router links — spines need no addresses at all).
type Port struct {
	Device *Device
	Index  int
	Peer   *Port
	IP     netaddr.IPv4   // this end's address on the link subnet
	Subnet netaddr.Prefix // /24 per link, matching Listing 3
}

// Name renders the paper-style interface name ("S-1-1:eth3").
func (p *Port) Name() string { return fmt.Sprintf("%s:eth%d", p.Device.Name, p.Index) }

// IsUplink reports whether the port faces a higher tier.
func (p *Port) IsUplink() bool { return p.Peer != nil && p.Peer.Device.Level > p.Device.Level }

// Link is an undirected edge (reported once, A at the lower tier).
type Link struct {
	A, B *Port
}

// Topology is a fully wired fabric.
type Topology struct {
	Spec    Spec
	Devices map[string]*Device
	Links   []Link

	// Ordered device lists for deterministic iteration. Aggs (zone
	// spines) exist only in four-tier fabrics.
	Leaves  []*Device
	Spines  []*Device
	Aggs    []*Device
	Tops    []*Device
	Servers []*Device
}

// Routers returns every non-server device in deterministic order.
func (t *Topology) Routers() []*Device {
	out := make([]*Device, 0, len(t.Leaves)+len(t.Spines)+len(t.Aggs)+len(t.Tops))
	out = append(out, t.Leaves...)
	out = append(out, t.Spines...)
	out = append(out, t.Aggs...)
	out = append(out, t.Tops...)
	return out
}

// LeafByVID returns the ToR with the given VID, or nil.
func (t *Topology) LeafByVID(vid int) *Device {
	for _, l := range t.Leaves {
		if l.VID == vid {
			return l
		}
	}
	return nil
}

// Build constructs and verifies a fabric from the spec.
func Build(spec Spec) (*Topology, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	t := &Topology{Spec: spec, Devices: make(map[string]*Device)}
	levels := spec.levels()
	tiers := make([][]*Device, len(levels))
	pods, leaves, wired := 0, 0, 0

	add := func(d *Device, level int) *Device {
		d.Ports = []*Port{nil}
		d.Level = level
		d.Ordinal = len(t.Devices)
		t.Devices[d.Name] = d
		return d
	}
	newPort := func(d *Device) *Port {
		p := &Port{Device: d, Index: len(d.Ports)}
		d.Ports = append(d.Ports, p)
		return p
	}
	// wire connects lower-tier a to higher-tier b, numbering the link
	// subnet 172.16.<n>.0/24 with the *higher* tier at .1 (Listing 1/3).
	wire := func(a, b *Port) {
		a.Peer, b.Peer = b, a
		subnet := netaddr.MakePrefix(netaddr.MakeIPv4(172, byte(16+wired/256), byte(wired%256), 0), 24)
		wired++
		b.IP = subnet.Host(1)
		a.IP = subnet.Host(2)
		a.Subnet, b.Subnet = subnet, subnet
		t.Links = append(t.Links, Link{A: a, B: b})
	}
	// rack hangs the servers off a leaf's downlink ports. They share the
	// leaf's subnet; the leaf itself answers on .254 as the rack gateway.
	rack := func(leaf *Device, path string) {
		for i := 1; i <= spec.ServersPerLeaf; i++ {
			srv := add(&Device{
				Name: fmt.Sprintf("H%s-%d", path, i), Tier: TierServer,
				Pod: leaf.Pod, Index: i,
				IP: leaf.ServerSubnet.Host(uint32(i)),
			}, 0)
			sp, lp := newPort(srv), leaf.Ports[leaf.ServerPort+i-1]
			sp.Peer, lp.Peer = lp, sp
			sp.Subnet, lp.Subnet = leaf.ServerSubnet, leaf.ServerSubnet
			sp.IP = srv.IP
			lp.IP = LeafGatewayIP(leaf)
			t.Links = append(t.Links, Link{A: sp, B: lp})
			t.Servers = append(t.Servers, srv)
		}
	}

	// block builds child number child of the block whose top-tier switches
	// are parents: first its own top tier — uplinks wired by the plane rule,
	// downlink ports reserved — then its children, depth first. path is the
	// "-z-p" suffix that names the block.
	var block func(lv int, path string, child int, parents []*Device)
	block = func(lv int, path string, child int, parents []*Device) {
		l := levels[lv]
		width := 1
		for _, below := range levels[:lv] {
			width *= below.up
		}
		if lv == 1 {
			pods++
		}
		switches := make([]*Device, width)
		for i := range switches {
			d := &Device{Name: fmt.Sprintf("%s%s-%d", l.letter, path, i+1), Tier: l.tier, Index: i + 1}
			switch {
			case lv == 0: // a leaf is its own block, named by the path alone
				leaves++
				d.Name, d.Index, d.Pod = l.letter+path, child, pods
				d.ASN = BaseASNLeaf + uint32(leaves-1)
				d.VID = 10 + leaves
				d.ServerSubnet = netaddr.MakePrefix(netaddr.MakeIPv4(192, 168, byte(d.VID), 0), 24)
				d.ServerPort = l.up + 1
			case lv == 1:
				d.Pod, d.ASN = pods, BaseASNTop+uint32(pods)
			case l.tier == TierTop:
				d.ASN = BaseASNTop
			default:
				d.ASN = baseASNZone + uint32(child)
			}
			add(d, lv+1)
			for v := 1; v <= l.up; v++ {
				wire(newPort(d), parents[i+(v-1)*width].Ports[levels[lv+1].up+child])
			}
			for c := 1; c <= l.down; c++ {
				newPort(d) // wired when child c is built
			}
			switches[i] = d
		}
		tiers[lv] = append(tiers[lv], switches...)
		if lv == 0 {
			rack(switches[0], path)
			return
		}
		for c := 1; c <= l.down; c++ {
			block(lv-1, fmt.Sprintf("%s-%d", path, c), c, switches)
		}
	}
	top := len(levels) - 1
	block(top, "", 0, nil)

	t.Leaves, t.Spines, t.Tops = tiers[0], tiers[1], tiers[top]
	for _, tier := range tiers[2:top] {
		t.Aggs = append(t.Aggs, tier...)
	}
	if err := t.Verify(); err != nil {
		return nil, err
	}
	return t, nil
}

// LeafGatewayIP returns the address a ToR answers on inside its rack subnet.
func LeafGatewayIP(leaf *Device) netaddr.IPv4 { return leaf.ServerSubnet.Host(254) }

// DeriveVID implements the paper's §III.A VID derivation: the third byte of
// the subnet IP the ToR shares with its servers.
func DeriveVID(subnet netaddr.Prefix) int { return int(subnet.IP[2]) }
