package topology

import (
	"fmt"
	"strings"

	"repro/internal/netaddr"
)

// This file implements the paper's §IX scaling direction ("Scaling the DCN
// to multiple tiers"): a four-tier folded-Clos in which pods are grouped
// into zones. The same plane-preserving wiring recursion used between
// tiers 1-3 extends upward:
//
//	tier 4: super spines  T-k            (one per zone plane × fanout)
//	tier 3: zone spines   A-z-g          (g = 1..SpinesPerPod×UplinksPerSpine)
//	tier 2: pod spines    S-z-p-s
//	tier 1: leaves        L-z-p-l
//	tier 0: servers       H-z-p-l-i
//
// MR-MTP needs nothing new: VIDs simply grow one element deeper
// (11 → 11.1 → 11.1.1 → 11.1.1.2) and devices are configured with their
// tier number alone, exactly as the paper claims ("the scheme can easily
// scale to any number of spine tiers", §III.B).

// MultiTierSpec describes a four-tier fabric.
type MultiTierSpec struct {
	Zones           int
	PodsPerZone     int
	LeavesPerPod    int
	SpinesPerPod    int
	UplinksPerSpine int // tier-2 -> tier-3 fanout
	UplinksPerZone  int // tier-3 -> tier-4 fanout
	ServersPerLeaf  int
}

// ZoneSpines returns the tier-3 device count per zone.
func (s MultiTierSpec) ZoneSpines() int { return s.SpinesPerPod * s.UplinksPerSpine }

// SuperSpines returns the tier-4 device count.
func (s MultiTierSpec) SuperSpines() int { return s.ZoneSpines() * s.UplinksPerZone }

// Validate rejects impossible specs.
func (s MultiTierSpec) Validate() error {
	switch {
	case s.Zones < 2:
		return fmt.Errorf("topology: a multi-tier fabric needs >= 2 zones, got %d", s.Zones)
	case s.PodsPerZone < 1, s.LeavesPerPod < 1, s.SpinesPerPod < 1,
		s.UplinksPerSpine < 1, s.UplinksPerZone < 1:
		return fmt.Errorf("topology: multi-tier spec has a non-positive dimension: %+v", s)
	case s.ServersPerLeaf < 0:
		return fmt.Errorf("topology: negative servers per leaf")
	case s.Zones*s.PodsPerZone*s.LeavesPerPod > 245:
		return fmt.Errorf("topology: %d leaves exceed the single-byte VID space",
			s.Zones*s.PodsPerZone*s.LeavesPerPod)
	case s.UplinksPerZone+s.PodsPerZone > maxPorts:
		return tooWide("zone spine", s.UplinksPerZone+s.PodsPerZone)
	case s.UplinksPerSpine+s.LeavesPerPod > maxPorts:
		return tooWide("pod spine", s.UplinksPerSpine+s.LeavesPerPod)
	case s.SpinesPerPod+s.ServersPerLeaf > maxPorts:
		return tooWide("leaf", s.SpinesPerPod+s.ServersPerLeaf)
	}
	return nil
}

// ASN plan extension for tier 3: zone spines share one ASN per zone.
const baseASNZone uint32 = 64700

// BuildMultiTier constructs and verifies a four-tier fabric.
func BuildMultiTier(spec MultiTierSpec) (*Topology, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	t := &Topology{
		Spec: Spec{
			Pods:            spec.Zones * spec.PodsPerZone,
			LeavesPerPod:    spec.LeavesPerPod,
			SpinesPerPod:    spec.SpinesPerPod,
			UplinksPerSpine: spec.UplinksPerSpine,
			ServersPerLeaf:  spec.ServersPerLeaf,
		},
		Devices: make(map[string]*Device),
	}
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
	wire := func(a, b *Port) {
		a.Peer, b.Peer = b, a
		subnet := netaddr.MakePrefix(netaddr.MakeIPv4(172, byte(16+t.linkCount/256), byte(t.linkCount%256), 0), 24)
		t.linkCount++
		b.IP = subnet.Host(1)
		a.IP = subnet.Host(2)
		a.Subnet, b.Subnet = subnet, subnet
		t.Links = append(t.Links, Link{A: a, B: b})
	}

	// Tier 4: super spines, one downlink per zone.
	for k := 1; k <= spec.SuperSpines(); k++ {
		top := add(&Device{Name: fmt.Sprintf("T-%d", k), Tier: TierTop, Index: k, ASN: BaseASNTop}, 4)
		for z := 1; z <= spec.Zones; z++ {
			newPort(top)
		}
		t.Tops = append(t.Tops, top)
	}

	leafCount := 0
	globalPod := 0
	for z := 1; z <= spec.Zones; z++ {
		// Tier 3: zone spines. Uplink v of zone spine g reaches super
		// spine g+(v-1)·ZoneSpines; then one downlink per pod in the zone.
		for g := 1; g <= spec.ZoneSpines(); g++ {
			agg := add(&Device{
				Name: fmt.Sprintf("A-%d-%d", z, g), Tier: TierSpine,
				Pod: 0, Index: g, ASN: baseASNZone + uint32(z),
			}, 3)
			for v := 1; v <= spec.UplinksPerZone; v++ {
				top := t.Tops[g+(v-1)*spec.ZoneSpines()-1]
				wire(newPort(agg), top.Ports[z])
			}
			for p := 1; p <= spec.PodsPerZone; p++ {
				newPort(agg) // downlink to pod p, wired below
			}
			t.Aggs = append(t.Aggs, agg)
		}
		for p := 1; p <= spec.PodsPerZone; p++ {
			globalPod++
			// Tier 2: pod spines. Uplink u of spine s reaches zone spine
			// s+(u-1)·SpinesPerPod (plane rule), then leaf downlinks.
			for s := 1; s <= spec.SpinesPerPod; s++ {
				sp := add(&Device{
					Name: fmt.Sprintf("S-%d-%d-%d", z, p, s), Tier: TierSpine,
					Pod: globalPod, Index: s, ASN: BaseASNTop + uint32(globalPod),
				}, 2)
				for u := 1; u <= spec.UplinksPerSpine; u++ {
					agg := t.Aggs[(z-1)*spec.ZoneSpines()+s+(u-1)*spec.SpinesPerPod-1]
					wire(newPort(sp), agg.Ports[spec.UplinksPerZone+p])
				}
				for i := 0; i < spec.LeavesPerPod; i++ {
					newPort(sp)
				}
				t.Spines = append(t.Spines, sp)
			}
			for lf := 1; lf <= spec.LeavesPerPod; lf++ {
				leafCount++
				vid := 10 + leafCount
				leaf := add(&Device{
					Name: fmt.Sprintf("L-%d-%d-%d", z, p, lf), Tier: TierLeaf,
					Pod: globalPod, Index: lf,
					ASN:          BaseASNLeaf + uint32(leafCount-1),
					VID:          vid,
					ServerSubnet: netaddr.MakePrefix(netaddr.MakeIPv4(192, 168, byte(vid), 0), 24),
				}, 1)
				for s := 1; s <= spec.SpinesPerPod; s++ {
					sp := t.Devices[fmt.Sprintf("S-%d-%d-%d", z, p, s)]
					wire(newPort(leaf), sp.Ports[spec.UplinksPerSpine+lf])
				}
				leaf.ServerPort = spec.SpinesPerPod + 1
				t.Leaves = append(t.Leaves, leaf)
				for i := 1; i <= spec.ServersPerLeaf; i++ {
					srv := add(&Device{
						Name: fmt.Sprintf("H-%d-%d-%d-%d", z, p, lf, i), Tier: TierServer,
						Pod: globalPod, Index: i,
						IP: leaf.ServerSubnet.Host(uint32(i)),
					}, 0)
					sp := newPort(srv)
					lp := newPort(leaf)
					sp.Peer, lp.Peer = lp, sp
					sp.Subnet, lp.Subnet = leaf.ServerSubnet, leaf.ServerSubnet
					sp.IP = srv.IP
					lp.IP = LeafGatewayIP(leaf)
					t.Links = append(t.Links, Link{A: sp, B: lp})
					t.Servers = append(t.Servers, srv)
				}
			}
		}
	}
	if err := t.verifyMultiTier(spec); err != nil {
		return nil, err
	}
	return t, nil
}

// verifyMultiTier checks the four-tier structural invariants.
func (t *Topology) verifyMultiTier(spec MultiTierSpec) error {
	if got, want := len(t.Tops), spec.SuperSpines(); got != want {
		return fmt.Errorf("topology: %d super spines, want %d", got, want)
	}
	if got, want := len(t.Aggs), spec.Zones*spec.ZoneSpines(); got != want {
		return fmt.Errorf("topology: %d zone spines, want %d", got, want)
	}
	if got, want := len(t.Spines), spec.Zones*spec.PodsPerZone*spec.SpinesPerPod; got != want {
		return fmt.Errorf("topology: %d pod spines, want %d", got, want)
	}
	if got, want := len(t.Leaves), spec.Zones*spec.PodsPerZone*spec.LeavesPerPod; got != want {
		return fmt.Errorf("topology: %d leaves, want %d", got, want)
	}
	for _, d := range t.sortedDevices() {
		for _, p := range d.Ports[1:] {
			switch {
			case p.Peer == nil:
				return fmt.Errorf("topology: unwired port %s", p.Name())
			case p.Peer.Peer != p:
				return fmt.Errorf("topology: asymmetric wiring at %s", p.Name())
			case p.Peer.Device == d:
				return fmt.Errorf("topology: self-loop at %s", p.Name())
			}
		}
	}
	// Levels differ by exactly one across every router-router link.
	for _, l := range t.Links {
		if l.A.Device.Tier == TierServer {
			continue
		}
		if diff := l.B.Device.Level - l.A.Device.Level; diff != 1 {
			return fmt.Errorf("topology: link %s-%s spans levels %d-%d",
				l.A.Name(), l.B.Name(), l.A.Device.Level, l.B.Device.Level)
		}
	}
	// Every super spine reaches exactly one zone spine per zone.
	for _, top := range t.Tops {
		zonesSeen := make(map[string]bool)
		for _, p := range top.Ports[1:] {
			z := strings.SplitN(p.Peer.Device.Name, "-", 3)[1]
			if zonesSeen[z] {
				return fmt.Errorf("topology: %s reaches zone %s twice", top.Name, z)
			}
			zonesSeen[z] = true
		}
	}
	return nil
}
