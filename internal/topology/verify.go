package topology

import (
	"fmt"
)

// Verify checks the structural invariants of a folded-Clos fabric. It is
// the in-process equivalent of the paper's topology-verification scripts
// (item 7 of their automation suite): every experiment starts from a fabric
// that has been proven well-formed.
func (t *Topology) Verify() error {
	levels := t.Spec.levels()
	top := len(levels) - 1
	tiers := [][]*Device{t.Leaves, t.Spines, t.Aggs, t.Tops}
	if top == 2 {
		tiers = [][]*Device{t.Leaves, t.Spines, t.Tops}
	}
	// Tier k is blocks[k] blocks of width[k] switches each.
	width, blocks := make([]int, top+1), make([]int, top+1)
	width[0], blocks[top] = 1, 1
	for k := 1; k <= top; k++ {
		width[k] = width[k-1] * levels[k-1].up
		blocks[top-k] = blocks[top-k+1] * levels[top-k+1].down
	}
	devices := len(t.Servers)
	for k, tier := range tiers {
		l := levels[k]
		if got, want := len(tier), blocks[k]*width[k]; got != want {
			return fmt.Errorf("topology: %d devices of class %s, want %d", got, l.class, want)
		}
		for _, d := range tier {
			if got, want := len(d.Ports)-1, l.up+l.down; got != want {
				return fmt.Errorf("topology: %s has %d ports, want %d", d.Name, got, want)
			}
		}
		devices += len(tier)
	}
	if got, want := len(t.Servers), len(t.Leaves)*levels[0].down; got != want {
		return fmt.Errorf("topology: %d servers, want %d", got, want)
	}
	if listed := len(t.Routers()) + len(t.Servers); listed != devices || listed != len(t.Devices) {
		return fmt.Errorf("topology: %d devices by name, %d in the device lists, %d in the tiers the spec has",
			len(t.Devices), listed, devices)
	}

	// Every port wired exactly once, both directions agreeing.
	for _, d := range append(t.Routers(), t.Servers...) {
		for _, p := range d.Ports[1:] {
			if p.Peer == nil {
				return fmt.Errorf("topology: unwired port %s", p.Name())
			}
			if p.Peer.Peer != p {
				return fmt.Errorf("topology: asymmetric wiring at %s", p.Name())
			}
			if p.Peer.Device == d {
				return fmt.Errorf("topology: self-loop at %s", p.Name())
			}
		}
	}

	// The plane rule, at every tier: uplink v of switch i of a block reaches
	// switch i+(v-1)·width of the enclosing block on that switch's downlink
	// port for this child (MR-MTP's VID suffixes are these port numbers).
	// Uplinks and downlinks are equal in number and wiring is symmetric, so
	// this places every downlink too. ASNs follow the block numbering.
	for k, tier := range tiers {
		l := levels[k]
		for j, d := range tier {
			b, i := j/width[k], j%width[k]
			for v := 1; v <= l.up; v++ {
				parent, child := b/levels[k+1].down, b%levels[k+1].down
				want := tiers[k+1][parent*width[k+1]+i+(v-1)*width[k]].Ports[levels[k+1].up+child+1]
				if got := d.Ports[v].Peer; got != want {
					return fmt.Errorf("topology: %s uplink %d reaches %s, want %s", d.Name, v, got.Name(), want.Name())
				}
			}
			if k == 0 {
				continue // leaf ASNs are unique rather than planned: below
			}
			want := BaseASNTop // Listing 1: top spines share one, each pod's spines another
			switch {
			case k == 1:
				want += uint32(b + 1)
			case k < top:
				want = baseASNZone + uint32(b+1)
			}
			if d.ASN != want {
				return fmt.Errorf("topology: %s ASN %d, want %d", d.Name, d.ASN, want)
			}
		}
	}

	// Addressing: router-to-router link subnets unique; higher tier is .1.
	subnets := make(map[string]string)
	for _, l := range t.Links {
		if l.A.Device.Tier == TierServer {
			continue
		}
		key := l.A.Subnet.String()
		if prev, dup := subnets[key]; dup {
			return fmt.Errorf("topology: subnet %s reused by %s and %s", key, prev, l.A.Name())
		}
		subnets[key] = l.A.Name()
		if l.B.IP != l.A.Subnet.Host(1) || l.A.IP != l.A.Subnet.Host(2) {
			return fmt.Errorf("topology: link %s-%s addressing violates the .1-upper/.2-lower rule", l.A.Name(), l.B.Name())
		}
	}

	// Leaves: the rack port follows the uplinks, the VID is the rack
	// subnet's third byte, and VIDs and ASNs are unique.
	vids := make(map[int]string)
	asns := make(map[uint32]string)
	for _, leaf := range t.Leaves {
		if leaf.ServerPort != levels[0].up+1 {
			return fmt.Errorf("topology: %s server port %d, want %d", leaf.Name, leaf.ServerPort, levels[0].up+1)
		}
		if DeriveVID(leaf.ServerSubnet) != leaf.VID {
			return fmt.Errorf("topology: %s VID %d does not match subnet %s", leaf.Name, leaf.VID, leaf.ServerSubnet)
		}
		if prev, dup := vids[leaf.VID]; dup {
			return fmt.Errorf("topology: VID %d reused by %s and %s", leaf.VID, prev, leaf.Name)
		}
		vids[leaf.VID] = leaf.Name
		if prev, dup := asns[leaf.ASN]; dup {
			return fmt.Errorf("topology: leaf ASN %d reused by %s and %s", leaf.ASN, prev, leaf.Name)
		}
		asns[leaf.ASN] = leaf.Name
	}
	return nil
}
