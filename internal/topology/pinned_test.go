package topology

import (
	"fmt"
	"hash/fnv"
	"sort"
	"testing"
)

// TestFabricWiringPinned pins everything Build produces — every device in
// Ordinal order with all its fields, every port with its peer and addresses,
// Links in slice order, and the ordered device lists — as one FNV-64a hash
// per fabric. Device ordinals index per-device tables, port numbers become
// VID bytes, link order numbers the 172.16.n.0/24 subnets and the order of
// the lists fixes simulator node and event order, so a builder rewritten
// around another loop structure may not move the hashes below. They were
// recorded on 9d092fa, when three-tier fabrics came from Build and four-tier
// ones from a second builder with a spec type of its own.
func TestFabricWiringPinned(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func() (*Topology, error)
		hash  uint64
	}{
		{"two-pod", func() (*Topology, error) { return Build(TwoPodSpec()) }, 0xaff1db300c23a0bb},
		{"four-pod", func() (*Topology, error) { return Build(FourPodSpec()) }, 0x06a35ef51bb95877},
		{"24-pod", func() (*Topology, error) {
			return Build(Spec{Pods: 24, LeavesPerPod: 4, SpinesPerPod: 4, UplinksPerSpine: 2, ServersPerLeaf: 1})
		}, 0x32737d5f0c1034a0},
		{"irregular three-tier", func() (*Topology, error) {
			return Build(Spec{Pods: 3, LeavesPerPod: 4, SpinesPerPod: 3, UplinksPerSpine: 2, ServersPerLeaf: 2})
		}, 0x8dad0de01d541c7e},
		{"four-tier 2x2", func() (*Topology, error) {
			return Build(Spec{Pods: 4, Zones: 2, LeavesPerPod: 2,
				SpinesPerPod: 2, UplinksPerSpine: 2, UplinksPerZone: 2, ServersPerLeaf: 1})
		}, 0xcc3f3fb18c6eb56b},
		{"irregular four-tier", func() (*Topology, error) {
			return Build(Spec{Pods: 6, Zones: 3, LeavesPerPod: 3,
				SpinesPerPod: 2, UplinksPerSpine: 3, UplinksPerZone: 2, ServersPerLeaf: 2})
		}, 0xa94b7cab27f6650a},
	} {
		topo, err := tc.build()
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if got := wiringHash(topo); got != tc.hash {
			t.Errorf("%s: wiring hash %#x, pinned %#x", tc.name, got, tc.hash)
		}
	}
}

func wiringHash(topo *Topology) uint64 {
	h := fnv.New64a()
	devices := make([]*Device, 0, len(topo.Devices))
	for _, d := range topo.Devices {
		devices = append(devices, d)
	}
	sort.Slice(devices, func(i, j int) bool { return devices[i].Ordinal < devices[j].Ordinal })
	for _, d := range devices {
		fmt.Fprintf(h, "%d %s %d %d %d %d %d %d %s %d %s\n", d.Ordinal, d.Name, d.Tier, d.Level,
			d.Pod, d.Index, d.ASN, d.VID, d.ServerSubnet, d.ServerPort, d.IP)
		for _, p := range d.Ports[1:] {
			fmt.Fprintf(h, " %s %s %s %s\n", p.Name(), p.Peer.Name(), p.IP, p.Subnet)
		}
	}
	for _, l := range topo.Links {
		fmt.Fprintf(h, "%s %s\n", l.A.Name(), l.B.Name())
	}
	for _, list := range [][]*Device{topo.Leaves, topo.Spines, topo.Aggs, topo.Tops, topo.Servers, topo.Routers()} {
		for _, d := range list {
			fmt.Fprintf(h, "%s ", d.Name)
		}
		fmt.Fprintln(h)
	}
	return h.Sum64()
}
