package topology

import (
	"slices"
	"strconv"
	"strings"
)

// Trees is MR-MTP's converged state over a set of live links: the meshed
// trees of §III.B and Fig. 2, one rooted at each ToR, from the wiring alone.
type Trees struct {
	routers []*Device  // bottom-up, as Routers returns them
	vids    [][]string // by Device.Ordinal, sorted
}

// MeshedTrees returns the VIDs every router holds once MR-MTP converges over
// the links whose two ports up reports up. A ToR roots its VID's tree and
// holds no entry; a router above holds, through each live link to a device
// one tier below, every VID that device holds (a ToR: its root) extended by
// the lower end's port number, where the JOIN arrived: one VID per up-path.
func (t *Topology) MeshedTrees(up func(*Port) bool) Trees {
	tr := Trees{routers: t.Routers(), vids: make([][]string, len(t.Devices))}
	for _, d := range tr.routers {
		var held []string
		for _, p := range d.Ports[1:] {
			below := p.Peer
			if below.Device.Level != d.Level-1 || !up(p) || !up(below) {
				continue
			}
			parents := tr.vids[below.Device.Ordinal]
			if below.Device.Tier == TierLeaf {
				parents = []string{strconv.Itoa(below.Device.VID)}
			}
			for _, v := range parents {
				held = append(held, v+"."+strconv.Itoa(below.Index))
			}
		}
		slices.Sort(held)
		tr.vids[d.Ordinal] = held
	}
	return tr
}

// VIDs returns the router's VIDs, sorted as strings (mrmtp.Router.VIDs).
func (tr Trees) VIDs(d *Device) []string { return tr.vids[d.Ordinal] }

// Hops reports whether leaf a reaches leaf b valley-free, up to a router
// holding a VID rooted at each and down, in 2·(Level−1) hops of the lowest.
func (tr Trees) Hops(a, b *Device) (int, bool) {
	rooted := func(d, leaf *Device) bool {
		root := strconv.Itoa(leaf.VID) + "."
		return slices.ContainsFunc(tr.vids[d.Ordinal], func(v string) bool { return strings.HasPrefix(v, root) })
	}
	for _, d := range tr.routers {
		if rooted(d, a) && rooted(d, b) {
			return 2 * (d.Level - 1), true
		}
	}
	return 0, false
}
