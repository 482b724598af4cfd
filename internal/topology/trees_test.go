package topology

import (
	"slices"
	"testing"
)

func allUp(*Port) bool { return true }

func TestMeshedTreesMatchFig2(t *testing.T) {
	// Fig. 2: a ToR's uplink port extends its root at the pod spine
	// (11 → 11.1), the spine's uplink port at the top spine (11.1 → 11.1.2).
	topo := build(t, TwoPodSpec())
	trees := topo.MeshedTrees(allUp)
	want := map[string][]string{
		"L-1-1": nil,
		"S-1-1": {"11.1", "12.1"},
		"S-2-2": {"13.2", "14.2"},
		"T-1":   {"11.1.1", "12.1.1", "13.1.1", "14.1.1"},
		"T-3":   {"11.1.2", "12.1.2", "13.1.2", "14.1.2"},
	}
	for name, vids := range want {
		if got := trees.VIDs(topo.Devices[name]); !slices.Equal(got, vids) {
			t.Errorf("%s holds %v, want %v", name, got, vids)
		}
	}

	// L-1-1's first uplink down (either end): S-1-1 loses 11.1, and with it
	// every VID above that extends it.
	down := topo.Devices["S-1-1"].Ports[3] // the downlink to L-1-1
	trees = topo.MeshedTrees(func(p *Port) bool { return p != down })
	for name, vids := range map[string][]string{
		"S-1-1": {"12.1"},
		"T-1":   {"12.1.1", "13.1.1", "14.1.1"},
		"S-1-2": {"11.2", "12.2"},
	} {
		if got := trees.VIDs(topo.Devices[name]); !slices.Equal(got, vids) {
			t.Errorf("with %s down, %s holds %v, want %v", down.Name(), name, got, vids)
		}
	}
}

func TestMeshedTreesHops(t *testing.T) {
	two := build(t, TwoPodSpec())
	four := build(t, fourTierSpec())
	for _, c := range []struct {
		topo     *Topology
		a, b     string
		up       func(*Port) bool
		hops     int
		reach    bool
		scenario string
	}{
		{two, "L-1-1", "L-1-2", allUp, 2, true, "same pod"},
		{two, "L-1-1", "L-2-2", allUp, 4, true, "across pods"},
		{four, "L-1-1-1", "L-1-2-2", allUp, 4, true, "across pods in a zone"},
		{four, "L-1-1-1", "L-2-2-1", allUp, 6, true, "across zones"},
		// Each leaf keeps one uplink, to different planes: physically
		// connected through the pod, but not valley-free.
		{two, "L-1-1", "L-1-2", func(p *Port) bool {
			return p != two.Devices["L-1-1"].Ports[1] && p != two.Devices["L-1-2"].Ports[2]
		}, 0, false, "split planes"},
		// Both of S-1-1's uplinks down: the pair still meets at S-1-1.
		{two, "L-1-1", "L-1-2", func(p *Port) bool {
			return p.Device.Name != "S-1-1" || !p.IsUplink()
		}, 2, true, "spine cut off above"},
	} {
		hops, ok := c.topo.MeshedTrees(c.up).Hops(c.topo.Devices[c.a], c.topo.Devices[c.b])
		if hops != c.hops || ok != c.reach {
			t.Errorf("%s: %s->%s = %d, %v; want %d, %v", c.scenario, c.a, c.b, hops, ok, c.hops, c.reach)
		}
	}
}
