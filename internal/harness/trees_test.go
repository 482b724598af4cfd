package harness

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/topology"
)

// treeMismatches names every VID a router of f holds that the meshed trees
// over the live ports do not, and every one it lacks.
func treeMismatches(f *Fabric) []string {
	trees := f.Topo.MeshedTrees(f.portUp)
	var out []string
	for _, d := range f.Topo.Routers() {
		got, want := f.Routers[d.Name].VIDs(), trees.VIDs(d)
		for _, v := range got {
			if !slices.Contains(want, v) {
				out = append(out, fmt.Sprintf("%s holds %s", d.Name, v))
			}
		}
		for _, v := range want {
			if !slices.Contains(got, v) {
				out = append(out, fmt.Sprintf("%s lacks %s", d.Name, v))
			}
		}
	}
	return out
}

func TestMRMTPTablesMatchTreesAfterEveryLinkFault(t *testing.T) {
	// Every fabric link at either end, failed for good (a chaos.Down) or
	// failed and restored (a one-flap chaos.FlapStorm), each on a fork of
	// one warm fabric: once it settles, every router holds exactly the
	// VIDs of the meshed trees over the ports still up.
	const settle = 2 * time.Second
	for _, spec := range []topology.Spec{topology.TwoPodSpec(), fourTier()} {
		warm, err := bringUp(DefaultOptions(spec, ProtoMRMTP, 1))
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range warm.Topo.Links {
			if l.A.Device.Tier == topology.TierServer {
				continue
			}
			for _, end := range []*topology.Port{l.A, l.B} {
				link := chaos.LinkRef{Device: end.Device.Name, Peer: end.Peer.Device.Name}
				for _, fault := range []chaos.Fault{
					{Kind: chaos.Down, Link: link},
					{Kind: chaos.FlapStorm, Link: link, Flaps: 1, Period: chaos.Duration(time.Second), Duty: 0.5},
				} {
					f, err := warm.fork(nil)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := f.Inject(fault); err != nil {
						t.Fatal(err)
					}
					f.Sim.RunFor(fault.End() + settle)
					if bad := treeMismatches(f); len(bad) > 0 {
						t.Errorf("%d pods, %s at %s: %v", spec.Pods, fault.Kind, end.Name(), bad)
					}
				}
			}
		}
	}
}
