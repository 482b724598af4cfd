package harness

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/topology"
)

func TestPropertyAnyFabricConvergesAndDelivers(t *testing.T) {
	// Build pseudo-random fabric shapes and require, for both protocols:
	// convergence, then all-pairs server reachability. This generalizes
	// the paper's two fixed topologies to the whole family.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 6; trial++ {
		spec := topology.Spec{
			Pods:            rng.Intn(3) + 2, // 2..4
			LeavesPerPod:    rng.Intn(2) + 1, // 1..2
			SpinesPerPod:    rng.Intn(2) + 1, // 1..2
			UplinksPerSpine: rng.Intn(2) + 1, // 1..2
			ServersPerLeaf:  1,
		}
		for _, proto := range []Protocol{ProtoMRMTP, ProtoBGP} {
			f, err := Build(DefaultOptions(spec, proto, int64(trial)+101))
			if err != nil {
				t.Fatalf("%+v %v: %v", spec, proto, err)
			}
			if err := f.WarmUp(WarmupTime); err != nil {
				t.Fatalf("%+v %v: %v", spec, proto, err)
			}
			checkAllPairs(t, f)
			if t.Failed() {
				t.Fatalf("fabric %+v under %v failed all-pairs delivery", spec, proto)
			}
		}
	}
}

func TestPropertyFailureNeverPartitionsRedundantFabric(t *testing.T) {
	// With >= 2 spines per pod and >= 2 uplinks per spine, any single
	// interface failure leaves every rack pair connected once the fabric
	// reconverges — for both protocols.
	spec := topology.FourPodSpec()
	for _, proto := range []Protocol{ProtoMRMTP, ProtoBGP} {
		for _, tc := range topology.AllFailureCases() {
			f, err := Build(DefaultOptions(spec, proto, int64(tc)*31))
			if err != nil {
				t.Fatal(err)
			}
			if err := f.WarmUp(WarmupTime); err != nil {
				t.Fatal(err)
			}
			if _, err := f.Fail(tc); err != nil {
				t.Fatal(err)
			}
			f.Sim.RunFor(SettleTime)
			checkAllPairs(t, f)
			if t.Failed() {
				t.Fatalf("%v under %v partitioned the fabric", tc, proto)
			}
		}
	}
}

func TestPropertyRandomDoubleFailuresMatchOracle(t *testing.T) {
	// Two random simultaneous interface failures, then compare actual
	// delivery per rack pair against valley-free reachability over the
	// meshed trees of the surviving links. (A Clos fabric can be
	// *logically* partitioned by two failures even when physically
	// connected — valley-free routing never transits a leaf — so the
	// trees, not blanket connectivity, are the correct specification for
	// both protocols.)
	rng := rand.New(rand.NewSource(7))
	for _, spec := range []topology.Spec{topology.FourPodSpec(), fourTier()} {
		for trial := 0; trial < 5; trial++ {
			for _, proto := range []Protocol{ProtoMRMTP, ProtoBGP} {
				f, err := Build(DefaultOptions(spec, proto, int64(trial)+500))
				if err != nil {
					t.Fatal(err)
				}
				if err := f.WarmUp(WarmupTime); err != nil {
					t.Fatal(err)
				}
				routers := f.Topo.Routers()
				victims := map[string]int{}
				for len(victims) < 2 {
					d := routers[rng.Intn(len(routers))]
					port := rng.Intn(len(d.Ports)-1) + 1
					if d.Ports[port].Peer.Device.Tier == topology.TierServer {
						continue
					}
					if _, dup := victims[d.Name]; dup {
						continue
					}
					victims[d.Name] = port
				}
				for name, port := range victims {
					f.Sim.Node(name).Port(port).Fail()
				}
				f.Sim.RunFor(5 * time.Second)
				checkPairsAgainstTrees(t, f, victims)
			}
		}
	}
}

func TestTreesReachabilityMatchesOracle(t *testing.T) {
	// The trees' valley-free reachability against the hand-written
	// three-tier walk it replaced, over random sets of 0-4 failed ports.
	rng := rand.New(rand.NewSource(3))
	for _, spec := range []topology.Spec{topology.TwoPodSpec(), topology.FourPodSpec()} {
		topo, err := topology.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		var fabric []*topology.Port // router ports facing routers
		for _, d := range topo.Routers() {
			for _, p := range d.Ports[1:] {
				if p.Peer.Device.Tier != topology.TierServer {
					fabric = append(fabric, p)
				}
			}
		}
		for set := 0; set < 1500; set++ {
			down := map[*topology.Port]bool{}
			var names []string
			for i := rng.Intn(5); i > 0; i-- {
				p := fabric[rng.Intn(len(fabric))]
				down[p] = true
				names = append(names, p.Name())
			}
			up := func(p *topology.Port) bool { return !down[p] }
			trees := topo.MeshedTrees(up)
			for _, src := range topo.Leaves {
				for _, dst := range topo.Leaves {
					if src == dst {
						continue
					}
					_, got := trees.Hops(src, dst)
					if want := oracleReachable(topo, up, src, dst); got != want {
						t.Fatalf("%d pods, ports down %v: %s->%s trees %v, oracle %v",
							spec.Pods, names, src.Name, dst.Name, got, want)
					}
				}
			}
		}
	}
}

// linkAlive reports whether the link between two devices survives (neither
// end's port down).
func linkAlive(up func(*topology.Port) bool, a *topology.Device, b *topology.Device) bool {
	for _, p := range a.Ports[1:] {
		if p.Peer.Device == b {
			return up(p) && up(p.Peer)
		}
	}
	return false
}

// oracleReachable computes valley-free reachability between two leaves of
// a three-tier fabric: up through a pod spine (and top spine for cross-pod
// pairs), down the far side, never transiting a leaf. It is the
// differential reference for topology.Trees.Hops.
func oracleReachable(topo *topology.Topology, up func(*topology.Port) bool, src, dst *topology.Device) bool {
	for _, s := range topo.Spines {
		if s.Pod != src.Pod || !linkAlive(up, src, s) {
			continue
		}
		if src.Pod == dst.Pod {
			if linkAlive(up, s, dst) {
				return true
			}
			// fall through: the up-over-top detour inside a pod also
			// counts (hash may use it when the direct spine link died).
		}
		for _, top := range topo.Tops {
			if !linkAlive(up, s, top) {
				continue
			}
			for _, d := range topo.Spines {
				if d.Pod != dst.Pod {
					continue
				}
				if linkAlive(up, top, d) && linkAlive(up, d, dst) {
					return true
				}
			}
		}
	}
	return false
}

// checkPairsAgainstTrees probes every ordered rack pair and compares
// delivery with valley-free reachability over the trees of the live ports.
func checkPairsAgainstTrees(t *testing.T, f *Fabric, victims map[string]int) {
	t.Helper()
	trees := f.Topo.MeshedTrees(f.portUp)
	for _, src := range f.Topo.Leaves {
		for _, dst := range f.Topo.Leaves {
			if src == dst {
				continue
			}
			_, want := trees.Hops(src, dst)
			res, err := Ping(f, src.VID, dst.VID, 200*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if res.OK != want {
				t.Errorf("%v: %s->%s delivered=%v trees=%v (failures %v)",
					f.Opts.Protocol, src.Name, dst.Name, res.OK, want, victims)
			}
		}
	}
}
