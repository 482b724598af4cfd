package harness

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/fluid"
	"repro/internal/netaddr"
	"repro/internal/simnet"
	"repro/internal/topology"
	"repro/internal/udp"
	"repro/internal/workload"
)

// TestBindingMatchesNames holds the ordinal-indexed tables the path walk
// reads to the name-keyed maps they stand in for: every device's bound node,
// router and stack is the one its name returns, and every solver link in the
// fluid plan reserves capacity on the direction leaving the port it is filed
// under — observed through the solver itself, one admitted flow per link.
func TestBindingMatchesNames(t *testing.T) {
	fabrics := []struct {
		name string
		opts func(Protocol) Options
	}{
		{"2-pod", func(p Protocol) Options { return DefaultOptions(topology.TwoPodSpec(), p, 1) }},
		{"4-pod", func(p Protocol) Options { return DefaultOptions(topology.FourPodSpec(), p, 1) }},
		{"4-tier", fourTierOptions},
	}
	for _, fab := range fabrics {
		for _, proto := range []Protocol{ProtoMRMTP, ProtoBGP, ProtoBGPBFD} {
			f, err := Build(fab.opts(proto))
			if err != nil {
				t.Fatal(err)
			}
			where := fab.name + " " + proto.String()
			if len(f.bound) != len(f.Topo.Devices) {
				t.Fatalf("%s: %d bindings for %d devices", where, len(f.bound), len(f.Topo.Devices))
			}
			for name, dev := range f.Topo.Devices {
				b := f.bound[dev.Ordinal]
				if b.node == nil || b.node != f.Sim.Node(name) || b.router != f.Routers[name] || b.stack != f.Stacks[name] {
					t.Fatalf("%s: ordinal %d of %s is bound to %+v", where, dev.Ordinal, name, b)
				}
				if (b.router == nil) == (b.stack == nil) {
					t.Fatalf("%s: %s has router %v and stack %v, want exactly one forwarding plane", where, name, b.router, b.stack)
				}
			}
			plan, err := f.buildFluidPlan(DefaultWorkloadConfig())
			if err != nil {
				t.Fatal(err)
			}
			seen := make(map[fluid.LinkID]bool)
			for ord, b := range f.bound {
				ids := plan.ids[ord]
				if len(ids) != len(b.node.Ports) || ids[0] != -1 {
					t.Fatalf("%s: %s has link IDs %v for %d ports", where, b.node.Name, ids, len(b.node.Ports)-1)
				}
				for _, port := range b.node.Ports[1:] {
					id := ids[port.Index]
					if id < 0 || seen[id] {
						t.Fatalf("%s: %s is filed under link ID %d (seen before: %v)", where, port.Name(), id, seen[id])
					}
					seen[id] = true
					peer := port.Link.Other(port)
					out, back := port.Link.FluidLoad(port), port.Link.FluidLoad(peer)
					plan.solver.Admit(uint32(len(seen)), 1_000_000, []fluid.LinkID{id}, 0, 0)
					plan.solver.Reallocate(0)
					if port.Link.FluidLoad(port) <= out || port.Link.FluidLoad(peer) != back {
						t.Fatalf("%s: a flow admitted on %s's link ID %d moved the load leaving it %d→%d and the load entering it %d→%d",
							where, port.Name(), id, out, port.Link.FluidLoad(port), back, port.Link.FluidLoad(peer))
					}
				}
			}
			if want := 2 * len(f.Sim.Links()); len(seen) != want {
				t.Errorf("%s: %d link IDs registered, want %d (both directions of every link)", where, len(seen), want)
			}
		}
	}
}

// TestFluidPathIsPacketPath makes the packet the oracle of the walk: the
// links pathFunc resolves a 5-tuple onto must be, in order, the link
// directions that carry a datagram with that 5-tuple from the source server
// to the destination — on a healthy fabric and again once the protocols have
// routed around TC2. A flow the walk refuses must be one the fabric drops.
func TestFluidPathIsPacketPath(t *testing.T) {
	const dstPort, flows = 49000, 120
	for _, proto := range []Protocol{ProtoMRMTP, ProtoBGPBFD} {
		t.Run(proto.String(), func(t *testing.T) {
			f, err := warm(DefaultOptions(topology.FourPodSpec(), proto, 1))
			if err != nil {
				t.Fatal(err)
			}
			plan, err := f.buildFluidPlan(DefaultWorkloadConfig())
			if err != nil {
				t.Fatal(err)
			}
			resolve := f.pathFunc(plan, dstPort)
			from := make(map[fluid.LinkID]*simnet.Port)
			for ord, ids := range plan.ids {
				for idx, id := range ids {
					if id >= 0 {
						from[id] = f.bound[ord].node.Ports[idx]
					}
				}
			}

			// The payload names the probe, so a tap tells this datagram from
			// the last one's and from every control frame.
			marker := []byte("walk-oracle-0000")
			probes := 0
			var carried []*simnet.Port
			for _, link := range f.Sim.Links() {
				link.Tap(func(_ time.Duration, p *simnet.Port, frame []byte) {
					if bytes.HasSuffix(frame, marker) {
						carried = append(carried, p)
					}
				})
			}
			delivered := 0
			for _, srv := range f.Topo.Servers {
				f.Stacks[srv.Name].ListenUDP(dstPort, func(_, _ netaddr.IPv4, dg udp.Datagram) {
					if bytes.Equal(dg.Payload, marker) {
						delivered++
					}
				})
			}

			rng := rand.New(rand.NewSource(20))
			servers := f.Topo.Servers
			check := func(state string) {
				resolved, viaFailed := 0, 0
				for i := 0; i < flows; i++ {
					fl := workload.Flow{ID: uint32(i + 1), Src: rng.Intn(len(servers)), SrcPort: uint16(20000 + rng.Intn(40000))}
					for fl.Dst = fl.Src; fl.Dst == fl.Src; {
						fl.Dst = rng.Intn(len(servers))
					}
					src, dst := servers[fl.Src], servers[fl.Dst]
					path, _, ok := resolve(&fl)
					var want []*simnet.Port
					for _, id := range path {
						want = append(want, from[id])
					}

					probes++
					marker[len(marker)-2], marker[len(marker)-1] = byte(probes>>8), byte(probes)
					carried, delivered = carried[:0], 0
					f.Stacks[src.Name].SendUDP(src.IP, dst.IP, fl.SrcPort, dstPort, marker)
					f.Sim.RunFor(5 * time.Millisecond)

					if !ok {
						if delivered != 0 {
							t.Errorf("%s: %s→%s:%d was refused by the walk and delivered by the fabric", state, src.Name, dst.Name, fl.SrcPort)
						}
						continue
					}
					resolved++
					if delivered != 1 {
						t.Fatalf("%s: %s→%s:%d resolved onto %d links but the datagram was delivered %d times", state, src.Name, dst.Name, fl.SrcPort, len(path), delivered)
					}
					if !slices.Equal(want, carried) {
						t.Fatalf("%s: %s→%s:%d: walk crosses %v, packet crossed %v", state, src.Name, dst.Name, fl.SrcPort, portNames(want), portNames(carried))
					}
					for _, p := range want {
						if p.Node.Name == "S-1-1" {
							viaFailed++
						}
					}
				}
				if resolved < 100 {
					t.Errorf("%s: only %d of %d flows resolved", state, resolved, flows)
				}
				if viaFailed == 0 {
					t.Errorf("%s: no flow crossed S-1-1, the device TC2 fails a port of", state)
				}
			}
			check("healthy")
			if _, err := f.Fail(topology.TC2); err != nil {
				t.Fatal(err)
			}
			f.Sim.RunFor(time.Second)
			check("one second after TC2")
		})
	}
}

func portNames(ports []*simnet.Port) []string {
	names := make([]string, len(ports))
	for i, p := range ports {
		names[i] = p.Name()
	}
	return names
}
