package harness

import (
	"fmt"
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
			plan, err := f.buildFluidPlan(DefaultWorkloadConfig().LinkBps)
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
					peer := port.Peer()
					out, back := port.Link.Stats(port).FluidBps, port.Link.Stats(peer).FluidBps
					plan.solver.Admit(uint32(len(seen)), 1_000_000, []fluid.LinkID{id}, 0, 0)
					plan.solver.Reallocate(0)
					if port.Link.Stats(port).FluidBps <= out || port.Link.Stats(peer).FluidBps != back {
						t.Fatalf("%s: a flow admitted on %s's link ID %d moved the load leaving it %d→%d and the load entering it %d→%d",
							where, port.Name(), id, out, port.Link.Stats(port).FluidBps, back, port.Link.Stats(peer).FluidBps)
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
// links a path resolver resolves a 5-tuple onto must be, in order, the link
// directions that carry a datagram with that 5-tuple from the source server
// to the destination, and a flow the walk refuses must be one the fabric
// drops. One resolver — one warm hop memo and whole-path memo — is held per
// fabric across every fault: healthy, the instant after the failure (inside
// LocalDetectDelay: the port is down and its owner has not heard), 60 ms on
// (MR-MTP has updated, the failed port's peer and BFD have not timed out),
// a second on, the instant after the restore, a second on (MR-MTP has
// re-accepted), and settled; for each of TC1–TC4 and the loss of a whole
// spine. A memo that outlives the state it was filled from sends the walk
// where the packet does not go. After each phase every entry of both memos
// that claims to be current is re-derived from the live tables.
func TestFluidPathIsPacketPath(t *testing.T) {
	for _, proto := range []Protocol{ProtoMRMTP, ProtoBGPBFD} {
		t.Run(proto.String(), func(t *testing.T) {
			t.Run("4-pod", func(t *testing.T) {
				walkAcrossFaults(t, DefaultOptions(topology.FourPodSpec(), proto, 1))
			})
			if proto != ProtoMRMTP {
				return
			}
			t.Run("4-tier", func(t *testing.T) { walkAcrossFaults(t, fourTierOptions(proto)) })
			t.Run("cold link", walkAcrossFirstContact)
		})
	}
}

func walkAcrossFaults(t *testing.T, opts Options) {
	f, err := bringUp(opts)
	if err != nil {
		t.Fatal(err)
	}
	o := newWalkOracle(t, f)
	o.check("healthy", nil)
	portOf := func(tc topology.FailureCase) []*simnet.Port {
		fp, err := f.Topo.FailurePoint(tc)
		if err != nil {
			t.Fatal(err)
		}
		return []*simnet.Port{f.Sim.Node(fp.Device).Port(fp.Port)}
	}
	spine := f.Topo.Leaves[0].Ports[1].Peer.Device.Name
	faults := []struct {
		name  string
		ports []*simnet.Port
	}{
		{"TC1", portOf(topology.TC1)}, {"TC2", portOf(topology.TC2)},
		{"TC3", portOf(topology.TC3)}, {"TC4", portOf(topology.TC4)},
		{"node " + spine, f.Sim.Node(spine).Ports[1:]},
	}
	for _, fault := range faults {
		if o.crossing(fault.ports) == 0 {
			t.Errorf("%s: no healthy flow crosses the ports about to fail", fault.name)
		}
		for _, inject := range []struct {
			name string
			do   func(*simnet.Port)
		}{{"fail", (*simnet.Port).Fail}, {"restore", (*simnet.Port).Restore}} {
			at := f.Sim.Now()
			for _, p := range fault.ports {
				inject.do(p)
			}
			where := fault.name + " " + inject.name
			o.check(where+", the instant after", fault.ports)
			f.Sim.RunUntil(at + 60*time.Millisecond)
			o.check(where+" +60 ms", fault.ports)
			f.Sim.RunUntil(at + time.Second)
			o.check(where+" +1 s", fault.ports)
		}
		f.Sim.RunFor(20 * time.Second) // BGP sessions re-establish
		if resolved := o.check(fault.name+" settled", nil); resolved != len(o.flows) {
			t.Errorf("%s settled: %d of %d flows resolve", fault.name, resolved, len(o.flows))
		}
	}
}

// walkAcrossFirstContact holds the memo across the one transition a warm
// fabric never repeats: an adjacency whose first frame is not an ADVERTISE.
// The spine end of a leaf-spine link is down from before the fabric starts,
// so neither end has heard the other; once it is restored the keep-alives
// cross, and for one link round trip the spine counts the leaf — tier not yet
// learned — among its uplinks. No datagram fits in that window, so here the
// memo is held to the live tables, every (device, root) entry at every 50 µs
// step, and to the packet before and after.
func walkAcrossFirstContact(t *testing.T) {
	f, err := Build(DefaultOptions(topology.FourPodSpec(), ProtoMRMTP, 1))
	if err != nil {
		t.Fatal(err)
	}
	fp, err := f.Topo.FailurePoint(topology.TC2)
	if err != nil {
		t.Fatal(err)
	}
	port := f.Sim.Node(fp.Device).Port(fp.Port)
	port.Fail()
	f.Start()
	f.Sim.RunFor(WarmupTime)
	o := newWalkOracle(t, f)
	o.check("never joined", []*simnet.Port{port})
	port.Restore()
	// The window exists if the spine, up on a keep-alive, at some step offers
	// a remote root one port more than it does once the leaf has said what
	// it is.
	spine, remote := f.Routers[fp.Device], byte(f.Topo.Leaves[len(f.Topo.Leaves)-1].VID)
	widest := 0
	for step := 0; step < 4000; step++ {
		f.Sim.RunFor(50 * time.Microsecond)
		o.sweepHops("first contact")
		widest = max(widest, len(spine.DataCandidates(remote, nil)))
	}
	if widest <= len(spine.DataCandidates(remote, nil)) {
		t.Error("the spine never counted the unheard leaf among its uplinks: the scenario no longer opens the window it is here for")
	}
	f.Sim.RunFor(time.Second)
	if resolved := o.check("joined", nil); resolved != len(o.flows) {
		t.Errorf("joined: %d of %d flows resolve", resolved, len(o.flows))
	}
	if err := f.CheckConverged(); err != nil {
		t.Error(err)
	}
}

// walkOracle sends one datagram per flow and compares the link directions
// that carried it with the walk's.
type walkOracle struct {
	t        *testing.T
	f        *Fabric
	resolver *pathResolver
	from     map[fluid.LinkID]*simnet.Port
	flows    []workload.Flow

	probes    uint16
	carried   map[uint16][]*simnet.Port
	delivered map[uint16]int
}

const (
	walkDstPort = 49000
	// The payload names the probe, so a tap tells each datagram from the
	// others and from every control frame.
	walkMarker = "walk-oracle-id"
)

func newWalkOracle(t *testing.T, f *Fabric) *walkOracle {
	plan, err := f.buildFluidPlan(DefaultWorkloadConfig().LinkBps)
	if err != nil {
		t.Fatal(err)
	}
	resolver := f.newPathResolver(plan, walkDstPort)
	o := &walkOracle{
		t: t, f: f, resolver: resolver,
		from:    make(map[fluid.LinkID]*simnet.Port),
		carried: make(map[uint16][]*simnet.Port), delivered: make(map[uint16]int),
	}
	for ord, ids := range plan.ids {
		for idx, id := range ids {
			if id >= 0 {
				o.from[id] = f.bound[ord].node.Ports[idx]
			}
		}
	}
	probe := func(b []byte) (uint16, bool) {
		n := len(b) - 2
		if n < len(walkMarker) || string(b[n-len(walkMarker):n]) != walkMarker {
			return 0, false
		}
		return uint16(b[n])<<8 | uint16(b[n+1]), true
	}
	for _, link := range f.Sim.Links() {
		link.Tap(func(_ time.Duration, p *simnet.Port, frame []byte) {
			if id, ok := probe(frame); ok {
				o.carried[id] = append(o.carried[id], p)
			}
		})
	}
	servers := f.Topo.Servers
	for _, srv := range servers {
		f.Stacks[srv.Name].ListenUDP(walkDstPort, func(_, _ netaddr.IPv4, dg udp.Datagram) {
			if id, ok := probe(dg.Payload); ok {
				o.delivered[id]++
			}
		})
	}
	o.flows = seededFlows(20, 120, 0, len(servers))
	return o
}

// seededFlows draws n flows with random source ports between distinct
// servers of index first and above.
func seededFlows(seed int64, n, first, servers int) []workload.Flow {
	rng := rand.New(rand.NewSource(seed))
	flows := make([]workload.Flow, n)
	for i := range flows {
		fl := &flows[i]
		fl.Src, fl.SrcPort = uint16(first+rng.Intn(servers-first)), uint16(20000+rng.Intn(40000))
		for fl.Dst = fl.Src; fl.Dst == fl.Src; {
			fl.Dst = uint16(first + rng.Intn(servers-first))
		}
	}
	return flows
}

// ports maps a resolved path back to the ports it leaves.
func (o *walkOracle) ports(path []fluid.LinkID) []*simnet.Port {
	out := make([]*simnet.Port, len(path))
	for i, id := range path {
		out[i] = o.from[id]
	}
	return out
}

// crossing counts the flows whose current walk leaves or enters one of ports.
func (o *walkOracle) crossing(ports []*simnet.Port) int {
	n := 0
	for i := range o.flows {
		path, _, _ := o.resolver.resolve(&o.flows[i])
		if slices.ContainsFunc(o.ports(path), func(p *simnet.Port) bool {
			return slices.Contains(ports, p) || slices.Contains(ports, p.Peer())
		}) {
			n++
		}
	}
	return n
}

// check resolves every flow at this instant, sends every flow's datagram at
// this instant, runs 5 ms and compares, returning how many flows resolved. A
// resolved flow must be delivered over exactly the walk's links — unless it
// was sent into one of the failed ports, whose peer cannot know yet: then it
// must have followed the walk up to there.
func (o *walkOracle) check(state string, failed []*simnet.Port) (resolved int) {
	servers := o.f.Topo.Servers
	first := o.probes + 1
	want := make([][]*simnet.Port, len(o.flows))
	for i := range o.flows {
		fl := &o.flows[i]
		if path, _, ok := o.resolver.resolve(fl); ok {
			want[i] = o.ports(path)
		}
		o.probes++
		delete(o.carried, o.probes)
		delete(o.delivered, o.probes)
		src, dst := servers[fl.Src], servers[fl.Dst]
		payload := append([]byte(walkMarker), byte(o.probes>>8), byte(o.probes))
		o.f.Stacks[src.Name].SendUDP(src.IP, dst.IP, fl.SrcPort, walkDstPort, payload)
	}
	o.f.Sim.RunFor(5 * time.Millisecond)
	for i, fl := range o.flows {
		id := first + uint16(i)
		carried, delivered := o.carried[id], o.delivered[id]
		what := fmt.Sprintf("%s: %s→%s:%d", state, servers[fl.Src].Name, servers[fl.Dst].Name, fl.SrcPort)
		switch {
		case want[i] == nil:
			if delivered != 0 {
				o.t.Errorf("%s was refused by the walk and delivered by the fabric over %v", what, portNames(carried))
			}
			continue
		case delivered == 1:
			if !slices.Equal(want[i], carried) {
				o.t.Fatalf("%s: walk crosses %v, packet crossed %v", what, portNames(want[i]), portNames(carried))
			}
		case delivered == 0 && len(carried) > 0 && len(carried) <= len(want[i]) &&
			slices.Equal(want[i][:len(carried)], carried) && slices.Contains(failed, carried[len(carried)-1].Peer()):
			// Lost at a failed port the sender cannot see is down.
		default:
			o.t.Fatalf("%s: walk crosses %v, the datagram was delivered %d times over %v", what, portNames(want[i]), delivered, portNames(carried))
		}
		resolved++
	}
	o.sweepPaths(state)
	o.sweepHops(state)
	return resolved
}

// sweepPaths holds every whole-path memo entry that claims to be current to a
// walk made now with the entry's residue for a hash: every flow between the
// pair whose hash leaves that residue walks the same way.
func (o *walkOracle) sweepPaths(state string) {
	r := o.resolver
	for pair := range r.prefix {
		src, dst := pair/r.servers, pair%r.servers
		for res := uint32(0); res < r.residues; res++ {
			e := r.entry(src, dst, res)
			if !r.current(e) {
				continue
			}
			if path, latency, ok := r.walk(src, dst, res); !ok || !slices.Equal(path, e.ids[:e.links]) || latency != e.latency {
				o.t.Fatalf("%s: the memoised path from %s to %s at residue %d is %v (%v) and claims to be current; a walk says %v (%v, reached %v)",
					state, o.f.Topo.Servers[src].Name, o.f.Topo.Servers[dst].Name, res, o.ports(e.ids[:e.links]), e.latency, o.ports(path), latency, ok)
			}
		}
	}
}

// sweepHops holds every entry of the hop memo that claims to be current to
// the live tables, then fills or refreshes every (router, leaf) entry, so
// that the next sweep finds whatever a missing version bump leaves behind.
func (o *walkOracle) sweepHops(state string) {
	f := o.f
	for _, dev := range f.Topo.Routers() {
		b := &f.bound[dev.Ordinal]
		for _, leaf := range f.Topo.Leaves {
			root, ip := byte(leaf.VID), leaf.ServerSubnet.Host(1)
			if f.hops != nil && f.hops[dev.Ordinal] != nil {
				e := f.hops[dev.Ordinal][root]
				if live := b.hopCandidates(root, ip, nil); e.stamp == f.hopStamp(b) && !slices.Equal(e.cands, live) {
					o.t.Fatalf("%s: %s's memoised hop toward %s is %v and claims to be current; its tables say %v", state, dev.Name, leaf.Name, e.cands, live)
				}
			}
			f.nextHopPort(dev, root, ip, 0)
		}
	}
}

func portNames(ports []*simnet.Port) []string {
	names := make([]string, len(ports))
	for i, p := range ports {
		names[i] = p.Name()
	}
	return names
}
