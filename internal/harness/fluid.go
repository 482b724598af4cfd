package harness

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/flowhash"
	"repro/internal/fluid"
	"repro/internal/invariant"
	"repro/internal/ipv4"
	"repro/internal/netaddr"
	"repro/internal/simnet"
	"repro/internal/topology"
	"repro/internal/workload"
)

// This file couples the fluid solver to a built fabric: every directed link
// becomes a registered solver capacity whose committed share squeezes the
// packet serializer, and flow paths are resolved by replaying the routers'
// own forwarding decisions — no packets sent, but the same MR-MTP VID walk
// or ECMP FIB lookup the packet path would hash through.

// fluidPlan is the per-trial binding of solver links to fabric ports.
type fluidPlan struct {
	solver *fluid.Solver
	// ids[device ordinal][port index] is the solver link reserved for the
	// transmit direction leaving that port, -1 where none is registered.
	ids [][]fluid.LinkID
	// delay[device ordinal][port index] is what crossing that link adds to a
	// path's fixed latency offset: its propagation delay plus the one-packet
	// store-and-forward delay of a hop.
	delay [][]time.Duration
}

// buildFluidPlan registers both directions of every fabric link, each of
// linkBps, with a fresh solver. The apply hooks reserve the committed share on
// the wire, so packet and fluid traffic compete for the same capacity. The
// per-flow rate cap mirrors the packet engine's pacing (one
// workload.PacketSize packet per workload.PacketInterval), which is what keeps
// uncongested-path FCTs comparable across engines.
func (f *Fabric) buildFluidPlan(linkBps int64) (*fluidPlan, error) {
	if linkBps <= 0 {
		return nil, fmt.Errorf("fluid engine needs rate-limited links (LinkBps > 0): an unshaped fabric has no capacities to allocate")
	}
	capBps := float64(workload.PacketSize*8) / workload.PacketInterval.Seconds()
	serial := time.Duration(int64(workload.PacketSize) * 8 * int64(time.Second) / linkBps)
	plan := &fluidPlan{
		solver: fluid.New(fluid.Config{RateCapBps: capBps}),
		ids:    make([][]fluid.LinkID, len(f.bound)),
		delay:  make([][]time.Duration, len(f.bound)),
	}
	for ord, b := range f.bound {
		plan.ids[ord] = make([]fluid.LinkID, len(b.node.Ports))
		plan.delay[ord] = make([]time.Duration, len(b.node.Ports))
		for i := range plan.ids[ord] {
			plan.ids[ord][i] = -1
		}
	}
	for _, link := range f.Sim.Links() {
		link := link
		for _, from := range []*simnet.Port{link.A, link.B} {
			from := from
			ord := f.Topo.Devices[from.Node.Name].Ordinal
			plan.ids[ord][from.Index] = plan.solver.AddLink(linkBps, func(bps int64, at time.Duration) {
				link.SetFluidLoad(from, bps, at)
			})
			plan.delay[ord][from.Index] = link.Latency + serial
		}
	}
	return plan, nil
}

// pathFunc resolves a flow onto the solver's directed links by walking the
// fabric's forwarding state: server access link, then the walk leaf-to-leaf,
// then the destination access link. The returned slice is reused across
// calls (the solver copies on group creation). Resolution fails — demoting
// the flow's group to its stale path, or abandoning an unlaunched flow —
// when a forwarding table has no next hop, e.g. mid-fault.
func (f *Fabric) pathFunc(plan *fluidPlan, dstPort uint16) workload.PathFunc {
	servers := f.Topo.Servers
	path := make([]fluid.LinkID, 0, 8)
	return func(fl *workload.Flow) ([]fluid.LinkID, time.Duration, bool) {
		src, dst := servers[fl.Src], servers[fl.Dst]
		key := flowhash.Key{
			Src: src.IP, Dst: dst.IP, Proto: ipv4.ProtoUDP,
			SrcPort: fl.SrcPort, DstPort: dstPort,
		}
		path = path[:0]
		var latency time.Duration
		add := func(from *topology.Port) bool {
			ord := from.Device.Ordinal
			id := plan.ids[ord][from.Index]
			if id < 0 {
				return false
			}
			path = append(path, id)
			latency += plan.delay[ord][from.Index]
			return true
		}
		if !add(src.Ports[1]) {
			return nil, 0, false
		}
		dstAccess := dst.Ports[1].Peer // the destination leaf's port down to the server
		mapped := true
		// Six hops cross the deepest fabric Build makes: seven devices from
		// leaf to leaf over a four-tier top (four hops, five devices, in the
		// three-tier fabrics).
		reached := f.walk(src.Ports[1].Peer.Device, dstAccess.Device, dst.IP, key, 6, func(_ *topology.Device, out *topology.Port) {
			mapped = mapped && add(out)
		})
		if !reached || !mapped || !add(dstAccess) {
			return nil, 0, false
		}
		return path, latency, true
	}
}

// walk replays the fabric's forwarding decisions for a flow hop by hop from
// one device to the leaf `to` (toIP an address in its rack), calling visit with each device and the egress
// port it picks. It reports whether the walk arrived; it stops early where the
// fabric would drop the packet — a table with no next hop (e.g. mid-fault), a
// port leading nowhere or down into a rack — or after maxHops. The 5-tuple is
// hashed here, once: every hop indexes its candidates with the same hash, as
// every router on a packet's way computes the same one.
func (f *Fabric) walk(from, to *topology.Device, toIP netaddr.IPv4, key flowhash.Key, maxHops int, visit func(dev *topology.Device, out *topology.Port)) bool {
	hash := key.Hash()
	for hops := 0; from != to; hops++ {
		if hops >= maxHops {
			return false
		}
		port, ok := f.nextHopPort(from, byte(to.VID), toIP, hash)
		if !ok {
			return false
		}
		out := from.Ports[port]
		if out == nil || out.Peer == nil || out.Peer.Device.Tier == topology.TierServer {
			return false
		}
		visit(from, out)
		from = out.Peer.Device
	}
	return true
}

// hopEntry memoises one device's forwarding decision toward one leaf: the
// ordered egress ports the plane hashes a packet across — installation order
// of the live next hops for BGP, the down entry's port or the eligible
// uplinks in port order for MR-MTP — so that a flow's hop is
// cands[hash % len(cands)], the arithmetic both planes do. stamp is the
// hopStamp cands was filled at, 0 on an entry never filled: the plane's
// version and the simulator's port flips only grow, so their sum stands still
// exactly while neither has moved. The flips are in it because both planes
// read Port.Up directly, and a failed port's owner hears of it (and bumps its
// own version) only LocalDetectDelay later.
type hopEntry struct {
	stamp uint64
	cands []uint16
}

// nextHopPort replicates one router's forwarding decision for a flow, returned
// as the egress port index: the flow's hash picks among the candidates the
// protocol's own next-hop selection offers toward the leaf whose root VID is
// dstRoot and whose rack holds dstIP (the VID drives MR-MTP, the address the
// BGP FIB). The candidates are memoised per (device, leaf) and recomputed
// when the device's forwarding state or any port's carrier has changed since;
// under -tags invariants every hit is recomputed and compared.
func (f *Fabric) nextHopPort(dev *topology.Device, dstRoot byte, dstIP netaddr.IPv4, hash uint32) (int, bool) {
	b := &f.bound[dev.Ordinal]
	if f.hops == nil {
		f.hops = make([][]hopEntry, len(f.bound))
	}
	if f.hops[dev.Ordinal] == nil {
		f.hops[dev.Ordinal] = make([]hopEntry, f.Topo.Leaves[len(f.Topo.Leaves)-1].VID+1)
	}
	e := &f.hops[dev.Ordinal][dstRoot]
	if stamp := f.hopStamp(b); e.stamp != stamp {
		e.cands = b.hopCandidates(dstRoot, dstIP, e.cands[:0])
		e.stamp = stamp
	} else if invariant.Enabled {
		live := b.hopCandidates(dstRoot, dstIP, nil)
		invariant.Assertf(slices.Equal(live, e.cands), "harness: %s's memoised hop toward root %d is %v, its tables say %v", dev.Name, dstRoot, e.cands, live)
	}
	if len(e.cands) == 0 {
		return 0, false
	}
	return int(e.cands[hash%uint32(len(e.cands))]), true
}

// hopStamp is what a hopEntry filled now is stamped with: one more than the
// sum of the device's forwarding-state version — everything its plane's
// next-hop selection reads except the ports' carrier state — and the
// simulator's count of carrier changes.
func (f *Fabric) hopStamp(b *binding) uint64 {
	if b.router != nil {
		return 1 + b.router.Version() + f.Sim.PortFlips()
	}
	return 1 + b.stack.FIB.Version() + f.Sim.PortFlips()
}

// hopCandidates appends the egress ports the device's plane hashes a packet
// toward (dstRoot, dstIP) across, in the order the hash indexes them; nothing
// where the packet dies.
func (b *binding) hopCandidates(dstRoot byte, dstIP netaddr.IPv4, out []uint16) []uint16 {
	if b.router != nil {
		return b.router.DataCandidates(dstRoot, out)
	}
	r, _ := b.stack.FIB.Lookup(dstIP)
	for _, nh := range r.NextHops {
		out = append(out, uint16(nh.Iface.Port.Index))
	}
	return out
}
