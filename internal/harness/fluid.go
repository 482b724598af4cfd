package harness

import (
	"fmt"
	"time"

	"repro/internal/flowhash"
	"repro/internal/fluid"
	"repro/internal/ipstack"
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
	// serial is the one-packet store-and-forward delay per hop, part of
	// each path's fixed latency offset.
	serial time.Duration
}

// buildFluidPlan registers both directions of every fabric link with a fresh
// solver. The apply hooks reserve the committed share on the wire, so packet
// and fluid traffic compete for the same capacity. The per-flow rate cap
// mirrors the packet engine's pacing (one packet per PacketInterval), which
// is what keeps uncongested-path FCTs comparable across engines.
func (f *Fabric) buildFluidPlan(w WorkloadConfig) (*fluidPlan, error) {
	if w.LinkBps <= 0 {
		return nil, fmt.Errorf("fluid engine needs rate-limited links (LinkBps > 0): an unshaped fabric has no capacities to allocate")
	}
	if w.PacketSize <= 0 || w.PacketInterval <= 0 {
		return nil, fmt.Errorf("fluid engine needs PacketSize and PacketInterval for the pacing-equivalent rate cap")
	}
	capBps := float64(w.PacketSize*8) / w.PacketInterval.Seconds()
	plan := &fluidPlan{
		solver: fluid.New(fluid.Config{RateCapBps: capBps}),
		ids:    make([][]fluid.LinkID, len(f.bound)),
		serial: time.Duration(int64(w.PacketSize) * 8 * int64(time.Second) / w.LinkBps),
	}
	for ord, b := range f.bound {
		plan.ids[ord] = make([]fluid.LinkID, len(b.node.Ports))
		for i := range plan.ids[ord] {
			plan.ids[ord][i] = -1
		}
	}
	for _, link := range f.Sim.Links() {
		link := link
		for _, from := range []*simnet.Port{link.A, link.B} {
			from := from
			ord := f.Topo.Devices[from.Node.Name].Ordinal
			plan.ids[ord][from.Index] = plan.solver.AddLink(w.LinkBps, func(bps int64, at time.Duration) {
				link.SetFluidLoad(from, bps, at)
			})
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
			latency += f.bound[ord].node.Ports[from.Index].Link.Latency + plan.serial
			return true
		}
		if !add(src.Ports[1]) {
			return nil, 0, false
		}
		dstAccess := dst.Ports[1].Peer // the destination leaf's port down to the server
		mapped := true
		// The longest valid folded-Clos walk is leaf-spine-root-spine-leaf.
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
// one device to the leaf `to`, calling visit with each device and the egress
// port it picks. It reports whether the walk arrived; it stops early where the
// fabric would drop the packet — a table with no next hop (e.g. mid-fault), a
// port leading nowhere or down into a rack — or after maxHops.
func (f *Fabric) walk(from, to *topology.Device, toIP netaddr.IPv4, key flowhash.Key, maxHops int, visit func(dev *topology.Device, out *topology.Port)) bool {
	for hops := 0; from != to; hops++ {
		if hops >= maxHops {
			return false
		}
		port, ok := f.nextHopPort(from, byte(to.VID), toIP, key)
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

// nextHopPort replicates one router's forwarding decision for a flow: the
// protocol's own next-hop selection, returned as the egress port index.
// dstRoot drives the MR-MTP VID walk, dstIP the BGP FIB lookup; both planes
// hash the same flow key their data path would.
func (f *Fabric) nextHopPort(dev *topology.Device, dstRoot byte, dstIP netaddr.IPv4, key flowhash.Key) (int, bool) {
	b := &f.bound[dev.Ordinal]
	if f.Opts.Protocol == ProtoMRMTP {
		return b.router.NextDataHop(dstRoot, key)
	}
	var nh ipstack.NextHop
	nh, ok := b.stack.NextHopFor(dstIP, key)
	if !ok {
		return 0, false
	}
	return nh.Iface.Port.Index, true
}
