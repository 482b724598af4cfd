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

// A resolved path's bounds: six hops cross the deepest fabric Build makes —
// seven devices from leaf to leaf over a four-tier top (four hops, five
// devices, in the three-tier fabrics) — and a path is their links plus the
// two access links.
const (
	maxWalkHops  = 6
	maxPathLinks = maxWalkHops + 2
	// maxMemoPaths bounds the whole-path memo's table, in entries of 120 B;
	// on a fabric whose servers² × residues exceed it every flow is walked.
	maxMemoPaths = 1 << 14
)

// pathResolver resolves flows onto the solver's directed links (resolve),
// one per fluid plan. Besides the hop memo every walk shares (Fabric.hops) it
// keeps a whole-path memo: every flow between two servers whose hash leaves
// the same residue modulo residues crosses the same links, for as long as
// the forwarding state of every device on the way stands still.
type pathResolver struct {
	f       *Fabric
	plan    *fluidPlan
	dstPort uint16
	servers int

	// residues is the whole-path memo's modulus (memoResidues), 0 where the
	// fabric is too wide for the memo. Both tables are made on the first
	// resolve, like the hop memo: prefix[src*servers+dst] is the flow hash's
	// state after the pair's addresses and protocol, and
	// paths[(src*servers+dst)*residues + hash%residues] the pair's path at
	// that residue (nil without the memo).
	residues uint32
	prefix   []flowhash.Partial
	paths    []memoPath

	// The last walk's scratch: its links, and the ordinals of the devices
	// that made its hops' decisions.
	path    []fluid.LinkID
	crossed [maxWalkHops]int32
	hops    int
}

// memoPath is one whole-path memo entry: the path and latency of a walk, and
// the devices whose decisions made it, each with the hopStamp its hop memo
// entry was current at. It is current while every one of those stamps is
// still the device's hopStamp: then no hop's memo entry has been refilled
// since, and a walk now would hit each of them and pick as this one did.
// links 0 marks an entry never filled.
type memoPath struct {
	stamps  [maxWalkHops]uint64
	latency time.Duration
	devs    [maxWalkHops]int32
	ids     [maxPathLinks]fluid.LinkID
	hops    uint8
	links   uint8
}

func (f *Fabric) newPathResolver(plan *fluidPlan, dstPort uint16) *pathResolver {
	r := &pathResolver{
		f: f, plan: plan, dstPort: dstPort, servers: len(f.Topo.Servers),
		path: make([]fluid.LinkID, 0, maxPathLinks),
	}
	if res := memoResidues(f.Topo); res > 0 && r.servers*r.servers*int(res) <= maxMemoPaths {
		r.residues = res
	}
	return r
}

// memoResidues is the modulus of the whole-path memo's key: lcm(1..K) for K
// the widest router's port count, so that a hop choosing among any number of
// candidates up to K picks by the residue alone. 0 when it exceeds
// maxMemoPaths.
func memoResidues(t *topology.Topology) uint32 {
	k := 0
	for _, d := range t.Routers() {
		k = max(k, len(d.Ports)-1)
	}
	r := uint32(1)
	for c := uint32(2); c <= uint32(k); c++ {
		a, b := r, c
		for b != 0 {
			a, b = b, a%b
		}
		if r = r / a * c; r > maxMemoPaths {
			return 0
		}
	}
	return r
}

// resolve resolves a flow onto the solver's directed links: server access
// link, then the walk leaf-to-leaf, then the destination access link. The
// returned slice is the resolver's, valid until the next call (the solver
// copies on group creation). Resolution fails — demoting the flow's group to
// its stale path, or abandoning an unlaunched flow — when a forwarding table
// has no next hop, e.g. mid-fault.
//
// A current whole-path entry answers without a walk; under -tags invariants
// every such hit is walked again and compared. A miss walks, and files the
// path if every hop chose among a number of candidates that divides
// residues: hash % n is then (hash % residues) % n, fixed by the key. Failed
// walks are not filed.
func (r *pathResolver) resolve(fl *workload.Flow) ([]fluid.LinkID, time.Duration, bool) {
	if r.prefix == nil {
		r.makeTables()
	}
	src, dst := int(fl.Src), int(fl.Dst)
	hash := r.prefix[src*r.servers+dst].Finish(fl.SrcPort, r.dstPort)
	if r.paths == nil {
		return r.walk(src, dst, hash)
	}
	e := r.entry(src, dst, hash)
	if r.current(e) {
		if invariant.Enabled {
			path, latency, ok := r.walk(src, dst, hash)
			invariant.Assertf(ok && slices.Equal(path, e.ids[:e.links]) && latency == e.latency,
				"harness: memoised path %v (%v) for flow %d->%d:%d, the walk says %v (%v, reached %v)", e.ids[:e.links], e.latency, src, dst, fl.SrcPort, path, latency, ok)
		}
		return e.ids[:e.links:e.links], e.latency, true
	}
	path, latency, ok := r.walk(src, dst, hash)
	if ok {
		r.file(e, dst, path, latency)
	}
	return path, latency, ok
}

func (r *pathResolver) makeTables() {
	servers := r.f.Topo.Servers
	r.prefix = make([]flowhash.Partial, r.servers*r.servers)
	for i, src := range servers {
		for j, dst := range servers {
			key := flowhash.Key{Src: src.IP, Dst: dst.IP, Proto: ipv4.ProtoUDP}
			r.prefix[i*r.servers+j] = key.Prefix()
		}
	}
	if r.residues > 0 {
		r.paths = make([]memoPath, len(r.prefix)*int(r.residues))
	}
}

// entry returns the whole-path memo's entry for a flow between servers src
// and dst with the given hash.
func (r *pathResolver) entry(src, dst int, hash uint32) *memoPath {
	return &r.paths[(src*r.servers+dst)*int(r.residues)+int(hash%r.residues)]
}

// current reports whether e holds a path and every device on it still has
// the forwarding state the path was walked over.
func (r *pathResolver) current(e *memoPath) bool {
	for i, ord := range e.devs[:e.hops] {
		if r.f.hopStamp(&r.f.bound[ord]) != e.stamps[i] {
			return false
		}
	}
	return e.links > 0
}

// file stores the walk just made toward server dst in e, unless one of its
// hops chose among a number of candidates that does not divide residues.
// Each hop's memo entry is current: the walk has just read it.
func (r *pathResolver) file(e *memoPath, dst int, path []fluid.LinkID, latency time.Duration) {
	hops := r.f.hops
	root := byte(r.f.Topo.Servers[dst].Ports[1].Peer.Device.VID)
	for _, ord := range r.crossed[:r.hops] {
		if r.residues%uint32(len(hops[ord][root].cands)) != 0 {
			return
		}
	}
	for i, ord := range r.crossed[:r.hops] {
		e.devs[i], e.stamps[i] = ord, hops[ord][root].stamp
	}
	e.hops = uint8(r.hops)
	e.latency = latency
	e.links = uint8(copy(e.ids[:], path))
}

// walk resolves the flow between servers src and dst with the given hash by
// walking the fabric's forwarding state, into the resolver's scratch.
func (r *pathResolver) walk(src, dst int, hash uint32) ([]fluid.LinkID, time.Duration, bool) {
	plan := r.plan
	from, to := r.f.Topo.Servers[src], r.f.Topo.Servers[dst]
	r.path, r.hops = r.path[:0], 0
	var latency time.Duration
	add := func(from *topology.Port) bool {
		ord := from.Device.Ordinal
		id := plan.ids[ord][from.Index]
		if id < 0 {
			return false
		}
		r.path = append(r.path, id)
		latency += plan.delay[ord][from.Index]
		return true
	}
	if !add(from.Ports[1]) {
		return nil, 0, false
	}
	dstAccess := to.Ports[1].Peer // the destination leaf's port down to the server
	mapped := true
	reached := r.f.walk(from.Ports[1].Peer.Device, dstAccess.Device, to.IP, hash, maxWalkHops, func(dev *topology.Device, out *topology.Port) {
		r.crossed[r.hops] = int32(dev.Ordinal)
		r.hops++
		mapped = mapped && add(out)
	})
	if !reached || !mapped || !add(dstAccess) {
		return nil, 0, false
	}
	return r.path, latency, true
}

// walk replays the fabric's forwarding decisions for a flow hop by hop from
// one device to the leaf `to` (toIP an address in its rack), calling visit with each device and the egress
// port it picks. It reports whether the walk arrived; it stops early where the
// fabric would drop the packet — a table with no next hop (e.g. mid-fault), a
// port leading nowhere or down into a rack — or after maxHops. hash is the
// flow's 5-tuple hash: every hop indexes its candidates with it, as every
// router on a packet's way computes the same one.
func (f *Fabric) walk(from, to *topology.Device, toIP netaddr.IPv4, hash uint32, maxHops int, visit func(dev *topology.Device, out *topology.Port)) bool {
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
// hopStamp cands was filled at, 0 on an entry never filled (the clock starts
// at 1). Both planes read their own ports' Port.Up directly, and a failed
// port's owner hears of it only LocalDetectDelay later: the clock moves at
// the flip itself.
type hopEntry struct {
	stamp uint64
	cands []uint16
}

// nextHopPort replicates one router's forwarding decision for a flow, returned
// as the egress port index: the flow's hash picks among the candidates the
// protocol's own next-hop selection offers toward the leaf whose root VID is
// dstRoot and whose rack holds dstIP (the VID drives MR-MTP, the address the
// BGP FIB). The candidates are memoised per (device, leaf) and recomputed
// when the device's forwarding state or its ports' carrier has changed since;
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

// hopStamp is what a hopEntry filled now is stamped with: the device's
// forwarding-state clock, which everything its plane's next-hop selection
// reads moves, its own ports' carrier included.
func (f *Fabric) hopStamp(b *binding) uint64 { return b.node.ForwardingStamp() }

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
