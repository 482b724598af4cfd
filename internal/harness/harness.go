// Package harness orchestrates the paper's experiments: it realizes a
// folded-Clos topology in the simulator, deploys one of the three protocol
// configurations (MR-MTP, BGP/ECMP, BGP/ECMP/BFD), injects failures — the
// paper's TC1–TC4 interfaces and every other fault, each a chaos.Fault —
// and collects the metrics of Figs. 4–10. It is the in-process equivalent
// of the paper's FABRIC automation scripts (topology bring-up, software
// deployment, failure injection, log collection and parsing).
package harness

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/bfd"
	"repro/internal/bgp"
	"repro/internal/chaos"
	"repro/internal/ipstack"
	"repro/internal/metrics"
	"repro/internal/mrmtp"
	"repro/internal/netaddr"
	"repro/internal/simnet"
	"repro/internal/topology"
)

// Protocol selects the routing configuration under test.
type Protocol int

// The paper's three configurations.
const (
	ProtoMRMTP Protocol = iota
	ProtoBGP
	ProtoBGPBFD
)

func (p Protocol) String() string {
	switch p {
	case ProtoMRMTP:
		return "MR-MTP"
	case ProtoBGP:
		return "BGP/ECMP"
	case ProtoBGPBFD:
		return "BGP/ECMP/BFD"
	}
	return fmt.Sprintf("Protocol(%d)", int(p))
}

// MarshalText makes a Protocol marshal as its name in the JSON artifacts.
func (p Protocol) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

// Options configures a fabric build.
type Options struct {
	Spec     topology.Spec
	Protocol Protocol
	Seed     int64

	// BGPTimers defaults to the paper's 1 s/3 s with MRAI 0.
	BGPTimers bgp.Timers
	// BFD defaults to 100 ms × 3.
	BFD bfd.Config
	// MTPHello/MTPDead default to 50 ms/100 ms.
	MTPHello time.Duration
	MTPDead  time.Duration
	// MTPAccept is the Slow-to-Accept threshold (3 in the paper; 1
	// disables dampening, for the ablation benchmarks).
	MTPAccept int
	// BGPNoFastFailover disables interface tracking in the BGP speakers
	// (`no bgp fast-external-failover`), for the ablation benchmarks.
	BGPNoFastFailover bool

	// pooled marks a trial the pool runs (runTrials sets it): its fabric
	// is a fork of the memo's, and goes back to the memo when it is done.
	pooled bool
}

// DefaultOptions returns the paper's configuration for a protocol/topology.
func DefaultOptions(spec topology.Spec, proto Protocol, seed int64) Options {
	return Options{
		Spec:      spec,
		Protocol:  proto,
		Seed:      seed,
		BGPTimers: bgp.DefaultTimers(),
		BFD:       bfd.DefaultConfig(),
		MTPHello:  50 * time.Millisecond,
		MTPDead:   100 * time.Millisecond,
		MTPAccept: 3,
	}
}

// Fabric is a realized, running testbed.
type Fabric struct {
	Opts Options
	Sim  *simnet.Sim
	Topo *topology.Topology
	Log  *metrics.Log

	Speakers map[string]*bgp.Speaker   // BGP modes
	BFDs     map[string]*bfd.Manager   // BGP/BFD mode
	Routers  map[string]*mrmtp.Router  // MR-MTP mode
	Stacks   map[string]*ipstack.Stack // servers always; routers in BGP modes

	// bound is what the path walk reads of a device, indexed by
	// topology.Device.Ordinal so that resolving a flow hashes no name. The
	// name-keyed maps above stay for the CLI and for tests.
	bound []binding
	// hops is the path walk's memo (nextHopPort): hops[device ordinal][root
	// VID] is that device's decision toward that leaf. Nothing of it exists
	// until a walk is made, and then a row only for a device a walk crosses.
	hops [][]hopEntry

	started  bool
	probeSeq uint16     // last ICMP probe ID handed out (Ping/Traceroute)
	probe    *probeFlow // the loss probe, once startProbe has registered it
}

// binding is one device's simulator node and forwarding plane.
type binding struct {
	node   *simnet.Node
	router *mrmtp.Router  // MR-MTP mode, routers only
	stack  *ipstack.Stack // servers always; routers in BGP modes
}

// nextProbeID issues a fresh ICMP echo ID. The counter lives on the fabric
// rather than at package level so concurrent trials — each with its own
// Fabric — never share state (the sharedstate lint rule, DESIGN.md §8).
func (f *Fabric) nextProbeID() uint16 {
	f.probeSeq++
	return f.probeSeq
}

// Build realizes the fabric. Call Start (or WarmUp) before experiments.
func Build(opts Options) (*Fabric, error) {
	topo, err := topology.Build(opts.Spec)
	if err != nil {
		return nil, err
	}
	f := &Fabric{
		Opts:     opts,
		Sim:      simnet.New(opts.Seed),
		Topo:     topo,
		Log:      &metrics.Log{},
		Speakers: make(map[string]*bgp.Speaker),
		BFDs:     make(map[string]*bfd.Manager),
		Routers:  make(map[string]*mrmtp.Router),
		Stacks:   make(map[string]*ipstack.Stack),
		probeSeq: 0x4d54, // "MT": probe IDs stay recognizable in captures
	}

	// Nodes and ports, in sorted-name order: Devices is a map, and letting
	// its iteration order pick node indices (and so MAC addresses) would
	// make wire captures differ between otherwise identical runs.
	names := make([]string, 0, len(topo.Devices))
	for name := range topo.Devices {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		dev := topo.Devices[name]
		n := f.Sim.AddNode(name)
		for range dev.Ports[1:] {
			n.AddPort()
		}
	}
	for _, l := range topo.Links {
		f.Sim.Connect(
			f.Sim.Node(l.A.Device.Name).Port(l.A.Index),
			f.Sim.Node(l.B.Device.Name).Port(l.B.Index),
		)
	}

	// Servers always run the plain IP stack with a default route at the
	// rack gateway; both fabrics present the same .254 gateway.
	for _, srv := range topo.Servers {
		node := f.Sim.Node(srv.Name)
		stack := ipstack.New(node)
		leafPort := srv.Ports[1].Peer // the ToR end of the rack link
		subnet := srv.Ports[1].Subnet
		ifc := stack.AddIface(node.Port(1), srv.IP, subnet)
		stack.AddDefaultRoute(topology.LeafGatewayIP(leafPort.Device), ifc)
		f.Stacks[srv.Name] = stack
	}

	switch opts.Protocol {
	case ProtoMRMTP:
		f.buildMRMTP()
	case ProtoBGP, ProtoBGPBFD:
		f.buildBGP(opts.Protocol == ProtoBGPBFD)
	default:
		return nil, fmt.Errorf("harness: unknown protocol %d", int(opts.Protocol))
	}
	f.bound = make([]binding, len(names))
	for _, name := range names {
		f.bound[topo.Devices[name].Ordinal] = binding{f.Sim.Node(name), f.Routers[name], f.Stacks[name]}
	}
	return f, nil
}

func (f *Fabric) buildMRMTP() {
	top := 1
	for _, d := range f.Topo.Routers() {
		if d.Level > top {
			top = d.Level
		}
	}
	for _, d := range f.Topo.Routers() {
		cfg := mrmtp.DefaultConfig(d.Level, top)
		cfg.HelloInterval = f.Opts.MTPHello
		cfg.DeadInterval = f.Opts.MTPDead
		// Give every router a trace identity so TTL-expired probes earn a
		// time-exceeded reply attributable to this hop (same ID space as
		// the BGP fabric's router IDs).
		cfg.Identity = routerID(d)
		cfg.AcceptHellos = f.Opts.MTPAccept
		if d.Tier == topology.TierLeaf {
			cfg.ServerPort = d.ServerPort
			cfg.RackSubnet = d.ServerSubnet
		}
		f.Routers[d.Name] = mrmtp.New(f.Sim.Node(d.Name), cfg, f.Log)
	}
}

func (f *Fabric) buildBGP(withBFD bool) {
	for _, d := range f.Topo.Routers() {
		node := f.Sim.Node(d.Name)
		stack := ipstack.New(node)
		f.Stacks[d.Name] = stack
		cfg := bgp.Config{
			ASN:                 uint16(d.ASN),
			RouterID:            routerID(d),
			Timers:              f.Opts.BGPTimers,
			DisableFastFailover: f.Opts.BGPNoFastFailover,
		}
		if d.Tier == topology.TierLeaf {
			cfg.Networks = []netaddr.Prefix{d.ServerSubnet}
		}
		sp := bgp.New(stack, cfg, f.Log)
		f.Speakers[d.Name] = sp
		var mgr *bfd.Manager
		if withBFD {
			mgr = bfd.NewManager(stack)
			f.BFDs[d.Name] = mgr
		}
		for _, p := range d.Ports[1:] {
			peerDev := p.Peer.Device
			if peerDev.Tier == topology.TierServer {
				// Rack interface: address only (the connected route
				// makes the subnet reachable and advertisable).
				stack.AddIface(node.Port(p.Index), topology.LeafGatewayIP(d), d.ServerSubnet)
				continue
			}
			ifc := stack.AddIface(node.Port(p.Index), p.IP, p.Subnet)
			peer := sp.AddPeer(ifc, p.Peer.IP, uint16(peerDev.ASN))
			if withBFD {
				sess := mgr.Add(p.IP, p.Peer.IP, f.Opts.BFD)
				sess.OnDown = peer.BFDDown
			}
		}
	}
}

// routerID derives a unique identifier per router: 10.<level>.<pod>.<index>.
// Zone and top spines belong to no pod, and a zone spine's index repeats in
// every zone, so their last two bytes are the 16-bit creation rank instead —
// which for a top spine is its index, the tops being built first.
func routerID(d *topology.Device) netaddr.IPv4 {
	hi, lo := d.Pod, d.Index
	if d.Pod == 0 {
		hi, lo = (d.Ordinal+1)>>8, (d.Ordinal+1)&0xff
	}
	return netaddr.MakeIPv4(10, byte(d.Level), byte(hi), byte(lo))
}

// Start launches every protocol daemon.
func (f *Fabric) Start() {
	if f.started {
		return
	}
	f.started = true
	f.Sim.Start()
}

// WarmUp starts the fabric and runs it to steady state, then clears the
// metrics log so only post-failure events are analyzed (the paper likewise
// measures from the failure instant). It returns an error if the fabric did
// not converge, so experiments never run on a half-built network.
//
// No caller can read bring-up's events — they are Reset before WarmUp
// returns — so the Log does not retain them in the first place. A caller
// that wants them (closlab's artifacts) runs Start, RunFor and
// CheckConverged itself.
func (f *Fabric) WarmUp(d time.Duration) error {
	f.Log.Discard(true)
	f.Start()
	f.Sim.RunFor(d)
	f.Log.Discard(false)
	if err := f.CheckConverged(); err != nil {
		return err
	}
	f.Log.Reset()
	return nil
}

// CheckConverged verifies steady state: all BGP sessions established and
// every router holding a route to every rack subnet, or every MR-MTP router
// holding exactly the VIDs of the meshed trees over the live links (the
// paper's Fig. 2 end state).
func (f *Fabric) CheckConverged() error {
	if f.Opts.Protocol == ProtoMRMTP {
		trees := f.Topo.MeshedTrees(f.portUp)
		for _, d := range f.Topo.Routers() {
			if got, want := f.Routers[d.Name].VIDs(), trees.VIDs(d); !slices.Equal(got, want) {
				return fmt.Errorf("harness: %s holds VIDs %v, want %v", d.Name, got, want)
			}
		}
		return nil
	}
	for _, d := range f.Topo.Routers() {
		sp := f.Speakers[d.Name]
		if got, want := sp.EstablishedCount(), len(sp.Peers()); got != want {
			return fmt.Errorf("harness: %s has %d/%d BGP sessions", d.Name, got, want)
		}
		stack := f.Stacks[d.Name]
		for _, leaf := range f.Topo.Leaves {
			if leaf.Name == d.Name {
				continue
			}
			if _, ok := stack.FIB.Lookup(leaf.ServerSubnet.Host(1)); !ok {
				return fmt.Errorf("harness: %s has no route to %s", d.Name, leaf.ServerSubnet)
			}
		}
	}
	return nil
}

// portUp reports whether a fabric port is up in the simulator.
func (f *Fabric) portUp(p *topology.Port) bool {
	return f.bound[p.Device.Ordinal].node.Port(p.Index).Up()
}

// Fail brings down the interface of a test case, `ip link set down` on it,
// and returns the virtual time of the failure.
func (f *Fabric) Fail(tc topology.FailureCase) (time.Duration, error) {
	link, err := f.caseLink(tc)
	if err != nil {
		return 0, err
	}
	return f.Inject(chaos.Fault{Kind: chaos.Down, Link: link})
}

// caseLink names a test case's interface as a chaos target: its device and
// the device at the far end of its link (the only link between the two).
func (f *Fabric) caseLink(tc topology.FailureCase) (chaos.LinkRef, error) {
	fp, err := f.Topo.FailurePoint(tc)
	if err != nil {
		return chaos.LinkRef{}, err
	}
	peer := f.Topo.Devices[fp.Device].Ports[fp.Port].Peer.Device
	return chaos.LinkRef{Device: fp.Device, Peer: peer.Name}, nil
}

// Inject applies one fault to the running fabric now — every interface it
// fails is a failure event in the Log — and returns the virtual time it was
// applied at. A fault starting at once acts before Inject returns.
func (f *Fabric) Inject(fault chaos.Fault) (time.Duration, error) {
	at := f.Sim.Now()
	_, err := chaos.Apply(f.Sim, chaos.Spec{Name: string(fault.Kind), Faults: []chaos.Fault{fault}}, f.Log)
	return at, err
}

// ServerStack returns the IP stack of the n-th server behind the ToR with
// the given VID.
func (f *Fabric) ServerStack(vid int, n int) (*ipstack.Stack, *topology.Device, error) {
	leaf := f.Topo.LeafByVID(vid)
	if leaf == nil {
		return nil, nil, fmt.Errorf("harness: no leaf with VID %d", vid)
	}
	count := 0
	for _, srv := range f.Topo.Servers {
		if srv.Ports[1].Peer.Device == leaf {
			count++
			if count == n {
				return f.Stacks[srv.Name], srv, nil
			}
		}
	}
	return nil, nil, fmt.Errorf("harness: leaf %s has no server #%d", leaf.Name, n)
}
