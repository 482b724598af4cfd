package ipstack

import (
	"fmt"
	"sort"

	"repro/internal/arp"
	"repro/internal/ethernet"
	"repro/internal/icmp"
	"repro/internal/invariant"
	"repro/internal/ipv4"
	"repro/internal/netaddr"
	"repro/internal/simnet"
	"repro/internal/simnet/framepool"
	"repro/internal/tcp"
	"repro/internal/udp"
)

// Iface is one configured IP interface.
type Iface struct {
	Port   *simnet.Port
	IP     netaddr.IPv4
	Subnet netaddr.Prefix
}

// Usable reports whether the interface can carry traffic.
func (i *Iface) Usable() bool { return i.Port.Up() }

// Stats counts stack-level events for the experiments.
type Stats struct {
	IPForwarded  uint64
	NoRoute      uint64
	TTLExpired   uint64
	ARPRequests  uint64
	ARPReplies   uint64
	BlackholedTx uint64 // packets that died because the chosen port was down
}

// UDPHandler receives a delivered datagram. The datagram is a borrow:
// dg.Payload aliases the received frame, which the stack returns to the
// frame pool as soon as the handler returns, so a handler must decode or
// copy what it keeps. Under -tags invariants the returned buffer is
// poisoned, and a listener that retained the slice reads 0xDB garbage
// instead of the next packet's bytes.
type UDPHandler func(src, dst netaddr.IPv4, dg udp.Datagram)

// ICMPHandler receives a delivered (non-echo-request) ICMP message. Like a
// UDPHandler it borrows: m.Payload aliases the received frame, which the
// stack returns to the frame pool once every handler has returned.
type ICMPHandler func(src netaddr.IPv4, m icmp.Message)

// Stack is the per-node IP stack. It implements simnet.Handler.
type Stack struct {
	Node *simnet.Node
	FIB  FIB
	TCP  *tcp.Endpoint

	ifaces map[int]*Iface // by port index
	// ifaceList holds the same interfaces in ascending port order. Sweeps
	// that emit frames (the ARP fan-out in transmit) iterate this slice so
	// wire order never depends on map iteration order.
	ifaceList []*Iface
	localIPs  map[netaddr.IPv4]*Iface

	arpTable   map[netaddr.IPv4]arpEntry
	arpPending map[netaddr.IPv4][][]byte // queued frames (see routeOut) awaiting resolution

	// memo holds the forwarding decision for recently routed destinations,
	// direct-mapped by address (memoSlot). A fork starts with it cold.
	memo [memoSlots]memoEntry

	udpHandlers  map[uint16]UDPHandler
	icmpHandlers []ICMPHandler

	// OnPortDown/OnPortUp forward local carrier events to the routing
	// daemons (BGP reacts to them like FRR reacts to netlink link state).
	OnPortDown func(p *simnet.Port)
	OnPortUp   func(p *simnet.Port)

	// OnStart is invoked when the simulation starts (daemons begin
	// dialing peers here).
	OnStart func()

	Stats Stats
	ipID  uint16

	// frames is the owning simulation's frame-buffer pool: TX buffers come
	// from it, and received or dropped buffers go back once dead. A
	// forwarded packet keeps its received buffer; a delivered packet — UDP,
	// TCP or ICMP — is lent to its handlers and recycled when they return.
	frames *framepool.Pool
}

// memoSlots is the size of a stack's next-hop memo. Eight slots hold the
// destinations a fabric router or server routes toward between forwarding
// changes; sixteen were no faster and cost 6 % more heap where every trial
// forks a fabric.
const memoSlots = 8

// memoEntry is a stack's forwarding decision toward one destination, filled
// from IsLocal, FIB.Lookup and the neighbour rule transmit applies, and
// trusted while memoStamp stands still. stamp is 0 on a slot never filled:
// the clock starts at 1.
type memoEntry struct {
	stamp uint64
	// hops are the live next hops of dst's route in installation order,
	// which the flow hash indexes as Lookup's did; empty when no route
	// matches.
	hops  []memoHop
	dst   netaddr.IPv4
	local bool
}

// memoHop is one next hop and the neighbour it resolved to: port and mac
// are where transmit sends a frame toward gw, and port is nil where it
// would not (no ARP entry yet, or a dead egress), so the frame takes
// transmit itself.
type memoHop struct {
	ifc  *Iface
	port *simnet.Port
	gw   netaddr.IPv4
	mac  netaddr.MAC
}

// arpEntry records a resolved neighbor and the interface it answered on —
// necessary when several interfaces share a subnet (a multi-server rack).
type arpEntry struct {
	mac netaddr.MAC
	ifc *Iface
}

// New attaches a fresh stack to the node as its handler.
func New(node *simnet.Node) *Stack {
	s := &Stack{
		Node:        node,
		FIB:         FIB{node: node},
		ifaces:      make(map[int]*Iface),
		localIPs:    make(map[netaddr.IPv4]*Iface),
		arpTable:    make(map[netaddr.IPv4]arpEntry),
		arpPending:  make(map[netaddr.IPv4][][]byte),
		udpHandlers: make(map[uint16]UDPHandler),
		frames:      node.Sim.Frames(),
	}
	s.TCP = tcp.NewEndpoint(node.Sim, node.Rand, s.sendTCPSegment)
	node.Handler = s
	return s
}

// AddIface configures an IP address on a port.
func (s *Stack) AddIface(port *simnet.Port, ip netaddr.IPv4, subnet netaddr.Prefix) *Iface {
	ifc := &Iface{Port: port, IP: ip, Subnet: subnet}
	s.ifaces[port.Index] = ifc
	i := sort.Search(len(s.ifaceList), func(i int) bool {
		return s.ifaceList[i].Port.Index >= port.Index
	})
	s.ifaceList = append(s.ifaceList, nil)
	copy(s.ifaceList[i+1:], s.ifaceList[i:])
	s.ifaceList[i] = ifc
	s.localIPs[ip] = ifc
	// Connected route, like the kernel installs on address assignment.
	s.FIB.Replace(Route{Prefix: subnet, NextHops: []NextHop{{Iface: ifc}}, Proto: ProtoKernel})
	return ifc
}

// Iface returns the interface on a port index, or nil.
func (s *Stack) Iface(index int) *Iface { return s.ifaces[index] }

// IsLocal reports whether ip is one of the stack's addresses.
func (s *Stack) IsLocal(ip netaddr.IPv4) bool { return s.localIPs[ip] != nil }

// AddDefaultRoute points 0.0.0.0/0 at a gateway (used by servers).
func (s *Stack) AddDefaultRoute(via netaddr.IPv4, ifc *Iface) {
	s.FIB.Replace(Route{
		Prefix:   netaddr.Prefix{},
		NextHops: []NextHop{{Via: via, Iface: ifc}},
		Proto:    ProtoStatic, Metric: 100,
	})
}

// ListenUDP registers a datagram handler on a local port.
func (s *Stack) ListenUDP(port uint16, h UDPHandler) { s.udpHandlers[port] = h }

// ListenICMP registers a handler for delivered ICMP messages (echo
// requests are answered by the stack itself and not dispatched).
func (s *Stack) ListenICMP(h ICMPHandler) { s.icmpHandlers = append(s.icmpHandlers, h) }

// SendICMP emits an ICMP message from a local address. The message is
// marshalled straight into the pooled frame that carries it, so m.Payload
// may alias a received frame (an error's quote, an echo's data).
func (s *Stack) SendICMP(src, dst netaddr.IPv4, m icmp.Message) {
	h, frame := s.newIPFrame(src, dst, ipv4.ProtoICMP, ipv4.DefaultTTL, m.Len())
	m.MarshalInto(frame[ethernet.HeaderLen+ipv4.HeaderLen:])
	s.routeOut(h, frame)
}

// SendUDP emits a datagram from a local address. The Ethernet, IPv4, and
// UDP layers are composed into a single pooled buffer, and payload is copied
// into it before SendUDP returns, so callers may reuse one scratch payload
// for every packet.
func (s *Stack) SendUDP(src, dst netaddr.IPv4, srcPort, dstPort uint16, payload []byte) {
	h, frame := s.newIPFrame(src, dst, ipv4.ProtoUDP, ipv4.DefaultTTL, udp.HeaderLen+len(payload))
	dgm := frame[ethernet.HeaderLen+ipv4.HeaderLen:]
	copy(dgm[udp.HeaderLen:], payload)
	dg := udp.Datagram{SrcPort: srcPort, DstPort: dstPort}
	dg.PutHeader(src, dst, dgm)
	s.routeOut(h, frame)
}

// Start implements simnet.Handler.
func (s *Stack) Start() {
	if s.OnStart != nil {
		s.OnStart()
	}
}

// PortDown implements simnet.Handler: local carrier loss.
func (s *Stack) PortDown(p *simnet.Port) {
	if s.OnPortDown != nil {
		s.OnPortDown(p)
	}
}

// PortUp implements simnet.Handler.
func (s *Stack) PortUp(p *simnet.Port) {
	if s.OnPortUp != nil {
		s.OnPortUp(p)
	}
}

// HandleFrame implements simnet.Handler.
func (s *Stack) HandleFrame(p *simnet.Port, frame []byte) {
	f, err := ethernet.Unmarshal(frame)
	if err != nil {
		s.frames.Put(frame) // runt frame: nothing was parsed out of it
		return
	}
	if f.Dst != p.MAC && !f.Dst.IsBroadcast() {
		s.frames.Put(frame) // not for us: dropped unread
		return
	}
	switch f.EtherType {
	case ethernet.TypeARP:
		// ARP packets are fully decoded into value types; the frame is dead
		// once handleARP returns.
		s.handleARP(p, f)
		s.frames.Put(frame)
	case ethernet.TypeIPv4:
		if s.handleIPv4(p, frame, f.Payload) {
			// Errored, expired, or delivered to borrowers that have
			// returned: no alias is left, so the buffer can be recycled.
			s.frames.Put(frame)
		}
	}
}

func (s *Stack) handleARP(p *simnet.Port, f ethernet.Frame) {
	pkt, err := arp.Unmarshal(f.Payload)
	if err != nil {
		return
	}
	ifc := s.ifaces[p.Index]
	if ifc == nil {
		return
	}
	// Learn the sender either way (gratuitous and request learning).
	s.arpTable[pkt.SenderIP] = arpEntry{mac: pkt.SenderMAC, ifc: ifc}
	s.Node.ForwardingChanged()
	s.flushARPPending(pkt.SenderIP)
	if pkt.Op != arp.OpRequest {
		return
	}
	answer := pkt.TargetIP == ifc.IP
	if !answer && !s.IsLocal(pkt.TargetIP) && pkt.TargetIP != pkt.SenderIP {
		// Proxy-ARP: answer for a target we route toward a *different*
		// interface, so hosts on separate ports of a shared subnet (a
		// multi-server rack behind an L3 ToR) can reach each other
		// through us.
		if r, ok := s.FIB.Lookup(pkt.TargetIP); ok && len(r.NextHops) > 0 && r.NextHops[0].Iface != ifc {
			answer = true
		}
	}
	if answer {
		s.Stats.ARPReplies++
		reply := arp.Packet{
			Op:        arp.OpReply,
			SenderMAC: p.MAC, SenderIP: pkt.TargetIP,
			TargetMAC: pkt.SenderMAC, TargetIP: pkt.SenderIP,
		}
		out := ethernet.Frame{Dst: pkt.SenderMAC, Src: p.MAC, EtherType: ethernet.TypeARP, Payload: reply.Marshal()}
		p.Send(out.Marshal())
	}
}

// handleIPv4 consumes a received IPv4 packet: payload is frame's Ethernet
// payload. It reports whether the frame is spent — no live alias remains, so
// the caller may recycle the buffer. Only a forwarded packet returns false:
// the buffer itself travels on (routeOut owns it from here).
func (s *Stack) handleIPv4(p *simnet.Port, frame, payload []byte) bool {
	pkt, err := ipv4.Unmarshal(payload)
	if err != nil {
		return true
	}
	if s.isLocal(pkt.Header.Dst) {
		s.deliver(pkt, payload)
		return true
	}
	// Forward in place: the handler owns a delivered frame, so the TTL is
	// decremented where the packet lies and the same buffer is re-sent, its
	// old Ethernet header serving as the header room transmit fills.
	if err := ipv4.Forward(payload); err != nil {
		s.Stats.TTLExpired++
		// Tell the source, like a router does (traceroute depends on
		// this); the reply originates from the receiving interface. Forward
		// left the expired packet untouched, and the ICMP quote copies out
		// of it before we return.
		if ifc := s.ifaces[p.Index]; ifc != nil && !pkt.Header.Src.IsZero() {
			s.SendICMP(ifc.IP, pkt.Header.Src, icmp.Message{Type: icmp.TypeTimeExceeded, Payload: icmp.Quote(payload)})
		}
		return true
	}
	s.Stats.IPForwarded++
	s.routeOut(pkt.Header, frame)
	return false
}

// deliver consumes a locally destined packet. wire holds the original
// wire-format bytes so error replies (port-unreachable) can quote them. The
// frame behind wire is spent when deliver returns: the UDP and ICMP
// handlers and TCP's OnData borrow what they are handed only until they
// return, a packet that does not parse leaves nothing behind, and every
// reply copies what it quotes into its own frame.
func (s *Stack) deliver(pkt ipv4.Packet, wire []byte) {
	switch pkt.Header.Protocol {
	case ipv4.ProtoTCP:
		s.TCP.Input(pkt.Header.Src, pkt.Header.Dst, pkt.Payload)
	case ipv4.ProtoUDP:
		dg, err := udp.Unmarshal(pkt.Header.Src, pkt.Header.Dst, pkt.Payload)
		if err != nil {
			return
		}
		if h := s.udpHandlers[dg.DstPort]; h != nil {
			h(pkt.Header.Src, pkt.Header.Dst, dg)
		} else if !pkt.Header.Src.IsZero() {
			// Closed port: answer port-unreachable like a real host. A UDP
			// traceroute probe reads this as "destination reached".
			s.SendICMP(pkt.Header.Dst, pkt.Header.Src, icmp.Message{Type: icmp.TypeDestUnreach, Code: icmp.CodePortUnreach, Payload: icmp.Quote(wire)})
		}
	case ipv4.ProtoICMP:
		m, err := icmp.Unmarshal(pkt.Payload)
		if err != nil {
			return
		}
		if m.Type == icmp.TypeEchoRequest {
			s.SendICMP(pkt.Header.Dst, pkt.Header.Src, icmp.EchoReplyTo(m))
			return
		}
		for _, h := range s.icmpHandlers {
			h(pkt.Header.Src, m)
		}
	}
}

// sendTCPSegment is the TCP endpoint's output path.
func (s *Stack) sendTCPSegment(src, dst netaddr.IPv4, segment []byte) {
	s.SendIPTTL(src, dst, ipv4.ProtoTCP, ipv4.DefaultTTL, segment)
}

// SendIPTTL emits a locally originated IP packet with an explicit TTL
// (traceroute probes).
func (s *Stack) SendIPTTL(src, dst netaddr.IPv4, proto, ttl byte, payload []byte) {
	h, frame := s.newIPFrame(src, dst, proto, ttl, len(payload))
	copy(frame[ethernet.HeaderLen+ipv4.HeaderLen:], payload)
	s.routeOut(h, frame)
}

// SendIPRaw emits a caller-built wire-format IPv4 packet through the normal
// FIB route-out path. Unlike SendIPTTL the caller controls every header
// field — the path tracer encodes its probe slot in the IP ID, which the
// stack's own ipID counter would clobber.
func (s *Stack) SendIPRaw(ipWire []byte) {
	pkt, err := ipv4.Unmarshal(ipWire)
	if err != nil {
		return
	}
	frame := s.frames.Get(ethernet.HeaderLen + len(ipWire))
	copy(frame[ethernet.HeaderLen:], ipWire)
	s.routeOut(pkt.Header, frame)
}

// newIPFrame draws the single buffer carrying a locally originated packet —
// Ethernet header room, IPv4 header, transportLen transport bytes — and
// fills in the IP header. transmit writes the Ethernet header in place once
// the next hop's MAC is known, so the whole TX path costs this one Get.
func (s *Stack) newIPFrame(src, dst netaddr.IPv4, proto, ttl byte, transportLen int) (ipv4.Header, []byte) {
	s.ipID++
	h := ipv4.Header{ID: s.ipID, TTL: ttl, Protocol: proto, Src: src, Dst: dst}
	// Drawn from the frame pool: in steady state the TX path allocates
	// nothing at all (DESIGN.md §7, §13).
	frame := s.frames.Get(ethernet.HeaderLen + ipv4.HeaderLen + transportLen)
	h.PutHeader(frame[ethernet.HeaderLen:], transportLen)
	return h, frame
}

// routeOut forwards an outbound frame buffer: the wire-format IP packet
// described by h starts at frame[ethernet.HeaderLen:], and the Ethernet
// header room in front is filled on the way out.
func (s *Stack) routeOut(h ipv4.Header, frame []byte) {
	// The flow hash picks among the live next hops, and is computed only
	// when there is a group to hash over. The harness's path walk makes the
	// same choice from the same Lookup: harness.Fabric.hopCandidates keeps
	// the live next hops' ports and indexes them by the same hash.
	hops := s.route(h.Dst).hops
	if len(hops) == 0 {
		s.Stats.NoRoute++
		s.frames.Put(frame) // the packet dies here; reclaim its buffer
		return
	}
	nh := &hops[0]
	if len(hops) > 1 {
		nh = &hops[int(flowKeyOf(h, frame[ethernet.HeaderLen:]).Hash())%len(hops)]
	}
	if nh.port == nil {
		s.transmit(nh.ifc, nh.gw, frame)
		return
	}
	ethernet.PutHeader(frame, nh.mac, nh.port.MAC, ethernet.TypeIPv4)
	nh.port.Send(frame)
}

// memoSlot is the memo slot of dst: a multiplicative hash, since the
// addresses a fabric routes toward differ in their middle bytes.
func memoSlot(dst netaddr.IPv4) uint32 { return dst.Uint32() * 0x9e3779b1 >> 29 }

// memoStamp is what an entry filled now is stamped with: the node's
// forwarding-state clock, which FIB edits (AddIface included, through its
// connected route), carrier changes and ARP writes move.
func (s *Stack) memoStamp() uint64 { return s.Node.ForwardingStamp() }

// cached returns the memo entry of dst if its slot holds dst at the current
// stamp, else nil. Under -tags invariants an entry returned is filled again
// and compared.
func (s *Stack) cached(dst netaddr.IPv4) *memoEntry {
	e := &s.memo[memoSlot(dst)]
	if e.stamp != s.memoStamp() || e.dst != dst {
		return nil
	}
	if invariant.Enabled && !s.memoHolds(e) {
		invariant.Assertf(false, "ipstack: %s's memoised decision toward %s is %+v, its tables say otherwise", s.Node.Name, dst, *e)
	}
	return e
}

// route returns the memo entry of dst, filled anew unless it is current.
func (s *Stack) route(dst netaddr.IPv4) *memoEntry {
	if e := s.cached(dst); e != nil {
		return e
	}
	e := &s.memo[memoSlot(dst)]
	*e = memoEntry{stamp: s.memoStamp(), hops: e.hops[:0], dst: dst, local: s.IsLocal(dst)}
	r, _ := s.FIB.Lookup(dst)
	for _, nh := range r.NextHops {
		e.hops = append(e.hops, s.resolve(nh, dst))
	}
	return e
}

// isLocal is IsLocal, read from the memo where dst's entry is current. A
// miss fills nothing: a packet delivered here needs no next hop, and on a
// router with more neighbours than slots it would evict one that does.
func (s *Stack) isLocal(dst netaddr.IPv4) bool {
	if e := s.cached(dst); e != nil {
		return e.local
	}
	return s.IsLocal(dst)
}

// memoHolds reports whether e is what route would fill now.
func (s *Stack) memoHolds(e *memoEntry) bool {
	r, _ := s.FIB.Lookup(e.dst)
	if e.local != s.IsLocal(e.dst) || len(e.hops) != len(r.NextHops) {
		return false
	}
	for i, nh := range r.NextHops {
		if e.hops[i] != s.resolve(nh, e.dst) {
			return false
		}
	}
	return true
}

// resolve pairs the next hop nh toward dst with its neighbour.
func (s *Stack) resolve(nh NextHop, dst netaddr.IPv4) memoHop {
	gw := nh.Via
	if gw.IsZero() {
		gw = dst // directly connected: resolve the final destination
	}
	port, mac, _ := s.neighbour(nh.Iface, gw)
	return memoHop{ifc: nh.Iface, port: port, gw: gw, mac: mac}
}

// flowKeyOf extracts the ECMP 5-tuple. Port numbers live at the same offset
// in TCP and UDP headers.
func flowKeyOf(h ipv4.Header, wire []byte) FlowKey {
	k := FlowKey{Src: h.Src, Dst: h.Dst, Proto: h.Protocol}
	tl := wire[ipv4.HeaderLen:]
	if (h.Protocol == ipv4.ProtoTCP || h.Protocol == ipv4.ProtoUDP) && len(tl) >= 4 {
		k.SrcPort = uint16(tl[0])<<8 | uint16(tl[1])
		k.DstPort = uint16(tl[2])<<8 | uint16(tl[3])
	}
	return k
}

// neighbour is where a frame to the next hop nextHop via ifc leaves: the
// egress port and destination MAC. The egress is the interface nextHop's ARP
// entry was learnt on while it is up, else ifc. port is nil when nextHop has
// no ARP entry (known false) or the egress is down.
func (s *Stack) neighbour(ifc *Iface, nextHop netaddr.IPv4) (port *simnet.Port, mac netaddr.MAC, known bool) {
	e, ok := s.arpTable[nextHop]
	if !ok {
		return nil, netaddr.MAC{}, false
	}
	out := e.ifc
	if out == nil || !out.Usable() {
		out = ifc
	}
	if !out.Usable() {
		return nil, netaddr.MAC{}, true
	}
	return out.Port, e.mac, true
}

func (s *Stack) transmit(ifc *Iface, nextHop netaddr.IPv4, frame []byte) {
	port, mac, known := s.neighbour(ifc, nextHop)
	if !known {
		// Queue behind an ARP request on every interface whose subnet
		// covers the target (a rack subnet can span several ports). The
		// queue owns the frame until flushARPPending sends it.
		s.arpPending[nextHop] = append(s.arpPending[nextHop], frame)
		asked := false
		for _, cand := range s.ifaceList {
			if cand.Subnet.Contains(nextHop) && cand.Usable() {
				s.sendARPRequest(cand, nextHop)
				asked = true
			}
		}
		if !asked && ifc.Usable() {
			s.sendARPRequest(ifc, nextHop)
		}
		return
	}
	if port == nil {
		s.Stats.BlackholedTx++
		s.frames.Put(frame)
		return
	}
	ethernet.PutHeader(frame, mac, port.MAC, ethernet.TypeIPv4)
	port.Send(frame)
}

func (s *Stack) sendARPRequest(ifc *Iface, target netaddr.IPv4) {
	s.Stats.ARPRequests++
	req := arp.Packet{Op: arp.OpRequest, SenderMAC: ifc.Port.MAC, SenderIP: ifc.IP, TargetIP: target}
	f := ethernet.Frame{Dst: netaddr.Broadcast, Src: ifc.Port.MAC, EtherType: ethernet.TypeARP, Payload: req.Marshal()}
	ifc.Port.Send(f.Marshal())
}

func (s *Stack) flushARPPending(ip netaddr.IPv4) {
	pending := s.arpPending[ip]
	if pending == nil {
		return
	}
	delete(s.arpPending, ip)
	e := s.arpTable[ip]
	if e.ifc == nil || !e.ifc.Usable() {
		for _, frame := range pending {
			s.Stats.BlackholedTx++
			s.frames.Put(frame) // resolved onto a dead interface: the queue dies with it
		}
		return
	}
	for _, frame := range pending {
		ethernet.PutHeader(frame, e.mac, e.ifc.Port.MAC, ethernet.TypeIPv4)
		e.ifc.Port.Send(frame)
	}
}

// String identifies the stack in logs.
func (s *Stack) String() string { return fmt.Sprintf("ipstack(%s)", s.Node.Name) }

// Fork copies the stack for a fork of its simulation — interfaces, FIB,
// ARP table, counters, TCP endpoint — into into, the stack an earlier fork
// attached to the node's copy, or a new one, and attaches the copy to the
// node's copy. A daemon's copy finds its interfaces on the copy by port
// index (Iface). UDP and ICMP listeners and the carrier and start hooks
// belong to whoever installed them, which installs them again on the copy;
// Finish fails if one is missing. A snapshot holds only what a bring-up
// leaves settled, so Finish also fails if a frame awaits ARP resolution.
func (s *Stack) Fork(fk *simnet.Forker, into *Stack) *Stack {
	node := fk.Node(s.Node)
	ns := into
	if ns == nil {
		ns = &Stack{}
	}
	old := *ns
	*ns = Stack{
		Node:         node,
		ifaces:       simnet.EmptyMap(old.ifaces, len(s.ifaces)),
		ifaceList:    old.ifaceList[:0],
		localIPs:     simnet.EmptyMap(old.localIPs, len(s.localIPs)),
		arpTable:     simnet.EmptyMap(old.arpTable, len(s.arpTable)),
		arpPending:   simnet.EmptyMap(old.arpPending, 0),
		udpHandlers:  simnet.EmptyMap(old.udpHandlers, 0),
		icmpHandlers: old.icmpHandlers[:0],
		Stats:        s.Stats,
		ipID:         s.ipID,
		frames:       node.Sim.Frames(),
	}
	clear(old.icmpHandlers)
	for i := range ns.memo {
		ns.memo[i].hops = old.memo[i].hops[:0]
	}
	if cap(ns.ifaceList) < len(s.ifaceList) {
		ns.ifaceList = make([]*Iface, 0, len(s.ifaceList))
	}
	for i, ifc := range s.ifaceList {
		nifc := simnet.Reused(old.ifaceList, i)
		*nifc = Iface{Port: fk.Port(ifc.Port), IP: ifc.IP, Subnet: ifc.Subnet}
		ns.ifaceList = append(ns.ifaceList, nifc)
		ns.ifaces[ifc.Port.Index] = nifc
	}
	simnet.ClearTail(ns.ifaceList)
	iface := func(ifc *Iface) *Iface {
		if ifc == nil {
			return nil
		}
		return ns.Iface(ifc.Port.Index)
	}
	//simlint:deterministic map copy
	for ip, ifc := range s.localIPs {
		ns.localIPs[ip] = iface(ifc)
	}
	//simlint:deterministic map copy
	for ip, e := range s.arpTable {
		ns.arpTable[ip] = arpEntry{mac: e.mac, ifc: iface(e.ifc)}
	}
	ns.FIB = s.FIB.fork(iface, old.FIB)
	ns.FIB.node = node
	tcpInto := old.TCP
	if tcpInto == nil {
		tcpInto = tcp.NewEndpoint(node.Sim, node.Rand, ns.sendTCPSegment)
	}
	ns.TCP = s.TCP.Fork(fk, tcpInto)
	node.Handler = ns
	fk.Check(checkFork, s, ns)
	return ns
}

// checkFork is Fork's deferred check of the copy ns of s: nothing held for
// ARP, every listener and hook re-installed.
func checkFork(src, dst any) error {
	s, ns := src.(*Stack), dst.(*Stack)
	if len(s.arpPending) > 0 {
		return fmt.Errorf("ipstack %s: %d address(es) hold frames awaiting ARP resolution, which a fork does not copy", s.Node.Name, len(s.arpPending))
	}
	missing := len(s.icmpHandlers) - len(ns.icmpHandlers)
	//simlint:deterministic counts only
	for port := range s.udpHandlers {
		if ns.udpHandlers[port] == nil {
			missing++
		}
	}
	for _, hook := range [][2]bool{
		{s.OnPortDown != nil, ns.OnPortDown != nil},
		{s.OnPortUp != nil, ns.OnPortUp != nil},
		{s.OnStart != nil, ns.OnStart != nil},
	} {
		if hook[0] != hook[1] {
			missing++
		}
	}
	if missing != 0 || len(ns.udpHandlers) != len(s.udpHandlers) {
		return fmt.Errorf("ipstack %s: fork lacks %d listener or hook(s) of the source", s.Node.Name, missing)
	}
	return nil
}
