package mrmtp

import (
	"repro/internal/arp"
	"repro/internal/ethernet"
	"repro/internal/flowhash"
	"repro/internal/icmp"
	"repro/internal/ipv4"
	"repro/internal/netaddr"
	"repro/internal/simnet"
)

// This file is MR-MTP's data plane (paper §III.D): ToRs encapsulate server
// IP packets behind a (src VID, dst VID) header and the fabric forwards by
// VID table — down toward a known root, or up by hashed default. The ToR is
// the only device that ever parses IP, and the rack side keeps ordinary
// IP/ARP semantics so servers need no changes (backward compatibility).

// GatewayIP returns the address the ToR answers ARP for on the rack side.
func (r *Router) GatewayIP() netaddr.IPv4 { return r.Cfg.RackSubnet.Host(254) }

// handleRackFrame processes server-side traffic at a ToR.
func (r *Router) handleRackFrame(p *simnet.Port, f ethernet.Frame) {
	switch f.EtherType {
	case ethernet.TypeARP:
		r.handleRackARP(p, f)
	case ethernet.TypeIPv4:
		r.ingressIP(f.Payload)
	}
}

func (r *Router) handleRackARP(p *simnet.Port, f ethernet.Frame) {
	pkt, err := arp.Unmarshal(f.Payload)
	if err != nil {
		return
	}
	// Learn the sender either way.
	r.arpCache[pkt.SenderIP] = arpEntry{mac: pkt.SenderMAC, port: p.Index}
	r.flushRackPending(pkt.SenderIP)
	if pkt.Op != arp.OpRequest {
		return
	}
	// Answer for the gateway, and proxy-answer for other rack addresses:
	// servers hang off separate ToR ports, so sibling traffic flows
	// through the ToR's L3 switching path (deliverToRack).
	answer := pkt.TargetIP == r.GatewayIP() ||
		(r.Cfg.RackSubnet.Contains(pkt.TargetIP) && pkt.TargetIP != pkt.SenderIP)
	if answer {
		reply := arp.Packet{
			Op:        arp.OpReply,
			SenderMAC: p.MAC, SenderIP: pkt.TargetIP,
			TargetMAC: pkt.SenderMAC, TargetIP: pkt.SenderIP,
		}
		out := ethernet.Frame{Dst: pkt.SenderMAC, Src: p.MAC, EtherType: ethernet.TypeARP, Payload: reply.Marshal()}
		p.Send(out.Marshal())
	}
}

// ingressIP handles an IP packet entering the fabric from a server.
func (r *Router) ingressIP(ipWire []byte) {
	pkt, err := ipv4.Unmarshal(ipWire)
	if err != nil {
		return
	}
	dst := pkt.Header.Dst
	if r.Cfg.RackSubnet.Contains(dst) {
		// Intra-rack: stay in IP world.
		r.deliverToRack(ipWire, dst)
		return
	}
	// The entire fabric is one routed hop from IP's point of view: the
	// ingress ToR decrements the TTL once; spines never touch the inner
	// packet. An expired TTL gets the standard router treatment —
	// time-exceeded from the rack gateway address — which is why a
	// traceroute across MR-MTP shows a single hop (cf. the per-router
	// hops of the BGP fabric).
	//
	// The TTL decrement mutates the received frame in place: ownership of
	// a delivered frame passes to the handler, Forward leaves the buffer
	// untouched on the expiry path (TimeExceeded quotes the original
	// bytes), and encapFrame copies the packet into the fabric frame.
	if err := ipv4.Forward(ipWire); err != nil {
		r.Stats.DataDropped++
		r.originate(r.GatewayIP(), pkt.Header.Src, pkt.Header.Src[2], icmp.TimeExceeded(ipWire))
		return
	}
	// Paper §III.D: derive the destination ToR VID from the destination
	// IP address with the §III.A algorithm.
	dstRoot := byte(dst[2])
	r.forwardData(r.encapFrame(dstRoot, DataTTL, ipWire), dstRoot, flowhash.FromIPPacket(ipWire))
}

// encapFrame composes a whole fabric frame in one pool buffer: Ethernet
// header room (sendFrame fills it once the egress port is chosen), the
// 4-byte MR-MTP data header sourced from this ToR, and a copy of the raw IP
// packet, which stays the caller's.
func (r *Router) encapFrame(dstRoot, ttl byte, ipPacket []byte) []byte {
	frame := r.frames.Get(ethernet.HeaderLen + DataHeaderLen + len(ipPacket))
	b := frame[ethernet.HeaderLen:]
	b[0] = TypeData
	b[1] = ttl
	b[2] = r.rootVID
	b[3] = dstRoot
	copy(b[DataHeaderLen:], ipPacket)
	return frame
}

// handleData forwards (or delivers) an encapsulated packet arriving on a
// fabric port: payload is raw's Ethernet payload. It reports whether the
// delivered frame is spent — every byte the router needed has been copied
// out, so the caller may recycle the buffer. Only transit returns false,
// because the buffer itself travels on; the ICMP listeners of a
// gateway-addressed packet borrow it only until they return, and every
// reply copies what it quotes.
func (r *Router) handleData(raw, payload []byte) bool {
	h, ipWire, err := ParseData(payload)
	if err != nil {
		r.Stats.DataDropped++
		return true
	}
	if r.Cfg.Tier == 1 && h.DstRoot == r.rootVID {
		// Destination ToR: de-encapsulate and hand the IP packet to the
		// rack (paper §III.D final step).
		pkt, err := ipv4.Unmarshal(ipWire)
		if err != nil {
			r.Stats.DataDropped++
			return true
		}
		r.Stats.DataDelivered++
		if pkt.Header.Dst == r.GatewayIP() {
			// Addressed to the ToR itself: trace probes and their replies.
			r.handleLocal(ipWire, pkt)
			return true
		}
		// deliverToRack copies ipWire (into the rack frame or the ARP
		// pending queue) before returning.
		r.deliverToRack(ipWire, pkt.Header.Dst)
		return true
	}
	if h.TTL <= 1 {
		r.Stats.DataDropped++
		// Expired probes earn a time-exceeded reply, like an IP router
		// (path tracing depends on it); other expiries stay silent drops.
		r.sendTraceReply(h, ipWire)
		return true
	}
	// Transit in place: the delivered frame is ours, so the encapsulation
	// TTL is decremented where it lies and the same buffer is sent on.
	payload[1] = h.TTL - 1
	r.forwardData(raw, h.DstRoot, flowhash.FromIPPacket(ipWire))
	return false
}

// forwardData routes an encapsulated packet to the adjacency nextDataAdj
// picks. frame is a whole fabric frame (Ethernet header room + MR-MTP data
// payload) that forwardData takes ownership of: it is sent, or Put on the
// drop path.
func (r *Router) forwardData(frame []byte, dstRoot byte, key flowhash.Key) {
	adj := r.nextDataAdj(dstRoot, key)
	if adj == nil {
		r.Stats.DataDropped++
		r.frames.Put(frame) // no route: the packet dies here
		return
	}
	r.Stats.DataForwarded++
	r.sendFrame(adj, frame)
}

// nextDataAdj is the data-plane forwarding decision, the one forwardData
// sends on and NextDataHop reports: the flow's hash picks among
// dataCandidates. It returns nil where the packet dies.
func (r *Router) nextDataAdj(dstRoot byte, key flowhash.Key) *adjacency {
	switch cands := r.dataCandidates(dstRoot); len(cands) {
	case 0:
		return nil
	case 1:
		return cands[0] // any hash modulo 1
	default:
		return cands[int(key.Hash())%len(cands)]
	}
}

// dataCandidates lists, in the order the hash indexes them, the adjacencies a
// packet to dstRoot may leave on: the one that leads down the tree when the
// VID table knows the root, otherwise the uplinks open to it in port order;
// none where the packet dies. reachable reads the same list, so a root with
// none (a ToR's own aside) is one this device announces LOST. It reads the
// VID table and downstream (addEntry, dropVia), every adjacency's state
// (adjacencyUp, neighborDown), unreachable marks (processStaged,
// neighborDown) and neighborTier (learnTier) — each of those writers calls
// Node.ForwardingChanged — and its own ports' carrier, which Port.Fail and
// Port.Restore record on the same clock. The result is the router's scratch,
// valid until the next call.
func (r *Router) dataCandidates(dstRoot byte) []*adjacency {
	eligible := r.eligScratch[:0]
	// Downward: a VID entry's acquisition port points at the root.
	for _, e := range r.held(dstRoot) {
		if adj := r.adj(e.port); adj != nil && adj.state == adjUp && adj.port.Up() {
			r.eligScratch = append(eligible, adj)
			return r.eligScratch
		}
	}
	if r.downstream.has(dstRoot) || (r.Cfg.Tier == 1 && dstRoot == r.rootVID) {
		return nil
	}
	// Upward: hash across live uplinks not marked unreachable for the
	// destination root (§III.C load balancing). A DefaultRoot mark means
	// the uplink's device withdrew its entire up-default, so it is out
	// for every root it cannot name.
	for _, adj := range r.uplinks() {
		if !adj.unreachable.has(dstRoot) && !adj.unreachable.has(DefaultRoot) {
			eligible = append(eligible, adj)
		}
	}
	r.eligScratch = eligible
	return eligible
}

// originate sends an ICMP message the router builds itself, from src to
// dst: straight to the rack when dst sits behind this ToR, encapsulated into
// the fabric toward root otherwise. Only a ToR has a rack; a spine's zero
// RackSubnet would contain every address.
func (r *Router) originate(src, dst netaddr.IPv4, root byte, msg icmp.Message) {
	pkt := ipv4.Packet{
		Header:  ipv4.Header{TTL: ipv4.DefaultTTL, Protocol: ipv4.ProtoICMP, Src: src, Dst: dst},
		Payload: msg.Marshal(),
	}
	wire := pkt.Marshal()
	if r.Cfg.Tier == 1 && r.Cfg.RackSubnet.Contains(dst) {
		r.deliverToRack(wire, dst)
		return
	}
	r.forwardData(r.encapFrame(root, DataTTL, wire), root, flowhash.FromIPPacket(wire))
}

// deliverToRack sends an IP packet to a server behind this ToR, resolving
// the server's MAC on demand. ipWire is copied into a pooled rack frame
// before deliverToRack returns, so the caller keeps its buffer.
func (r *Router) deliverToRack(ipWire []byte, dst netaddr.IPv4) {
	frame := r.newFrame(ipWire)
	if e, ok := r.arpCache[dst]; ok {
		r.sendToRack(e, frame)
		return
	}
	// ARP miss: ownership moves to arpPending until flushRackPending hands
	// the frame off.
	r.arpPending[dst] = append(r.arpPending[dst], frame)
	for _, p := range r.Node.Ports[1:] {
		if !r.isServerPort(p.Index) {
			continue
		}
		req := arp.Packet{Op: arp.OpRequest, SenderMAC: p.MAC, SenderIP: r.GatewayIP(), TargetIP: dst}
		f := ethernet.Frame{Dst: netaddr.Broadcast, Src: p.MAC, EtherType: ethernet.TypeARP, Payload: req.Marshal()}
		p.Send(f.Marshal())
	}
}

func (r *Router) flushRackPending(ip netaddr.IPv4) {
	pending := r.arpPending[ip]
	if pending == nil {
		return
	}
	delete(r.arpPending, ip)
	e := r.arpCache[ip]
	for _, frame := range pending {
		r.sendToRack(e, frame)
	}
}

// sendToRack fills the Ethernet header of a composed rack frame (header
// room + IP packet) for a resolved server and sends it.
func (r *Router) sendToRack(e arpEntry, frame []byte) {
	port := r.Node.Port(e.port)
	ethernet.PutHeader(frame, e.mac, port.MAC, ethernet.TypeIPv4)
	port.Send(frame)
}
