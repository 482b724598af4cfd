package mrmtp

import (
	"repro/internal/flowhash"
	"repro/internal/icmp"
	"repro/internal/ipv4"
	"repro/internal/netaddr"
	"repro/internal/udp"
)

// This file is the MR-MTP half of the in-fabric observability plane
// (DESIGN.md §12). The fabric is IP-opaque — spines never parse past the
// encapsulation header — so ordinary traceroute shows the whole fabric as a
// single hop. Path tracing instead steps the *data-plane* TTL: a probe is a
// server-format IP packet injected with a small encapsulation TTL, the
// spine where it expires answers time-exceeded from its configured
// Identity, and the destination ToR answers port-unreachable from its
// gateway address. The replies ride the fabric like any other packet.

// ICMPListener receives ICMP messages addressed to the ToR's gateway IP. It
// borrows: m.Payload aliases the received frame, which the router returns
// to the frame pool once every listener has returned.
type ICMPListener func(src netaddr.IPv4, m icmp.Message)

// ListenICMP registers a listener for gateway-addressed ICMP (path-trace
// replies). Echo requests are answered by the ToR itself and not delivered.
func (r *Router) ListenICMP(h ICMPListener) {
	r.icmpListeners = append(r.icmpListeners, h)
}

// InjectData encapsulates a caller-built wire-format IP packet at this ToR
// with an explicit encapsulation TTL and forwards it into the fabric. This
// is the probe entry point: ttl selects the hop under test (1 = first
// spine), and the caller controls every inner header field, in particular
// the IP ID a reply quotes back and the UDP source port the fabric hashes.
// ipWire is borrowed — it is copied into the fabric frame — so a prober may
// re-inject one buffer.
func (r *Router) InjectData(ipWire []byte, ttl byte) {
	pkt, err := ipv4.Unmarshal(ipWire)
	if err != nil || r.Cfg.Tier != 1 {
		return
	}
	dstRoot := pkt.Header.Dst[2]
	r.forwardData(r.encapFrame(dstRoot, ttl, ipWire), dstRoot, flowhash.FromIPPacket(ipWire))
}

// NextDataHop returns the port forwardData would choose for a packet to
// dstRoot carrying flow key — the same decision (nextDataAdj), without
// sending anything. ok is false when forwardData would drop. Path
// enumeration composes this across devices to predict a probe's hop
// sequence.
func (r *Router) NextDataHop(dstRoot byte, key flowhash.Key) (port int, ok bool) {
	adj := r.nextDataAdj(dstRoot, key)
	if adj == nil {
		return 0, false
	}
	return adj.port.Index, true
}

// DataCandidates appends the egress ports of dataCandidates(dstRoot), in the
// order nextDataAdj's hash indexes them: what a caller keeps to make the
// same pick without the tables, for as long as Version and the simulator's
// port flips stand still.
func (r *Router) DataCandidates(dstRoot byte, ports []uint16) []uint16 {
	for _, adj := range r.dataCandidates(dstRoot) {
		ports = append(ports, uint16(adj.port.Index))
	}
	return ports
}

// handleLocal consumes a fabric-delivered IP packet addressed to the ToR's
// own gateway IP: echo requests are answered, unclaimed UDP earns
// port-unreachable (the "probe reached its destination" signal), and other
// ICMP — the trace replies — goes to the registered listeners. A reply goes
// from the gateway address toward the root the source address derives, as
// ingressIP derives a destination's (paper §III.A).
func (r *Router) handleLocal(ipWire []byte, pkt ipv4.Packet) {
	switch pkt.Header.Protocol {
	case ipv4.ProtoICMP:
		m, err := icmp.Unmarshal(pkt.Payload)
		if err != nil {
			return
		}
		if m.Type == icmp.TypeEchoRequest {
			r.originate(r.GatewayIP(), pkt.Header.Src, pkt.Header.Src[2], icmp.EchoReplyTo(m))
			return
		}
		for _, h := range r.icmpListeners {
			h(pkt.Header.Src, m)
		}
	case ipv4.ProtoUDP:
		if _, err := udp.Unmarshal(pkt.Header.Src, pkt.Header.Dst, pkt.Payload); err != nil {
			return
		}
		if !pkt.Header.Src.IsZero() {
			r.originate(r.GatewayIP(), pkt.Header.Src, pkt.Header.Src[2], icmp.PortUnreachable(ipWire))
		}
	}
}

// sendTraceReply answers an encapsulation-TTL expiry with time-exceeded
// from the device's Identity, routed back toward the probe's source root.
// Only inner UDP and echo-request packets qualify: replying to an ICMP
// error could chain errors into a loop, and a zero Identity (a fabric not
// configured for tracing) keeps the silent-drop behavior.
func (r *Router) sendTraceReply(h DataHeader, ipWire []byte) {
	if r.Cfg.Identity.IsZero() {
		return
	}
	pkt, err := ipv4.Unmarshal(ipWire)
	if err != nil || pkt.Header.Src.IsZero() {
		return
	}
	switch pkt.Header.Protocol {
	case ipv4.ProtoUDP:
	case ipv4.ProtoICMP:
		if len(pkt.Payload) == 0 || pkt.Payload[0] != icmp.TypeEchoRequest {
			return
		}
	default:
		return
	}
	r.Stats.TraceReplies++
	r.originate(r.Cfg.Identity, pkt.Header.Src, h.SrcRoot, icmp.TimeExceeded(ipWire))
}
