package ipstack

import (
	"testing"
	"time"

	"repro/internal/icmp"
	"repro/internal/ipv4"
	"repro/internal/netaddr"
	"repro/internal/udp"
)

// probeWire builds the wire-format IP+UDP probe a path tracer emits: the
// caller controls the IP ID (probe slot) and TTL.
func probeWire(src, dst netaddr.IPv4, id uint16, ttl byte, srcPort, dstPort uint16) []byte {
	b := make([]byte, ipv4.HeaderLen+udp.HeaderLen)
	h := ipv4.Header{ID: id, TTL: ttl, Protocol: ipv4.ProtoUDP, Src: src, Dst: dst}
	h.PutHeader(b, udp.HeaderLen)
	dg := udp.Datagram{SrcPort: srcPort, DstPort: dstPort}
	dg.PutHeader(src, dst, b[ipv4.HeaderLen:])
	return b
}

// TestSendIPRawPreservesID pins the property the tracer depends on: a raw
// probe crosses the router with its caller-chosen IP ID intact, and the
// closed destination port answers port-unreachable quoting that ID.
func TestSendIPRawPreservesID(t *testing.T) {
	l := newLAN(t)
	var got []icmp.Message
	l.h1.ListenICMP(func(src netaddr.IPv4, m icmp.Message) { got = append(got, kept(m)) })
	wire := probeWire(l.sub1.Host(1), l.sub2.Host(1), 0xbeef, ipv4.DefaultTTL, 33501, 33434)
	l.h1.SendIPRaw(wire)
	l.sim.RunFor(10 * time.Millisecond)
	if len(got) != 1 {
		t.Fatalf("h1 got %d ICMP messages, want 1 port-unreachable", len(got))
	}
	m := got[0]
	if m.Type != icmp.TypeDestUnreach || m.Code != icmp.CodePortUnreach {
		t.Fatalf("reply = type %d code %d, want dest-unreach/port", m.Type, m.Code)
	}
	ipID, srcPort, dstPort, ok := icmp.QuotedUDPProbe(m)
	if !ok || ipID != 0xbeef || srcPort != 33501 || dstPort != 33434 {
		t.Errorf("quoted probe = %#x,%d,%d,%v", ipID, srcPort, dstPort, ok)
	}
}

// TestSendIPRawTTLExpiry: a TTL-1 raw probe dies at the router, which
// answers time-exceeded from its receiving interface, quoting the probe.
func TestSendIPRawTTLExpiry(t *testing.T) {
	l := newLAN(t)
	var gotSrc netaddr.IPv4
	var got []icmp.Message
	l.h1.ListenICMP(func(src netaddr.IPv4, m icmp.Message) { gotSrc, got = src, append(got, kept(m)) })
	wire := probeWire(l.sub1.Host(1), l.sub2.Host(1), 7, 1, 33502, 33434)
	l.h1.SendIPRaw(wire)
	l.sim.RunFor(10 * time.Millisecond)
	if len(got) != 1 || got[0].Type != icmp.TypeTimeExceeded {
		t.Fatalf("h1 got %v, want one time-exceeded", got)
	}
	if gotSrc != l.sub1.Host(254) {
		t.Errorf("time-exceeded from %s, want router iface %s", gotSrc, l.sub1.Host(254))
	}
	if ipID, _, _, ok := icmp.QuotedUDPProbe(got[0]); !ok || ipID != 7 {
		t.Errorf("quoted ID = %d,%v, want 7", ipID, ok)
	}
}

// TestUnhandledUDPSilentForHandledPort: datagrams that do find a listener
// must not trigger port-unreachable.
func TestUnhandledUDPPortUnreachable(t *testing.T) {
	l := newLAN(t)
	var errs, data int
	l.h1.ListenICMP(func(src netaddr.IPv4, m icmp.Message) { errs++ })
	l.h2.ListenUDP(7777, func(src, dst netaddr.IPv4, dg udp.Datagram) { data++ })
	l.h1.SendUDP(l.sub1.Host(1), l.sub2.Host(1), 5555, 7777, []byte("ok"))
	l.sim.RunFor(10 * time.Millisecond)
	if data != 1 || errs != 0 {
		t.Fatalf("handled port: data=%d errs=%d, want 1,0", data, errs)
	}
	l.h1.SendUDP(l.sub1.Host(1), l.sub2.Host(1), 5555, 9999, []byte("nope"))
	l.sim.RunFor(10 * time.Millisecond)
	if errs != 1 {
		t.Fatalf("closed port: errs=%d, want 1 port-unreachable", errs)
	}
}
