package icmp

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/ipv4"
	"repro/internal/netaddr"
)

func TestEchoRoundTrip(t *testing.T) {
	f := func(id, seq uint16, payload []byte) bool {
		m := EchoRequest(id, seq, payload)
		out, err := Unmarshal(m.Marshal())
		return err == nil && out.Type == TypeEchoRequest &&
			out.ID == id && out.Seq == seq && bytes.Equal(out.Payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEchoReply(t *testing.T) {
	req := EchoRequest(7, 3, []byte("ping"))
	rep := EchoReplyTo(req)
	if rep.Type != TypeEchoReply || rep.ID != 7 || rep.Seq != 3 || !bytes.Equal(rep.Payload, req.Payload) {
		t.Errorf("reply = %+v", rep)
	}
}

func TestChecksumValidation(t *testing.T) {
	m := EchoRequest(1, 1, []byte("x"))
	wire := m.Marshal()
	wire[4] ^= 0xff
	if _, err := Unmarshal(wire); err != ErrMalformed {
		t.Errorf("corrupted message err = %v", err)
	}
	if _, err := Unmarshal([]byte{1, 2}); err != ErrMalformed {
		t.Errorf("short message err = %v", err)
	}
}

func probePacket(t *testing.T, id, seq uint16) []byte {
	t.Helper()
	probe := EchoRequest(id, seq, []byte("trace"))
	pkt := ipv4.Packet{
		Header: ipv4.Header{TTL: 1, Protocol: ipv4.ProtoICMP,
			Src: netaddr.MakeIPv4(192, 168, 11, 1), Dst: netaddr.MakeIPv4(192, 168, 14, 1)},
		Payload: probe.Marshal(),
	}
	return pkt.Marshal()
}

func TestTimeExceededQuoting(t *testing.T) {
	orig := probePacket(t, 0x4d54, 5)
	te := TimeExceeded(orig)
	// RFC 792: header + 8 bytes.
	if len(te.Payload) != ipv4.HeaderLen+8 {
		t.Errorf("quoted %d bytes, want %d", len(te.Payload), ipv4.HeaderLen+8)
	}
	out, err := Unmarshal(te.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	id, seq, ok := QuotedEcho(out)
	if !ok || id != 0x4d54 || seq != 5 {
		t.Errorf("QuotedEcho = %d,%d,%v", id, seq, ok)
	}
}

func TestQuotedEchoRejectsNonEcho(t *testing.T) {
	// A quoted UDP packet must not match.
	pkt := ipv4.Packet{
		Header:  ipv4.Header{TTL: 1, Protocol: ipv4.ProtoUDP},
		Payload: make([]byte, 8),
	}
	te := TimeExceeded(pkt.Marshal())
	if _, _, ok := QuotedEcho(te); ok {
		t.Error("QuotedEcho matched a UDP quote")
	}
	if _, _, ok := QuotedEcho(Message{Payload: []byte{1}}); ok {
		t.Error("QuotedEcho matched a truncated quote")
	}
}

func TestShortQuote(t *testing.T) {
	// Quoting a packet shorter than header+8 must not panic.
	m := TimeExceeded([]byte{0x45, 0, 0, 20})
	if len(m.Payload) != 4 {
		t.Errorf("short quote = %d bytes", len(m.Payload))
	}
}

func TestPortUnreachableQuotedUDPProbe(t *testing.T) {
	// A UDP probe with a distinctive IP ID and ports must round-trip
	// through the port-unreachable quote and back out of the extractor.
	udpWire := []byte{0x82, 0x9b, 0x82, 0x9a, 0, 12, 0, 0, 1, 2, 3, 4}
	pkt := ipv4.Packet{
		Header:  ipv4.Header{ID: 0x1234, TTL: 7, Protocol: ipv4.ProtoUDP},
		Payload: udpWire,
	}
	m := PortUnreachable(pkt.Marshal())
	out, err := Unmarshal(m.Marshal())
	if err != nil || out.Type != TypeDestUnreach || out.Code != CodePortUnreach {
		t.Fatalf("port-unreachable round trip: %+v %v", out, err)
	}
	ipID, src, dst, ok := QuotedUDPProbe(out)
	if !ok || ipID != 0x1234 || src != 0x829b || dst != 0x829a {
		t.Errorf("QuotedUDPProbe = %#x,%#x,%#x,%v", ipID, src, dst, ok)
	}
	// Time-exceeded quotes of the same probe must match identically.
	te := TimeExceeded(pkt.Marshal())
	ipID, src, dst, ok = QuotedUDPProbe(te)
	if !ok || ipID != 0x1234 || src != 0x829b || dst != 0x829a {
		t.Errorf("QuotedUDPProbe(time-exceeded) = %#x,%#x,%#x,%v", ipID, src, dst, ok)
	}
}

func TestQuotedUDPProbeRejects(t *testing.T) {
	// An ICMP quote (echo probe) must not match the UDP extractor.
	echo := EchoRequest(1, 2, nil)
	pkt := ipv4.Packet{
		Header:  ipv4.Header{TTL: 1, Protocol: ipv4.ProtoICMP},
		Payload: echo.Marshal(),
	}
	if _, _, _, ok := QuotedUDPProbe(TimeExceeded(pkt.Marshal())); ok {
		t.Error("QuotedUDPProbe matched an ICMP quote")
	}
	if _, _, _, ok := QuotedUDPProbe(Message{Payload: []byte{0x45, 0, 0}}); ok {
		t.Error("QuotedUDPProbe matched a truncated quote")
	}
	// A quote cut off before the UDP ports must be rejected.
	short := ipv4.Packet{
		Header:  ipv4.Header{TTL: 1, Protocol: ipv4.ProtoUDP},
		Payload: []byte{1, 2},
	}
	if _, _, _, ok := QuotedUDPProbe(TimeExceeded(short.Marshal())); ok {
		t.Error("QuotedUDPProbe matched a quote without full UDP ports")
	}
}
