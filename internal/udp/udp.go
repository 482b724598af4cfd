// Package udp implements the UDP header. In this reproduction UDP exists
// for one reason: BFD control packets ride in UDP datagrams (RFC 5881,
// destination port 3784), and the paper's overhead accounting charges BGP's
// fast failure detection for both BFD *and* UDP. The traffic generator also
// uses UDP so that the ECMP flow hash sees realistic 5-tuples.
package udp

import (
	"errors"

	"repro/internal/ipv4"
	"repro/internal/netaddr"
)

// HeaderLen is the UDP header size.
const HeaderLen = 8

// PortBFDControl is the RFC 5881 single-hop BFD control port.
const PortBFDControl = 3784

// Datagram is a UDP datagram.
type Datagram struct {
	SrcPort, DstPort uint16
	Payload          []byte
}

// ErrTruncated reports a buffer shorter than the UDP header or its claimed
// length.
var ErrTruncated = errors.New("udp: truncated datagram")

// ErrBadChecksum reports a checksum failure.
var ErrBadChecksum = errors.New("udp: bad checksum")

// Marshal renders the datagram, computing the checksum over the IPv4
// pseudo-header for the given addresses.
func (d *Datagram) Marshal(src, dst netaddr.IPv4) []byte {
	b := make([]byte, HeaderLen+len(d.Payload))
	copy(b[HeaderLen:], d.Payload)
	d.PutHeader(src, dst, b)
	return b
}

// PutHeader writes the UDP header into b[:HeaderLen] and computes the
// checksum over b, whose tail must already hold the payload. It lets callers
// compose a datagram directly inside a larger frame buffer.
func (d *Datagram) PutHeader(src, dst netaddr.IPv4, b []byte) {
	b[0] = byte(d.SrcPort >> 8)
	b[1] = byte(d.SrcPort)
	b[2] = byte(d.DstPort >> 8)
	b[3] = byte(d.DstPort)
	l := uint16(len(b))
	b[4] = byte(l >> 8)
	b[5] = byte(l)
	b[6], b[7] = 0, 0
	ck := pseudoChecksum(src, dst, ipv4.ProtoUDP, b)
	if ck == 0 {
		ck = 0xffff // RFC 768: transmitted zero means "no checksum"
	}
	b[6] = byte(ck >> 8)
	b[7] = byte(ck)
}

// Unmarshal parses and validates a datagram carried between src and dst.
func Unmarshal(src, dst netaddr.IPv4, b []byte) (Datagram, error) {
	if len(b) < HeaderLen {
		return Datagram{}, ErrTruncated
	}
	l := int(uint16(b[4])<<8 | uint16(b[5]))
	if l < HeaderLen || l > len(b) {
		return Datagram{}, ErrTruncated
	}
	b = b[:l]
	if b[6] != 0 || b[7] != 0 { // checksum present
		if pseudoChecksum(src, dst, ipv4.ProtoUDP, b) != 0 {
			return Datagram{}, ErrBadChecksum
		}
	}
	return Datagram{
		SrcPort: uint16(b[0])<<8 | uint16(b[1]),
		DstPort: uint16(b[2])<<8 | uint16(b[3]),
		Payload: b[HeaderLen:],
	}, nil
}

// pseudoChecksum computes the transport checksum including the IPv4
// pseudo-header, whose 16-bit words seed the shared kernel rather than being
// materialized: this runs once per simulated packet, so it must not allocate.
func pseudoChecksum(src, dst netaddr.IPv4, proto byte, segment []byte) uint16 {
	seed := uint64(src[0])<<8 | uint64(src[1])
	seed += uint64(src[2])<<8 | uint64(src[3])
	seed += uint64(dst[0])<<8 | uint64(dst[1])
	seed += uint64(dst[2])<<8 | uint64(dst[3])
	seed += uint64(proto)
	seed += uint64(uint16(len(segment)))
	return ipv4.ChecksumSeeded(seed, segment)
}

// PseudoChecksum exposes the transport pseudo-header checksum for other
// transports (TCP uses the same construction with its own protocol number).
func PseudoChecksum(src, dst netaddr.IPv4, proto byte, segment []byte) uint16 {
	return pseudoChecksum(src, dst, proto, segment)
}
