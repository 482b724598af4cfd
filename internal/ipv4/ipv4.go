// Package ipv4 implements the IPv4 header used by the BGP/ECMP/BFD stack
// and by server traffic entering the fabric.
//
// MR-MTP itself never parses past the ToR: the fabric carries server IP
// packets opaquely inside MR-MTP encapsulation (paper §III.D), so only the
// ToRs and servers need this package in the MR-MTP configurations, while
// every BGP router forwards with it.
package ipv4

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/netaddr"
)

// HeaderLen is the size of an option-less IPv4 header.
const HeaderLen = 20

// IP protocol numbers used in the reproduction.
const (
	ProtoICMP byte = 1
	ProtoTCP  byte = 6
	ProtoUDP  byte = 17
)

// DefaultTTL matches the Linux default.
const DefaultTTL = 64

// Header is an option-less IPv4 header.
type Header struct {
	TOS      byte
	ID       uint16
	TTL      byte
	Protocol byte
	Src, Dst netaddr.IPv4
	// TotalLen is filled in by Marshal from the payload length and
	// verified by Unmarshal.
	TotalLen uint16
}

// Packet couples a header with its payload.
type Packet struct {
	Header  Header
	Payload []byte
}

var (
	// ErrTruncated reports a buffer shorter than the header claims.
	ErrTruncated = errors.New("ipv4: truncated packet")
	// ErrBadVersion reports a non-IPv4 version nibble.
	ErrBadVersion = errors.New("ipv4: bad version")
	// ErrBadChecksum reports a header checksum mismatch.
	ErrBadChecksum = errors.New("ipv4: bad header checksum")
	// ErrTTLExceeded is returned by Forward when the TTL hits zero.
	ErrTTLExceeded = errors.New("ipv4: TTL exceeded")
)

// Checksum computes the RFC 1071 internet checksum over b.
func Checksum(b []byte) uint16 { return ChecksumSeeded(0, b) }

// ChecksumSeeded is the one Internet-checksum kernel of the repo: IPv4
// headers and ICMP messages use it with a zero seed (Checksum); UDP and TCP
// seed it with the sum of their pseudo-header's 16-bit words. Since 2^16 ≡ 1
// (mod 0xffff), a big-endian word of any width is congruent to the sum of
// its 16-bit columns, so b is summed eight bytes at a time into a uint64
// with end-around carry, the 2-byte and odd-byte tails are added, and the
// total is folded down to 16 bits. The result is bit-for-bit that of the
// textbook 16-bit loop (ones'-complement zero stays 0xffff only for
// all-zero input).
func ChecksumSeeded(seed uint64, b []byte) uint16 {
	sum, carry := seed, uint64(0)
	for len(b) >= 32 {
		sum, carry = bits.Add64(sum, binary.BigEndian.Uint64(b), carry)
		sum, carry = bits.Add64(sum, binary.BigEndian.Uint64(b[8:]), carry)
		sum, carry = bits.Add64(sum, binary.BigEndian.Uint64(b[16:]), carry)
		sum, carry = bits.Add64(sum, binary.BigEndian.Uint64(b[24:]), carry)
		b = b[32:]
	}
	for len(b) >= 8 {
		sum, carry = bits.Add64(sum, binary.BigEndian.Uint64(b), carry)
		b = b[8:]
	}
	var tail uint64 // at most three 16-bit words and a byte: no overflow
	for len(b) >= 2 {
		tail += uint64(binary.BigEndian.Uint16(b))
		b = b[2:]
	}
	if len(b) == 1 {
		tail += uint64(b[0]) << 8
	}
	sum, carry = bits.Add64(sum, tail, carry)
	sum, carry = bits.Add64(sum, 0, carry)
	sum += carry
	sum = sum>>32 + sum&0xffffffff
	for sum>>16 != 0 {
		sum = sum>>16 + sum&0xffff
	}
	return ^uint16(sum)
}

// Marshal renders the packet to wire format, computing TotalLen and the
// header checksum.
func (p *Packet) Marshal() []byte {
	b := make([]byte, HeaderLen+len(p.Payload))
	p.Header.PutHeader(b, len(p.Payload))
	copy(b[HeaderLen:], p.Payload)
	return b
}

// PutHeader writes an option-less header for a payload of payloadLen bytes
// into b[:HeaderLen], computing TotalLen and the checksum. It lets callers
// compose the packet directly inside a larger frame buffer.
func (h *Header) PutHeader(b []byte, payloadLen int) {
	b[0] = 0x45 // version 4, IHL 5
	b[1] = h.TOS
	total := uint16(HeaderLen + payloadLen)
	b[2] = byte(total >> 8)
	b[3] = byte(total)
	b[4] = byte(h.ID >> 8)
	b[5] = byte(h.ID)
	// flags/fragment offset zero: the simulated fabric never fragments.
	b[6], b[7] = 0, 0
	ttl := h.TTL
	if ttl == 0 {
		ttl = DefaultTTL
	}
	b[8] = ttl
	b[9] = h.Protocol
	b[10], b[11] = 0, 0
	copy(b[12:16], h.Src[:])
	copy(b[16:20], h.Dst[:])
	ck := Checksum(b[:HeaderLen])
	b[10] = byte(ck >> 8)
	b[11] = byte(ck)
}

// Unmarshal parses and validates a wire-format packet. The payload aliases b.
func Unmarshal(b []byte) (Packet, error) {
	if len(b) < HeaderLen {
		return Packet{}, ErrTruncated
	}
	if b[0]>>4 != 4 {
		return Packet{}, ErrBadVersion
	}
	ihl := int(b[0]&0x0f) * 4
	if ihl < HeaderLen || len(b) < ihl {
		return Packet{}, ErrTruncated
	}
	if Checksum(b[:ihl]) != 0 {
		return Packet{}, ErrBadChecksum
	}
	var p Packet
	h := &p.Header
	h.TOS = b[1]
	h.TotalLen = uint16(b[2])<<8 | uint16(b[3])
	if int(h.TotalLen) > len(b) || int(h.TotalLen) < ihl {
		return Packet{}, ErrTruncated
	}
	h.ID = uint16(b[4])<<8 | uint16(b[5])
	h.TTL = b[8]
	h.Protocol = b[9]
	copy(h.Src[:], b[12:16])
	copy(h.Dst[:], b[16:20])
	p.Payload = b[ihl:h.TotalLen]
	return p, nil
}

// Forward decrements the TTL in a wire-format packet in place, fixing up the
// checksum incrementally (RFC 1141). It returns ErrTTLExceeded when the
// packet must be dropped.
func Forward(b []byte) error {
	if len(b) < HeaderLen {
		return ErrTruncated
	}
	if b[8] <= 1 {
		return ErrTTLExceeded
	}
	b[8]--
	// Incremental checksum update: TTL lives in the high byte of word 4.
	sum := uint32(b[10])<<8 | uint32(b[11])
	sum += 0x0100 // adding 1 to the one's-complement sum == subtracting 0x0100 from the field
	sum = (sum & 0xffff) + (sum >> 16)
	b[10] = byte(sum >> 8)
	b[11] = byte(sum)
	return nil
}

// String renders a short summary of the header.
func (h Header) String() string {
	return fmt.Sprintf("%s > %s proto=%d ttl=%d", h.Src, h.Dst, h.Protocol, h.TTL)
}
