// Package tcp implements a simplified but wire-accurate TCP used to carry
// BGP sessions, mirroring the paper's protocol-stack accounting (Fig. 1):
// BGP needs TCP, TCP needs IP, and every BGP keep-alive costs a TCP/IP
// envelope on the wire (85 bytes at layer 2 with the timestamp option, the
// figure the paper measured with Wireshark), while pure ACKs cost 66 bytes.
//
// The implementation provides reliable in-order byte streams with a
// three-way handshake, cumulative ACKs, go-back-N retransmission with an
// exponential RTO, and segmentation at the MSS. Flow control and congestion
// control are intentionally omitted: BGP control traffic in a DCN never
// approaches either limit, and the experiments measure timer-driven
// behaviour, not throughput.
package tcp

import (
	"encoding/binary"
	"errors"

	"repro/internal/ipv4"
	"repro/internal/netaddr"
	"repro/internal/udp"
)

// Flag bits. FIN (bit 0) is absent: Close aborts with RST.
const (
	FlagSYN = 1 << 1
	FlagRST = 1 << 2
	FlagPSH = 1 << 3
	FlagACK = 1 << 4
)

// Wire sizes. Every non-SYN segment carries the RFC 7323 timestamp option
// (10 bytes padded to 12), as Linux does; SYNs additionally carry MSS.
const (
	baseHeaderLen = 20
	tsOptionLen   = 12 // NOP, NOP, TS(10)
	mssOptionLen  = 4
	// HeaderLen is the header size of a regular (non-SYN) segment.
	HeaderLen = baseHeaderLen + tsOptionLen
)

// MSS is the maximum segment payload. 1460 matches Ethernet; BGP messages
// are far smaller, but segmentation is implemented and tested anyway.
const MSS = 1460

// Segment is a parsed TCP segment.
type Segment struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            byte
	Window           uint16
	MSSOption        uint16 // nonzero only on SYN segments
	TSVal, TSEcr     uint32
	Payload          []byte
}

var (
	// ErrTruncated reports a segment shorter than its data offset claims.
	ErrTruncated = errors.New("tcp: truncated segment")
	// ErrBadChecksum reports a pseudo-header checksum failure.
	ErrBadChecksum = errors.New("tcp: bad checksum")
)

// Marshal renders the segment, computing the checksum over the IPv4
// pseudo-header.
func (s *Segment) Marshal(src, dst netaddr.IPv4) []byte { return s.marshalInto(nil, src, dst) }

// marshalInto is Marshal into buf's backing array when the segment fits it,
// a fresh buffer otherwise. An Endpoint renders every segment it sends into
// one buffer, because its output copies the bytes into a frame at once.
func (s *Segment) marshalInto(buf []byte, src, dst netaddr.IPv4) []byte {
	optLen := tsOptionLen
	if s.Flags&FlagSYN != 0 {
		optLen += mssOptionLen
	}
	hlen := baseHeaderLen + optLen
	n := hlen + len(s.Payload)
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	b := buf[:n]
	clear(b[16:baseHeaderLen]) // checksum and urgent pointer: summed as zero, sent as zero
	binary.BigEndian.PutUint16(b[0:], s.SrcPort)
	binary.BigEndian.PutUint16(b[2:], s.DstPort)
	binary.BigEndian.PutUint32(b[4:], s.Seq)
	binary.BigEndian.PutUint32(b[8:], s.Ack)
	b[12] = byte(hlen/4) << 4
	b[13] = s.Flags
	w := s.Window
	if w == 0 {
		w = 65535
	}
	binary.BigEndian.PutUint16(b[14:], w)
	o := baseHeaderLen
	if s.Flags&FlagSYN != 0 {
		mss := s.MSSOption
		if mss == 0 {
			mss = MSS
		}
		b[o], b[o+1] = 2, 4 // MSS option
		binary.BigEndian.PutUint16(b[o+2:], mss)
		o += mssOptionLen
	}
	b[o], b[o+1] = 1, 1 // NOP padding
	b[o+2], b[o+3] = 8, 10
	binary.BigEndian.PutUint32(b[o+4:], s.TSVal)
	binary.BigEndian.PutUint32(b[o+8:], s.TSEcr)
	copy(b[hlen:], s.Payload)
	ck := udp.PseudoChecksum(src, dst, ipv4.ProtoTCP, b)
	binary.BigEndian.PutUint16(b[16:], ck)
	return b
}

// Unmarshal parses and validates a segment carried between src and dst.
func Unmarshal(src, dst netaddr.IPv4, b []byte) (Segment, error) {
	if len(b) < baseHeaderLen {
		return Segment{}, ErrTruncated
	}
	hlen := int(b[12]>>4) * 4
	if hlen < baseHeaderLen || hlen > len(b) {
		return Segment{}, ErrTruncated
	}
	if udp.PseudoChecksum(src, dst, ipv4.ProtoTCP, b) != 0 {
		return Segment{}, ErrBadChecksum
	}
	var s Segment
	s.SrcPort = binary.BigEndian.Uint16(b[0:])
	s.DstPort = binary.BigEndian.Uint16(b[2:])
	s.Seq = binary.BigEndian.Uint32(b[4:])
	s.Ack = binary.BigEndian.Uint32(b[8:])
	s.Flags = b[13]
	s.Window = binary.BigEndian.Uint16(b[14:])
	// Walk options.
	opts := b[baseHeaderLen:hlen]
	for len(opts) > 0 {
		switch opts[0] {
		case 0: // end of options
			opts = nil
		case 1: // NOP
			opts = opts[1:]
		default:
			if len(opts) < 2 || int(opts[1]) > len(opts) || opts[1] < 2 {
				return Segment{}, ErrTruncated
			}
			body := opts[:opts[1]]
			switch opts[0] {
			case 2:
				if len(body) == 4 {
					s.MSSOption = binary.BigEndian.Uint16(body[2:])
				}
			case 8:
				if len(body) == 10 {
					s.TSVal = binary.BigEndian.Uint32(body[2:])
					s.TSEcr = binary.BigEndian.Uint32(body[6:])
				}
			}
			opts = opts[opts[1]:]
		}
	}
	s.Payload = b[hlen:]
	return s, nil
}

// seqLT reports a < b in 32-bit sequence space.
func seqLT(a, b uint32) bool { return int32(a-b) < 0 }

// seqLEQ reports a <= b in 32-bit sequence space.
func seqLEQ(a, b uint32) bool { return int32(a-b) <= 0 }
