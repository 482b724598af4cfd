// Package ethernet implements Ethernet II framing.
//
// Every byte that crosses a simulated link is a well-formed Ethernet frame
// produced by this package, so the byte counts reported by the control- and
// keep-alive-overhead experiments match what tshark showed the paper's
// authors: a BFD keep-alive is 66 bytes at layer 2, a BGP keep-alive 85
// bytes, and an MR-MTP keep-alive 15 bytes (a 1-byte payload behind the
// 14-byte header; the experiments count frame bytes as captured, without
// padding or FCS, exactly as Wireshark displays them).
package ethernet

import (
	"errors"
	"fmt"

	"repro/internal/netaddr"
)

// EtherType values used in the reproduction.
const (
	TypeIPv4  uint16 = 0x0800
	TypeARP   uint16 = 0x0806
	TypeMRMTP uint16 = 0x8850 // unused type claimed by the paper for MR-MTP
)

// HeaderLen is the Ethernet II header size (dst + src + ethertype).
const HeaderLen = 14

// Frame is a parsed Ethernet II frame.
type Frame struct {
	Dst       netaddr.MAC
	Src       netaddr.MAC
	EtherType uint16
	Payload   []byte
}

// ErrTruncated reports a frame shorter than the Ethernet header.
var ErrTruncated = errors.New("ethernet: truncated frame")

// Marshal renders the frame to wire format.
func (f *Frame) Marshal() []byte {
	b := make([]byte, HeaderLen+len(f.Payload))
	PutHeader(b, f.Dst, f.Src, f.EtherType)
	copy(b[HeaderLen:], f.Payload)
	return b
}

// PutHeader writes the Ethernet II header into b[:HeaderLen]. It lets
// callers that pre-allocated header room in front of a payload frame it
// without another allocation and copy.
func PutHeader(b []byte, dst, src netaddr.MAC, etherType uint16) {
	copy(b[0:6], dst[:])
	copy(b[6:12], src[:])
	b[12] = byte(etherType >> 8)
	b[13] = byte(etherType)
}

// Unmarshal parses a wire-format frame. The payload aliases b.
func Unmarshal(b []byte) (Frame, error) {
	if len(b) < HeaderLen {
		return Frame{}, ErrTruncated
	}
	var f Frame
	copy(f.Dst[:], b[0:6])
	copy(f.Src[:], b[6:12])
	f.EtherType = uint16(b[12])<<8 | uint16(b[13])
	f.Payload = b[HeaderLen:]
	return f, nil
}

// String renders a short tshark-like summary.
func (f *Frame) String() string {
	var proto string
	switch f.EtherType {
	case TypeIPv4:
		proto = "IPv4"
	case TypeARP:
		proto = "ARP"
	case TypeMRMTP:
		proto = "MR-MTP"
	default:
		proto = fmt.Sprintf("0x%04x", f.EtherType)
	}
	return fmt.Sprintf("%s > %s %s len=%d", f.Src, f.Dst, proto, HeaderLen+len(f.Payload))
}
