// Package icmp implements the subset of ICMP (RFC 792) the reproduction
// needs: echo request/reply for reachability probes and time-exceeded for
// traceroute. Traceroute is the most vivid demonstration of the paper's
// architectural difference: a BGP folded-Clos is a chain of IP hops, while
// the MR-MTP fabric carries the packet opaquely and appears as a *single*
// hop between the two ToRs.
package icmp

import (
	"errors"

	"repro/internal/ipv4"
)

// ICMP message types used here.
const (
	TypeEchoReply    byte = 0
	TypeDestUnreach  byte = 3
	TypeEchoRequest  byte = 8
	TypeTimeExceeded byte = 11
)

// HeaderLen is the fixed ICMP header size.
const HeaderLen = 8

// CodePortUnreach is the one destination-unreachable code used here.
const CodePortUnreach byte = 3

// Message is a decoded ICMP message. For echo messages, ID/Seq hold the
// identifier and sequence number; for errors, Payload holds the original
// IP header plus at least 8 bytes of its payload (RFC 792).
type Message struct {
	Type    byte
	Code    byte
	ID      uint16
	Seq     uint16
	Payload []byte
}

// ErrMalformed reports an undecodable ICMP message.
var ErrMalformed = errors.New("icmp: malformed message")

// Marshal renders the message with a valid checksum.
func (m *Message) Marshal() []byte {
	b := make([]byte, HeaderLen+len(m.Payload))
	b[0] = m.Type
	b[1] = m.Code
	b[4] = byte(m.ID >> 8)
	b[5] = byte(m.ID)
	b[6] = byte(m.Seq >> 8)
	b[7] = byte(m.Seq)
	copy(b[HeaderLen:], m.Payload)
	ck := ipv4.Checksum(b)
	b[2] = byte(ck >> 8)
	b[3] = byte(ck)
	return b
}

// Unmarshal parses and validates a message.
func Unmarshal(b []byte) (Message, error) {
	if len(b) < HeaderLen {
		return Message{}, ErrMalformed
	}
	if ipv4.Checksum(b) != 0 {
		return Message{}, ErrMalformed
	}
	return Message{
		Type:    b[0],
		Code:    b[1],
		ID:      uint16(b[4])<<8 | uint16(b[5]),
		Seq:     uint16(b[6])<<8 | uint16(b[7]),
		Payload: b[HeaderLen:],
	}, nil
}

// EchoRequest builds an echo request.
func EchoRequest(id, seq uint16, payload []byte) Message {
	return Message{Type: TypeEchoRequest, ID: id, Seq: seq, Payload: payload}
}

// EchoReplyTo builds the reply to a request.
func EchoReplyTo(req Message) Message {
	return Message{Type: TypeEchoReply, ID: req.ID, Seq: req.Seq, Payload: req.Payload}
}

// TimeExceeded builds the error a router sends when it drops a packet with
// an expired TTL. origIP is the wire-format packet being dropped; per
// RFC 792 the error quotes its header plus the first 8 payload bytes.
func TimeExceeded(origIP []byte) Message {
	return Message{Type: TypeTimeExceeded, Payload: quote(origIP)}
}

// PortUnreachable builds the error a host sends when a UDP datagram arrives
// for a port nobody listens on (code 3). For a UDP traceroute probe this is
// the "destination reached" signal: intermediate hops answer time-exceeded,
// the final hop answers port-unreachable.
func PortUnreachable(origIP []byte) Message {
	return Message{Type: TypeDestUnreach, Code: CodePortUnreach, Payload: quote(origIP)}
}

func quote(origIP []byte) []byte {
	n := ipv4.HeaderLen + 8
	if n > len(origIP) {
		n = len(origIP)
	}
	return append([]byte(nil), origIP[:n]...)
}

// QuotedEcho extracts the echo ID/Seq from an error message's quoted
// original packet, which is how traceroute matches a time-exceeded reply
// to the probe that triggered it.
func QuotedEcho(errMsg Message) (id, seq uint16, ok bool) {
	q := errMsg.Payload
	if len(q) < ipv4.HeaderLen {
		return 0, 0, false
	}
	ihl := int(q[0]&0x0f) * 4
	if q[9] != ipv4.ProtoICMP || len(q) < ihl+HeaderLen {
		return 0, 0, false
	}
	inner := q[ihl:]
	if inner[0] != TypeEchoRequest {
		return 0, 0, false
	}
	return uint16(inner[4])<<8 | uint16(inner[5]), uint16(inner[6])<<8 | uint16(inner[7]), true
}

// QuotedUDPProbe extracts the original IP ID and UDP ports from an error
// message quoting a UDP packet. A UDP traceroute prober encodes the probe
// slot in the IP ID and the flow label in the source port, so this is how a
// time-exceeded or port-unreachable reply is matched back to its probe.
func QuotedUDPProbe(errMsg Message) (ipID, srcPort, dstPort uint16, ok bool) {
	q := errMsg.Payload
	if len(q) < ipv4.HeaderLen {
		return 0, 0, 0, false
	}
	ihl := int(q[0]&0x0f) * 4
	// RFC 792 quotes the header plus >= 8 payload bytes, which for UDP
	// covers exactly src port, dst port, length, checksum.
	if q[9] != ipv4.ProtoUDP || ihl < ipv4.HeaderLen || len(q) < ihl+4 {
		return 0, 0, 0, false
	}
	ipID = uint16(q[4])<<8 | uint16(q[5])
	srcPort = uint16(q[ihl])<<8 | uint16(q[ihl+1])
	dstPort = uint16(q[ihl+2])<<8 | uint16(q[ihl+3])
	return ipID, srcPort, dstPort, true
}
