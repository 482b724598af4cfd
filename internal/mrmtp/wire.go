package mrmtp

import (
	"bytes"
	"errors"
	"fmt"
)

// Message type bytes. HELLO is 0x06 so that the keep-alive frame carries
// the single byte 0x06, matching the paper's Fig. 10 Wireshark capture
// ("Data: 06, [Length: 1]").
const (
	TypeAdvertise byte = 0x01 // parent announces joinable VIDs + its tier
	TypeJoin      byte = 0x02 // child requests to join advertised trees
	TypeOffer     byte = 0x03 // parent assigns derived VIDs
	TypeAccept    byte = 0x04 // child confirms the assignment
	TypeAck       byte = 0x05 // parent acknowledges; handshake complete
	TypeHello     byte = 0x06 // 1-byte keep-alive
	TypeUpdate    byte = 0x07 // reachability change (lost/found roots)
	TypeData      byte = 0x08 // encapsulated IP packet
)

// Update subtypes.
const (
	UpdateLost  byte = 1
	UpdateFound byte = 2
)

// DefaultRoot is the sentinel root carried in UPDATE messages to withdraw
// (or restore) a device's default up-forwarding path as a whole. Spines
// keep no VID entries for remote-pod roots — traffic to them rides the
// hashed up-default — so when the last live uplink dies there is no root
// name to put in a LOST. Real roots derive from the 192.168.<vid>.0/24
// rack octet and are never zero, so the value cannot collide.
const DefaultRoot byte = 0

// DataHeaderLen is the encapsulation header: type, TTL, source root VID,
// destination root VID (paper §III.D: "an MR-MTP header with the source
// ToR VID = 11 and destination ToR VID = 14").
const DataHeaderLen = 4

// DataTTL bounds transient forwarding loops during reconvergence. The
// longest valley-free path in a 3-tier fabric is 4 hops; 16 leaves margin
// for multi-tier scale-out.
const DataTTL = 16

// ErrMalformed reports an undecodable MR-MTP message.
var ErrMalformed = errors.New("mrmtp: malformed message")

// Message is a decoded control message.
type Message struct {
	Type  byte
	Tier  int    // Advertise
	VIDs  []VID  // Advertise/Join/Offer/Accept/Ack
	Sub   byte   // Update subtype
	Roots []byte // Update root VIDs
}

// marshalVIDs appends count + length-prefixed VIDs.
func marshalVIDs(b []byte, vids []VID) []byte {
	b = append(b, byte(len(vids)))
	for _, v := range vids {
		b = append(b, byte(len(v)))
		b = append(b, v...)
	}
	return b
}

// parseVIDs decodes a counted VID list into fresh storage: a message costs
// two allocations however many VIDs it carries, and the caller may retain
// them.
func parseVIDs(b []byte) ([]VID, error) {
	vids, _, ok := decodeVIDs(b, nil, nil)
	if !ok {
		return nil, ErrMalformed
	}
	return vids, nil
}

// decodeVIDs decodes the counted VID list at the front of b over vids and
// buf, which grow only when the list is longer than what they hold. The
// VIDs are sub-slices of one copy of the list's bytes in buf, each capped at
// its own length so that appending to one cannot reach its neighbour. Bytes
// after the list are not read. A malformed list writes nothing and returns
// ok false.
func decodeVIDs(b []byte, vids []VID, buf []byte) (_ []VID, _ []byte, ok bool) {
	if len(b) < 1 {
		return vids, buf, false
	}
	n, end := int(b[0]), 1
	for i := 0; i < n; i++ {
		if end >= len(b) {
			return vids, buf, false
		}
		l := int(b[end])
		if l == 0 || len(b) < end+1+l {
			return vids, buf, false
		}
		end += 1 + l
	}
	buf = append(buf[:0], b[1:end]...)
	if cap(vids) < n {
		// Doubling: a list that lengthens one VID at a time, as a spine's
		// does during bring-up, costs amortised O(1) per ADVERTISE.
		vids = make([]VID, 0, max(n, 2*cap(vids)))
	}
	vids = vids[:0]
	for off := 0; off < len(buf); {
		l := int(buf[off])
		vids = append(vids, VID(buf[off+1:off+1+l:off+1+l]))
		off += 1 + l
	}
	return vids, buf, true
}

// sameVIDs reports whether the counted VID list at the front of b encodes
// exactly vids, reading no further than the list.
func sameVIDs(b []byte, vids []VID) bool {
	if len(b) < 1 || int(b[0]) != len(vids) {
		return false
	}
	b = b[1:]
	for _, v := range vids {
		if len(b) < 1+len(v) || int(b[0]) != len(v) || !bytes.Equal(b[1:1+len(v)], v) {
			return false
		}
		b = b[1+len(v):]
	}
	return true
}

// Marshal renders a control message body (the Ethernet payload). An
// unknown message type is an error, not a panic: the type byte can come
// from a parsed frame, and a router must drop what it cannot encode rather
// than take the simulation down.
func (m *Message) Marshal() ([]byte, error) {
	switch m.Type {
	case TypeHello:
		return []byte{TypeHello}, nil
	case TypeAdvertise:
		b := []byte{TypeAdvertise, byte(m.Tier)}
		return marshalVIDs(b, m.VIDs), nil
	case TypeJoin, TypeOffer, TypeAccept, TypeAck:
		return marshalVIDs([]byte{m.Type}, m.VIDs), nil
	case TypeUpdate:
		b := []byte{TypeUpdate, m.Sub, byte(len(m.Roots))}
		return append(b, m.Roots...), nil
	}
	return nil, fmt.Errorf("mrmtp: cannot marshal message type %#02x: %w", m.Type, ErrMalformed)
}

// ParseMessage decodes a control message body. Data frames (TypeData) are
// handled separately because their payload is an opaque IP packet.
func ParseMessage(b []byte) (Message, error) {
	if len(b) < 1 {
		return Message{}, ErrMalformed
	}
	m := Message{Type: b[0]}
	switch m.Type {
	case TypeHello:
		return m, nil
	case TypeAdvertise:
		if len(b) < 2 {
			return Message{}, ErrMalformed
		}
		m.Tier = int(b[1])
		vids, err := parseVIDs(b[2:])
		if err != nil {
			return Message{}, err
		}
		m.VIDs = vids
		return m, nil
	case TypeJoin, TypeOffer, TypeAccept, TypeAck:
		vids, err := parseVIDs(b[1:])
		if err != nil {
			return Message{}, err
		}
		m.VIDs = vids
		return m, nil
	case TypeUpdate:
		if len(b) < 3 || len(b) < 3+int(b[2]) {
			return Message{}, ErrMalformed
		}
		m.Sub = b[1]
		if m.Sub != UpdateLost && m.Sub != UpdateFound {
			return Message{}, ErrMalformed
		}
		m.Roots = append([]byte(nil), b[3:3+int(b[2])]...)
		return m, nil
	}
	return Message{}, fmt.Errorf("mrmtp: unknown message type %#02x", b[0])
}

// MarshalData builds a data frame payload: the 4-byte MR-MTP header
// followed by the raw IP packet — ParseData's inverse. Routers compose the
// same bytes straight into a pooled frame (Router.encapFrame); this
// allocating form is the codec the tests and fuzzers round-trip.
func MarshalData(srcRoot, dstRoot byte, ttl byte, ipPacket []byte) []byte {
	b := make([]byte, DataHeaderLen+len(ipPacket))
	b[0] = TypeData
	b[1] = ttl
	b[2] = srcRoot
	b[3] = dstRoot
	copy(b[DataHeaderLen:], ipPacket)
	return b
}

// DataHeader is the decoded encapsulation header.
type DataHeader struct {
	TTL              byte
	SrcRoot, DstRoot byte
}

// ParseData splits a data frame payload into header and IP packet.
func ParseData(b []byte) (DataHeader, []byte, error) {
	if len(b) < DataHeaderLen || b[0] != TypeData {
		return DataHeader{}, nil, ErrMalformed
	}
	return DataHeader{TTL: b[1], SrcRoot: b[2], DstRoot: b[3]}, b[DataHeaderLen:], nil
}
