// Package bgp implements the eBGP-for-datacenters baseline of the paper:
// RFC 4271 message formats and session machinery configured per RFC 7938
// ("Use of BGP for Routing in Large-Scale Data Centers"), with ECMP
// multipath and optional BFD-driven failover. It is the protocol suite the
// paper compares MR-MTP against, so fidelity priorities follow the
// experiments: real wire formats (byte-accurate overhead), real timer
// semantics (keepalive/hold, MRAI), real dissemination behaviour
// (UPDATE/withdraw propagation and AS-path loop prevention).
package bgp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"repro/internal/netaddr"
)

// Port is the well-known BGP TCP port.
const Port = 179

// Message types (RFC 4271 §4.1).
const (
	TypeOpen         byte = 1
	TypeUpdate       byte = 2
	TypeNotification byte = 3
	TypeKeepalive    byte = 4
)

// HeaderLen is the fixed message header size: 16-byte marker, 2-byte
// length, 1-byte type. A KEEPALIVE is exactly this long (19 bytes).
const HeaderLen = 19

// MaxMessageLen bounds any BGP message (RFC 4271).
const MaxMessageLen = 4096

// Wire overhead of one BGP message at layer 2: Ethernet (14) + IPv4 (20) +
// TCP with timestamps (32). A KEEPALIVE is 19+66 = 85 bytes on the wire,
// the number visible in the paper's Fig. 9 capture.
const L2Overhead = 14 + 20 + 32

var (
	// ErrTruncated reports an incomplete message.
	ErrTruncated = errors.New("bgp: truncated message")
	// ErrBadMarker reports a corrupted sync marker.
	ErrBadMarker = errors.New("bgp: bad marker")
	// ErrMalformed reports an otherwise undecodable message.
	ErrMalformed = errors.New("bgp: malformed message")
)

// Open is the OPEN message body (RFC 4271 §4.2).
type Open struct {
	Version  byte
	AS       uint16
	HoldTime uint16 // seconds
	RouterID netaddr.IPv4
}

// Update is the UPDATE message body (RFC 4271 §4.3). Exactly one path
// (attributes + NLRI set) or a pure withdrawal per message, which is how
// FRR emits them for distinct prefixes sharing attributes.
type Update struct {
	Withdrawn []netaddr.Prefix
	// Path attributes; meaningful only when NLRI is non-empty.
	Origin  byte // 0=IGP
	ASPath  []uint16
	NextHop netaddr.IPv4
	NLRI    []netaddr.Prefix
}

// Notification is the NOTIFICATION message body.
type Notification struct {
	Code, Subcode byte
}

// Notification error codes used here.
const (
	NotifCease       byte = 6
	NotifHoldExpired byte = 4
	NotifFSMError    byte = 5
)

// marker is the all-ones synchronisation field every header starts with.
var marker = [16]byte{
	0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
	0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
}

// marshalHeader prepends the 19-byte header to a body.
func marshalHeader(msgType byte, body []byte) []byte {
	msg := make([]byte, HeaderLen+len(body))
	copy(msg, marker[:])
	binary.BigEndian.PutUint16(msg[16:], uint16(len(msg)))
	msg[18] = msgType
	copy(msg[HeaderLen:], body)
	return msg
}

// MarshalOpen renders an OPEN message.
func MarshalOpen(o Open) []byte {
	body := make([]byte, 10)
	body[0] = o.Version
	body[1] = byte(o.AS >> 8)
	body[2] = byte(o.AS)
	body[3] = byte(o.HoldTime >> 8)
	body[4] = byte(o.HoldTime)
	copy(body[5:9], o.RouterID[:])
	body[9] = 0 // no optional parameters
	return marshalHeader(TypeOpen, body)
}

// MarshalKeepalive renders the 19-byte KEEPALIVE.
func MarshalKeepalive() []byte { return slices.Clone(keepalive[:]) }

// keepalive is the one KEEPALIVE every session sends, a value nothing
// writes: Conn.Send copies what it is given.
var keepalive = [HeaderLen]byte{
	0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
	0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
	0, HeaderLen, TypeKeepalive,
}

// MarshalNotification renders a NOTIFICATION message.
func MarshalNotification(n Notification) []byte {
	return marshalHeader(TypeNotification, []byte{n.Code, n.Subcode})
}

// appendPrefix appends a prefix in the packed (len, truncated-address) NLRI
// encoding.
func appendPrefix(b []byte, p netaddr.Prefix) []byte {
	b = append(b, byte(p.Bits))
	return append(b, p.IP[:(p.Bits+7)/8]...)
}

// appendPrefixes appends the prefixes of a packed NLRI field to out.
func appendPrefixes(out []netaddr.Prefix, b []byte) ([]netaddr.Prefix, error) {
	for len(b) > 0 {
		bits := int(b[0])
		if bits > 32 {
			return nil, ErrMalformed
		}
		nbytes := (bits + 7) / 8
		if len(b) < 1+nbytes {
			return nil, ErrMalformed
		}
		var ip netaddr.IPv4
		copy(ip[:], b[1:1+nbytes])
		out = append(out, netaddr.MakePrefix(ip, bits))
		b = b[1+nbytes:]
	}
	return out, nil
}

// Path attribute type codes.
const (
	attrOrigin  byte = 1
	attrASPath  byte = 2
	attrNextHop byte = 3
)

// MarshalUpdate renders an UPDATE message.
func MarshalUpdate(u Update) []byte {
	// One prefix behind a five-hop path is 52 bytes: the usual message
	// fits without growing.
	return appendUpdate(make([]byte, 0, 64), u)
}

// appendUpdate appends the wire form of u to b. A sender marshals every
// UPDATE into one reused buffer (Conn.Send copies); the three length fields
// are patched once what they count is in place.
func appendUpdate(b []byte, u Update) []byte {
	start := len(b)
	b = append(b, marker[:]...)
	b = append(b, 0, 0, TypeUpdate)
	withdrawn := len(b)
	b = append(b, 0, 0)
	for _, p := range u.Withdrawn {
		b = appendPrefix(b, p)
	}
	binary.BigEndian.PutUint16(b[withdrawn:], uint16(len(b)-withdrawn-2))
	attrs := len(b)
	b = append(b, 0, 0)
	if len(u.NLRI) > 0 {
		// ORIGIN: flags 0x40 (well-known transitive), len 1.
		b = append(b, 0x40, attrOrigin, 1, u.Origin)
		// AS_PATH: one AS_SEQUENCE segment.
		b = append(b, 0x40, attrASPath, byte(2+2*len(u.ASPath)), 2, byte(len(u.ASPath)))
		for _, as := range u.ASPath {
			b = append(b, byte(as>>8), byte(as))
		}
		// NEXT_HOP.
		b = append(b, 0x40, attrNextHop, 4)
		b = append(b, u.NextHop[:]...)
	}
	binary.BigEndian.PutUint16(b[attrs:], uint16(len(b)-attrs-2))
	for _, p := range u.NLRI {
		b = appendPrefix(b, p)
	}
	binary.BigEndian.PutUint16(b[start+16:], uint16(len(b)-start))
	return b
}

// Parsed is a decoded BGP message.
type Parsed struct {
	Type         byte
	Open         Open
	Update       Update
	Notification Notification
}

// ParseMessage decodes one complete wire message (header included).
func ParseMessage(msg []byte) (Parsed, error) {
	var m Parsed
	if err := m.decode(msg); err != nil {
		return Parsed{}, err
	}
	return m, nil
}

// decode decodes one complete wire message into m. An UPDATE is decoded
// over m.Update's slices, so a session that decodes every message into one
// Parsed allocates only while those slices grow; what outlives the message
// must be copied out of it. Fields of the other message types keep their
// last values.
func (m *Parsed) decode(msg []byte) error {
	if len(msg) < HeaderLen {
		return ErrTruncated
	}
	for i := 0; i < 16; i++ {
		if msg[i] != 0xff {
			return ErrBadMarker
		}
	}
	l := int(uint16(msg[16])<<8 | uint16(msg[17]))
	if l != len(msg) || l > MaxMessageLen {
		return ErrTruncated
	}
	m.Type = msg[18]
	body := msg[HeaderLen:]
	switch m.Type {
	case TypeOpen:
		if len(body) < 10 {
			return ErrMalformed
		}
		m.Open.Version = body[0]
		m.Open.AS = uint16(body[1])<<8 | uint16(body[2])
		m.Open.HoldTime = uint16(body[3])<<8 | uint16(body[4])
		copy(m.Open.RouterID[:], body[5:9])
	case TypeKeepalive:
		if len(body) != 0 {
			return ErrMalformed
		}
	case TypeNotification:
		if len(body) < 2 {
			return ErrMalformed
		}
		m.Notification = Notification{Code: body[0], Subcode: body[1]}
	case TypeUpdate:
		return m.Update.decode(body)
	default:
		return fmt.Errorf("bgp: unknown message type %d", m.Type)
	}
	return nil
}

// decode fills u from an UPDATE body, appending to u's emptied slices.
func (u *Update) decode(body []byte) error {
	*u = Update{Withdrawn: u.Withdrawn[:0], ASPath: u.ASPath[:0], NLRI: u.NLRI[:0]}
	if len(body) < 2 {
		return ErrMalformed
	}
	wlen := int(uint16(body[0])<<8 | uint16(body[1]))
	body = body[2:]
	if len(body) < wlen {
		return ErrMalformed
	}
	var err error
	if u.Withdrawn, err = appendPrefixes(u.Withdrawn, body[:wlen]); err != nil {
		return err
	}
	body = body[wlen:]
	if len(body) < 2 {
		return ErrMalformed
	}
	alen := int(uint16(body[0])<<8 | uint16(body[1]))
	body = body[2:]
	if len(body) < alen {
		return ErrMalformed
	}
	attrs := body[:alen]
	for len(attrs) > 0 {
		if len(attrs) < 3 {
			return ErrMalformed
		}
		flags, code := attrs[0], attrs[1]
		var vlen int
		var val []byte
		if flags&0x10 != 0 { // extended length
			if len(attrs) < 4 {
				return ErrMalformed
			}
			vlen = int(uint16(attrs[2])<<8 | uint16(attrs[3]))
			if len(attrs) < 4+vlen {
				return ErrMalformed
			}
			val = attrs[4 : 4+vlen]
			attrs = attrs[4+vlen:]
		} else {
			vlen = int(attrs[2])
			if len(attrs) < 3+vlen {
				return ErrMalformed
			}
			val = attrs[3 : 3+vlen]
			attrs = attrs[3+vlen:]
		}
		switch code {
		case attrOrigin:
			if len(val) != 1 {
				return ErrMalformed
			}
			u.Origin = val[0]
		case attrASPath:
			if len(val) < 2 || val[0] != 2 || len(val) != 2+2*int(val[1]) {
				return ErrMalformed
			}
			for i := 0; i < int(val[1]); i++ {
				u.ASPath = append(u.ASPath, uint16(val[2+2*i])<<8|uint16(val[3+2*i]))
			}
		case attrNextHop:
			if len(val) != 4 {
				return ErrMalformed
			}
			copy(u.NextHop[:], val)
		}
	}
	u.NLRI, err = appendPrefixes(u.NLRI, body[alen:])
	return err
}

// messageLen returns the length of the message at the front of a TCP byte
// stream: 0 while its header or body is incomplete, ErrMalformed when the
// header's length field is out of range.
func messageLen(buf []byte) (int, error) {
	if len(buf) < HeaderLen {
		return 0, nil
	}
	l := int(uint16(buf[16])<<8 | uint16(buf[17]))
	if l < HeaderLen || l > MaxMessageLen {
		return 0, ErrMalformed
	}
	if len(buf) < l {
		return 0, nil
	}
	return l, nil
}

// completeLen returns how many bytes at the front of a TCP byte stream are
// complete messages, or ErrMalformed when any header before the first
// incomplete message is out of range.
func completeLen(buf []byte) (int, error) {
	n := 0
	for {
		l, err := messageLen(buf[n:])
		if l == 0 {
			return n, err
		}
		n += l
	}
}

// SplitStream extracts complete messages from a TCP byte stream, returning
// the parsed messages and the unconsumed tail.
func SplitStream(buf []byte) (msgs [][]byte, rest []byte, err error) {
	for {
		l, err := messageLen(buf)
		if l == 0 {
			return msgs, buf, err
		}
		msgs = append(msgs, buf[:l])
		buf = buf[l:]
	}
}
