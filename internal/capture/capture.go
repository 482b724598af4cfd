// Package capture is the reproduction's tshark: it taps simulated links,
// timestamps every frame, and classifies it by protocol so the keep-alive
// overhead experiments (paper Figs. 9 and 10) can be regenerated from
// actual wire traffic rather than from protocol-internal counters.
package capture

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/ethernet"
	"repro/internal/ipv4"
	"repro/internal/simnet"
)

// Class is a frame classification.
type Class string

// Frame classes.
const (
	ClassBGPKeepalive Class = "bgp-keepalive"
	ClassBGPUpdate    Class = "bgp-update"
	ClassBGPOther     Class = "bgp-other" // OPEN, NOTIFICATION
	ClassTCPAck       Class = "tcp-ack"   // bare acknowledgements
	ClassTCPOther     Class = "tcp-other"
	ClassBFD          Class = "bfd"
	ClassARP          Class = "arp"
	ClassIPV4Data     Class = "ipv4-data"
	ClassMTPHello     Class = "mrmtp-hello"
	ClassMTPUpdate    Class = "mrmtp-update"
	ClassMTPData      Class = "mrmtp-data"
	ClassMTPTree      Class = "mrmtp-tree" // advertise/join/offer/accept/ack
	ClassOther        Class = "other"
)

// Classify determines the class of a raw Ethernet frame.
func Classify(raw []byte) Class {
	f, err := ethernet.Unmarshal(raw)
	if err != nil {
		return ClassOther
	}
	switch f.EtherType {
	case ethernet.TypeARP:
		return ClassARP
	case ethernet.TypeMRMTP:
		if len(f.Payload) == 0 {
			return ClassOther
		}
		switch f.Payload[0] {
		case 0x06:
			return ClassMTPHello
		case 0x07:
			return ClassMTPUpdate
		case 0x08:
			return ClassMTPData
		default:
			return ClassMTPTree
		}
	case ethernet.TypeIPv4:
		pkt, err := ipv4.Unmarshal(f.Payload)
		if err != nil {
			return ClassOther
		}
		switch pkt.Header.Protocol {
		case ipv4.ProtoUDP:
			if len(pkt.Payload) >= 4 {
				dport := uint16(pkt.Payload[2])<<8 | uint16(pkt.Payload[3])
				if dport == 3784 {
					return ClassBFD
				}
			}
			return ClassIPV4Data
		case ipv4.ProtoTCP:
			return classifyTCP(pkt.Payload)
		default:
			return ClassIPV4Data
		}
	}
	return ClassOther
}

func classifyTCP(seg []byte) Class {
	if len(seg) < 20 {
		return ClassTCPOther
	}
	sport := uint16(seg[0])<<8 | uint16(seg[1])
	dport := uint16(seg[2])<<8 | uint16(seg[3])
	hlen := int(seg[12]>>4) * 4
	if hlen < 20 || hlen > len(seg) {
		return ClassTCPOther
	}
	payload := seg[hlen:]
	if sport != 179 && dport != 179 {
		return ClassTCPOther
	}
	if len(payload) == 0 {
		return ClassTCPAck
	}
	if len(payload) >= 19 {
		switch payload[18] {
		case 2:
			return ClassBGPUpdate
		case 4:
			return ClassBGPKeepalive
		}
	}
	return ClassBGPOther
}

// Frame is one captured frame.
type Frame struct {
	At    time.Duration
	Link  string // "a:eth1<->b:eth2"
	From  string // transmitting port name
	Raw   []byte // a copy: the sender's buffer goes back to the frame pool
	Class Class
}

// Capture accumulates frames from tapped links.
type Capture struct {
	Frames []Frame
}

// Tap attaches the capture to a link.
func (c *Capture) Tap(l *simnet.Link) {
	name := fmt.Sprintf("%s<->%s", l.A.Name(), l.B.Name())
	l.Tap(func(at time.Duration, from *simnet.Port, raw []byte) {
		c.Frames = append(c.Frames, Frame{
			At:    at,
			Link:  name,
			From:  from.Name(),
			Raw:   append([]byte(nil), raw...),
			Class: Classify(raw),
		})
	})
}

// TapAll attaches the capture to every link in the simulation.
func (c *Capture) TapAll(sim *simnet.Sim) {
	for _, l := range sim.Links() {
		c.Tap(l)
	}
}

// ClassStats summarizes one class of traffic.
type ClassStats struct {
	Count int
	Bytes int
}

// Summary aggregates counts and bytes per class within [from, to).
func (c *Capture) Summary(from, to time.Duration) map[Class]ClassStats {
	out := make(map[Class]ClassStats)
	for _, f := range c.Frames {
		if f.At < from || f.At >= to {
			continue
		}
		s := out[f.Class]
		s.Count++
		s.Bytes += len(f.Raw)
		out[f.Class] = s
	}
	return out
}

// LivenessBytes sums a summary's liveness-related classes: BGP keepalives,
// BFD, bare TCP acknowledgements and MR-MTP hellos.
func LivenessBytes(summary map[Class]ClassStats) int {
	total := 0
	for _, cl := range []Class{ClassBGPKeepalive, ClassBFD, ClassTCPAck, ClassMTPHello} {
		total += summary[cl].Bytes
	}
	return total
}

// Render prints a per-class table, largest byte counts first.
func Render(summary map[Class]ClassStats) string {
	type row struct {
		class Class
		s     ClassStats
	}
	rows := make([]row, 0, len(summary))
	for cl, s := range summary {
		rows = append(rows, row{cl, s})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].s.Bytes != rows[j].s.Bytes {
			return rows[i].s.Bytes > rows[j].s.Bytes
		}
		return rows[i].class < rows[j].class
	})
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %8s %10s\n", "class", "frames", "bytes")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %8d %10d\n", r.class, r.s.Count, r.s.Bytes)
	}
	return b.String()
}
