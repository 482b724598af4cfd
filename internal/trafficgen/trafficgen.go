// Package trafficgen reimplements the paper's custom traffic generator
// (github.com/pjw7904/Basic-Traffic-Generator): a sender transmits
// sequence-numbered packets back-to-back between two servers, and an
// analyzer at the receiver counts lost, duplicated and out-of-sequence
// packets — the packet-loss methodology of §VI.D used for Figs. 7 and 8.
package trafficgen

import (
	"encoding/binary"
	"time"

	"repro/internal/ipstack"
	"repro/internal/netaddr"
	"repro/internal/simnet"
	"repro/internal/udp"
)

// Magic identifies generator packets.
const Magic uint32 = 0x4d545047 // "MTPG"

// headerLen is the generator payload header: magic + 8-byte sequence.
const headerLen = 12

// Config parameterizes a flow.
type Config struct {
	Src, Dst         netaddr.IPv4
	SrcPort, DstPort uint16
	// Interval between packets. The paper's generator sends back-to-back;
	// ~3 ms spacing (≈333 pps) reproduces its loss counts against the
	// 3 s / 300 ms / 100 ms detection timers.
	Interval time.Duration
	// Size is the UDP payload size (>= 12; padded with zeros).
	Size int
}

// DefaultConfig returns the rate used across the packet-loss experiments.
func DefaultConfig(src, dst netaddr.IPv4) Config {
	return Config{
		Src: src, Dst: dst,
		SrcPort: 40000, DstPort: 47000,
		Interval: 3 * time.Millisecond,
		Size:     64,
	}
}

// Sender emits the flow from a server's IP stack.
type Sender struct {
	stack *ipstack.Stack
	cfg   Config
	sent  uint64
	stop  bool
	timer *simnet.Timer
	// payload is every packet's payload: the magic, the sequence number
	// tick rewrites, zero padding. SendUDP copies it into the frame.
	payload []byte
}

// NewSender binds a sender to a server stack.
func NewSender(stack *ipstack.Stack, cfg Config) *Sender {
	if cfg.Size < headerLen {
		cfg.Size = headerLen
	}
	s := &Sender{stack: stack, cfg: cfg, payload: make([]byte, cfg.Size)}
	binary.BigEndian.PutUint32(s.payload, Magic)
	return s
}

// Start begins transmitting until Stop.
func (s *Sender) Start() {
	s.stop = false
	s.tick()
}

// Stop halts transmission after the current packet.
func (s *Sender) Stop() { s.stop = true }

// Sent returns the number of packets transmitted so far. Sequence numbers
// count up from zero, so it is also the next one to go out: a probe window
// is the half-open range [Sent at start, Sent at end).
func (s *Sender) Sent() uint64 { return s.sent }

func (s *Sender) tick() {
	if s.stop {
		return
	}
	binary.BigEndian.PutUint64(s.payload[4:], s.sent)
	s.sent++
	s.stack.SendUDP(s.cfg.Src, s.cfg.Dst, s.cfg.SrcPort, s.cfg.DstPort, s.payload)
	if s.timer != nil {
		s.timer.Reset(s.cfg.Interval)
	} else {
		s.timer = s.stack.Node.Sim.After(s.cfg.Interval, s.tick)
	}
}

// maxSeq bounds the sequence numbers a Receiver accounts for: two million
// words of bitset, and 14 hours of the default flow. A sender counts up from
// zero, so a packet beyond it is a corrupted one and is ignored.
const maxSeq = 1 << 24

// Receiver analyzes the flow at the destination server. The zero value is
// an analyzer that has seen nothing.
type Receiver struct {
	received   uint64
	duplicates uint64
	outOfOrder uint64
	seen       []uint64 // bit seq%64 of word seq/64: seq has arrived
	lastSeq    uint64
	haveLast   bool
}

// NewReceiver registers the analyzer on the destination stack and port.
func NewReceiver(stack *ipstack.Stack, port uint16) *Receiver {
	r := &Receiver{}
	stack.ListenUDP(port, func(src, dst netaddr.IPv4, dg udp.Datagram) {
		r.packet(dg.Payload)
	})
	return r
}

func (r *Receiver) packet(payload []byte) {
	if len(payload) < headerLen || binary.BigEndian.Uint32(payload) != Magic {
		return
	}
	seq := binary.BigEndian.Uint64(payload[4:])
	if seq >= maxSeq {
		return
	}
	if r.has(seq) {
		r.duplicates++
		return
	}
	w := int(seq >> 6)
	if w >= len(r.seen) {
		grown := make([]uint64, max(2*len(r.seen), w+1, 16))
		copy(grown, r.seen)
		r.seen = grown
	}
	r.seen[w] |= 1 << (seq & 63)
	r.received++
	if r.haveLast && seq < r.lastSeq {
		r.outOfOrder++
	}
	if !r.haveLast || seq > r.lastSeq {
		r.lastSeq = seq
		r.haveLast = true
	}
}

// has reports whether seq has arrived.
func (r *Receiver) has(seq uint64) bool {
	w := seq >> 6
	return w < uint64(len(r.seen)) && r.seen[w]&(1<<(seq&63)) != 0
}

// Missing scans the half-open sequence window [from, to) and returns how
// many of those packets never arrived plus the length of the longest
// consecutive missing run. Against a fixed-interval sender the product of
// either count with the interval gives blackhole time and maximum outage
// for the window — the chaos campaign's loss metrics.
func (r *Receiver) Missing(from, to uint64) (total, longest uint64) {
	var run uint64
	for seq := from; seq < to; seq++ {
		if r.has(seq) {
			run = 0
			continue
		}
		total++
		run++
		if run > longest {
			longest = run
		}
	}
	return total, longest
}

// Report is the analyzer's verdict, comparable to the paper's loss counts.
type Report struct {
	Sent       uint64
	Received   uint64
	Lost       uint64
	Duplicated uint64
	OutOfOrder uint64
}

// Report computes the final counts against the sender's transmit count.
func (r *Receiver) Report(s *Sender) Report {
	rep := Report{
		Sent:       s.Sent(),
		Received:   r.received,
		Duplicated: r.duplicates,
		OutOfOrder: r.outOfOrder,
	}
	if rep.Sent > rep.Received {
		rep.Lost = rep.Sent - rep.Received
	}
	return rep
}
