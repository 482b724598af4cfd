package pathtrace

import (
	"sort"
	"time"

	"repro/internal/icmp"
	"repro/internal/ipv4"
	"repro/internal/netaddr"
	"repro/internal/stats"
	"repro/internal/udp"
)

// grace is how many rounds a probe may stay outstanding before it is
// finalized as lost — long enough for any plausible fabric RTT (including
// impairment-injected latency), short enough that loss shows up within a
// few probe intervals.
const grace = 4

// rttWindow bounds the rolling RTT sample ring per hop.
const rttWindow = 64

// ewmaAlpha weights each finalized probe into the loss EWMA: heavy enough
// that persistent loss crosses detection thresholds within ~half a dozen
// probes, light enough that one stray drop does not.
const ewmaAlpha = 0.25

// ProberConfig parameterizes one prober: a (source, destination, flow)
// vantage walked at every TTL up to MaxTTL.
type ProberConfig struct {
	// ID is the tracer-assigned index; it selects the UDP source port
	// (BaseSrcPort+ID), so it must be unique fabric-wide.
	ID int
	// Src is the prober's own address (probe source, reply destination).
	Src netaddr.IPv4
	// Dst is the probed destination address.
	Dst netaddr.IPv4
	// Flow labels the ECMP variant this prober pins; informational (the
	// source port already encodes it) but carried into snapshots.
	Flow int
	// MaxTTL is the number of hops walked per round (1..MaxTTL).
	MaxTTL int
}

// pending tracks one in-flight probe of a hop cell.
type pending struct {
	round    uint16
	sentAt   time.Duration
	used     bool
	answered bool
}

// hopState is the mutable per-TTL rollup.
type hopState struct {
	addr     netaddr.IPv4
	reached  bool
	seen     bool
	sent     uint64
	lost     uint64
	received uint64
	lossEWMA float64
	lastSeen time.Duration
	pend     [grace]pending
	rtts     [rttWindow]float64 // seconds
	rttN     int                // total samples ever; ring fill = min(rttN, rttWindow)
}

// Prober walks one (src, dst, flow) path. Tick sends one probe per TTL and
// finalizes probes that aged out; HandleReply folds an ICMP answer into the
// matching cell. Both run on the prober's own node in virtual time, so the
// rollups need no locking.
type Prober struct {
	Cfg   ProberConfig
	clock Clock
	tr    Transport
	hops  []hopState
	round uint16
	wire  []byte // scratch probe buffer, rewritten per send
}

// NewProber builds a prober; cfg.MaxTTL is clamped to [1, MaxTTL].
func NewProber(cfg ProberConfig, clock Clock, tr Transport) *Prober {
	if cfg.MaxTTL < 1 {
		cfg.MaxTTL = 1
	}
	if cfg.MaxTTL > MaxTTL {
		cfg.MaxTTL = MaxTTL
	}
	return &Prober{
		Cfg:   cfg,
		clock: clock,
		tr:    tr,
		hops:  make([]hopState, cfg.MaxTTL),
		wire:  make([]byte, ipv4.HeaderLen+udp.HeaderLen),
	}
}

// SrcPort returns the UDP source port this prober stamps on probes.
func (p *Prober) SrcPort() uint16 { return uint16(BaseSrcPort + p.Cfg.ID) }

// probeID encodes (round, ttl) into the IP ID quoted back by replies.
func probeID(round uint16, ttl int) uint16 { return round<<5 | uint16(ttl) }

// decodeProbeID splits an IP ID back into (round, ttl).
func decodeProbeID(id uint16) (round uint16, ttl int) { return id >> 5, int(id & 31) }

// Tick runs one probe round: finalize the slot each new probe reuses
// (counting it lost if unanswered), then send a fresh probe per TTL.
func (p *Prober) Tick() {
	now := p.clock.Now()
	for ttl := 1; ttl <= p.Cfg.MaxTTL; ttl++ {
		h := &p.hops[ttl-1]
		slot := &h.pend[int(p.round)%grace]
		if slot.used && !slot.answered {
			h.lost++
			h.lossEWMA = (1-ewmaAlpha)*h.lossEWMA + ewmaAlpha
		}
		*slot = pending{round: p.round, sentAt: now, used: true}
		h.sent++
		p.send(ttl)
	}
	p.round++
}

// send builds and transmits the probe for one TTL. The wire scratch is
// rewritten in place: transports copy it into their own frame buffers.
func (p *Prober) send(ttl int) {
	h := ipv4.Header{
		ID:       probeID(p.round, ttl),
		TTL:      byte(ttl),
		Protocol: ipv4.ProtoUDP,
		Src:      p.Cfg.Src,
		Dst:      p.Cfg.Dst,
	}
	h.PutHeader(p.wire, udp.HeaderLen)
	dg := udp.Datagram{SrcPort: p.SrcPort(), DstPort: TracePort}
	dg.PutHeader(p.Cfg.Src, p.Cfg.Dst, p.wire[ipv4.HeaderLen:])
	p.tr.SendProbe(p.wire, ttl)
}

// HandleReply folds an ICMP reply into the cell the quoted IP ID names.
// from is the replying hop's address; reached reports a port-unreachable
// (destination) rather than a time-exceeded (intermediate hop).
func (p *Prober) HandleReply(from netaddr.IPv4, ipID uint16, reached bool) {
	round, ttl := decodeProbeID(ipID)
	if ttl < 1 || ttl > p.Cfg.MaxTTL {
		return
	}
	h := &p.hops[ttl-1]
	slot := &h.pend[int(round)%grace]
	if !slot.used || slot.answered || slot.round != round {
		return // aged out or duplicate
	}
	slot.answered = true
	now := p.clock.Now()
	h.received++
	h.lossEWMA = (1 - ewmaAlpha) * h.lossEWMA
	h.addr = from
	h.reached = reached
	h.seen = true
	h.lastSeen = now
	h.rtts[h.rttN%rttWindow] = (now - slot.sentAt).Seconds()
	h.rttN++
}

// Snapshot renders the rolling rollups of every hop cell at the current
// virtual time. RTT quantiles are computed over the rolling window.
func (p *Prober) Snapshot() []HopSnapshot {
	out := make([]HopSnapshot, len(p.hops))
	var sorted []float64 // one hop's window, sorted; reused hop to hop
	for i := range p.hops {
		h := &p.hops[i]
		s := HopSnapshot{
			Prober: p.Cfg.ID, Src: p.Cfg.Src, Dst: p.Cfg.Dst,
			Flow: p.Cfg.Flow, TTL: i + 1,
			Addr: h.addr, Reached: h.reached, Seen: h.seen,
			Sent: h.sent, Lost: h.lost, Received: h.received,
			LossEWMA: h.lossEWMA, LastSeen: h.lastSeen,
		}
		n := h.rttN
		if n > rttWindow {
			n = rttWindow
		}
		if n > 0 {
			sorted = append(sorted[:0], h.rtts[:n]...)
			sort.Float64s(sorted)
			s.RTTP50 = time.Duration(stats.SortedPercentile(sorted, 50) * float64(time.Second))
			s.RTTP95 = time.Duration(stats.SortedPercentile(sorted, 95) * float64(time.Second))
		}
		out[i] = s
	}
	return out
}

// icmpReplyKind classifies an ICMP message as a trace reply.
func icmpReplyKind(m icmp.Message) (reached, ok bool) {
	switch {
	case m.Type == icmp.TypeTimeExceeded:
		return false, true
	case m.Type == icmp.TypeDestUnreach && m.Code == icmp.CodePortUnreach:
		return true, true
	}
	return false, false
}
