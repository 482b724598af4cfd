package bgp

import (
	"fmt"
	"time"

	"repro/internal/ipstack"
	"repro/internal/netaddr"
	"repro/internal/simnet"
	"repro/internal/tcp"
)

// SessionState is the condensed BGP FSM state.
type SessionState int

// Session states.
const (
	StateIdle SessionState = iota
	StateConnect
	StateOpenSent
	StateEstablished
)

func (s SessionState) String() string {
	switch s {
	case StateIdle:
		return "Idle"
	case StateConnect:
		return "Connect"
	case StateOpenSent:
		return "OpenSent"
	case StateEstablished:
		return "Established"
	}
	return fmt.Sprintf("SessionState(%d)", int(s))
}

// Peer is one eBGP session.
type Peer struct {
	sp       *Speaker
	idx      int // position in sp.peers: the peer's column in the table
	Iface    *ipstack.Iface
	LocalIP  netaddr.IPv4
	Neighbor netaddr.IPv4
	RemoteAS uint16
	State    SessionState

	passive bool
	conn    *tcp.Conn
	// recvBuf holds a message cut short by a segment boundary, copied out
	// of the borrowed delivery; in is what each received message is decoded
	// into.
	recvBuf      []byte
	in           Parsed
	openReceived bool

	// MsgSent/MsgRecv count BGP messages on this session (the MsgSent /
	// MsgRcvd columns of `show ip bgp summary`).
	MsgSent, MsgRecv uint64

	holdTimer      *simnet.Timer
	keepaliveTimer *simnet.Timer
	retryTimer     *simnet.Timer
	mraiTimer      *simnet.Timer
	mraiArmed      bool

	// Pending per-prefix announcements under MRAI batching. The value
	// selects advertise (true) or withdraw (false).
	pending map[netaddr.Prefix]bool
	order   []netaddr.Prefix

	// OnDown, when set, is invoked after the session leaves Established
	// (used by the BFD integration tests and the harness).
	OnDown func()
}

func (p *Peer) sim() *simnet.Sim { return p.sp.sim }

// connect starts an active TCP dial toward the neighbor.
func (p *Peer) connect() {
	if p.State != StateIdle || !p.Iface.Usable() {
		return
	}
	p.State = StateConnect
	p.attach(p.sp.Stack.TCP.Dial(p.LocalIP, p.Neighbor, Port))
}

// attach binds a TCP connection (dialed or accepted) to the session.
func (p *Peer) attach(conn *tcp.Conn) {
	if p.conn != nil {
		p.conn.Close()
	}
	p.conn = conn
	p.recvBuf = nil
	p.openReceived = false
	conn.OnData(p.onData)
	conn.OnState(p.connState(conn))
	if conn.State() == tcp.StateEstablished {
		p.sendOpen()
	} else if p.State == StateIdle {
		p.State = StateConnect
	}
}

// connState is the session's OnState hook on conn.
func (p *Peer) connState(conn *tcp.Conn) func(tcp.State) {
	return func(st tcp.State) {
		switch st {
		case tcp.StateEstablished:
			p.sendOpen()
		case tcp.StateClosed:
			if p.conn == conn && p.State != StateIdle {
				p.reset(false)
			}
		}
	}
}

func (p *Peer) sendOpen() {
	p.State = StateOpenSent
	p.send(MarshalOpen(Open{
		Version:  4,
		AS:       p.sp.Cfg.ASN,
		HoldTime: uint16(p.sp.Cfg.Timers.Hold / time.Second),
		RouterID: p.sp.Cfg.RouterID,
	}))
}

func (p *Peer) send(msg []byte) {
	if p.conn == nil {
		return
	}
	p.MsgSent++
	p.conn.Send(msg)
}

// onData reads the delivered bytes where they lie: TCP lends them until
// onData returns. Messages are decoded one at a time into the peer's
// scratch, and only a message cut short by the segment boundary is copied,
// into recvBuf, to be completed by the next delivery. A malformed header
// anywhere in the complete part resets the session before any message is
// handled.
func (p *Peer) onData(data []byte) {
	if len(p.recvBuf) > 0 {
		p.recvBuf = append(p.recvBuf, data...)
		data = p.recvBuf
	}
	n, err := completeLen(data)
	if err != nil {
		p.reset(true)
		return
	}
	conn := p.conn
	for msgs := data[:n]; len(msgs) > 0; {
		l, _ := messageLen(msgs)
		if err := p.in.decode(msgs[:l]); err != nil {
			p.reset(true)
			return
		}
		msgs = msgs[l:]
		p.handle(&p.in)
	}
	if p.conn == conn { // else the session was reset: nothing carries over
		p.recvBuf = append(p.recvBuf[:0], data[n:]...)
	}
}

func (p *Peer) handle(m *Parsed) {
	p.MsgRecv++
	p.touchHold()
	switch m.Type {
	case TypeOpen:
		if m.Open.AS != p.RemoteAS || m.Open.Version != 4 {
			p.send(MarshalNotification(Notification{Code: NotifFSMError}))
			p.reset(true)
			return
		}
		p.openReceived = true
		p.send(keepalive[:])
		p.sp.Stats.KeepalivesSent++
		p.maybeEstablish()
	case TypeKeepalive:
		p.sp.Stats.KeepalivesRecv++
		p.maybeEstablish()
	case TypeUpdate:
		if p.State == StateEstablished {
			p.sp.handleUpdate(p, m.Update)
		}
	case TypeNotification:
		p.reset(false)
	}
}

func (p *Peer) maybeEstablish() {
	if p.State == StateEstablished || !p.openReceived {
		return
	}
	p.State = StateEstablished
	p.sp.Stats.SessionsEstablished++
	p.startKeepalive()
	p.touchHold()
	p.sp.syncPeer(p)
}

func (p *Peer) startKeepalive() {
	interval := p.sp.Cfg.Timers.Keepalive
	if p.keepaliveTimer != nil {
		p.keepaliveTimer.Reset(interval)
		return
	}
	p.keepaliveTimer = p.sim().After(interval, p.keepaliveDue)
}

func (p *Peer) keepaliveDue() {
	if p.State != StateEstablished {
		return
	}
	p.send(keepalive[:])
	p.sp.Stats.KeepalivesSent++
	p.keepaliveTimer.Reset(p.sp.Cfg.Timers.Keepalive)
}

func (p *Peer) touchHold() {
	hold := p.sp.Cfg.Timers.Hold
	if hold == 0 {
		if p.holdTimer != nil {
			p.holdTimer.Stop()
		}
		return
	}
	if p.holdTimer != nil {
		p.holdTimer.Reset(hold)
		return
	}
	p.holdTimer = p.sim().After(hold, p.holdExpired)
}

func (p *Peer) holdExpired() {
	if p.State == StateEstablished || p.State == StateOpenSent {
		p.send(MarshalNotification(Notification{Code: NotifHoldExpired}))
		p.reset(false)
	}
}

// BFDDown is invoked by the BFD integration when the neighbor's liveness
// session fails: the BGP session drops immediately instead of waiting for
// the hold timer.
func (p *Peer) BFDDown() {
	if p.State != StateIdle {
		p.reset(false)
	}
}

// reset tears the session down, withdraws the peer's routes, and schedules
// a reconnect.
func (p *Peer) reset(notify bool) {
	wasEstablished := p.State == StateEstablished
	if notify && p.conn != nil {
		p.send(MarshalNotification(Notification{Code: NotifCease}))
	}
	if p.conn != nil {
		c := p.conn
		p.conn = nil
		c.Close()
	}
	p.State = StateIdle
	p.openReceived = false
	p.pending = nil
	p.order = nil
	p.mraiArmed = false
	for _, t := range []*simnet.Timer{p.holdTimer, p.keepaliveTimer, p.mraiTimer} {
		if t != nil {
			t.Stop()
		}
	}
	p.sp.Stats.SessionResets++
	if wasEstablished {
		p.sp.peerDown(p)
		if p.OnDown != nil {
			p.OnDown()
		}
	}
	p.scheduleRetry()
}

func (p *Peer) scheduleRetry() {
	if p.passive {
		return // the active side re-dials
	}
	if p.retryTimer != nil {
		p.retryTimer.Reset(connectRetry)
		return
	}
	p.retryTimer = p.sim().After(connectRetry, p.retryDue)
}

func (p *Peer) retryDue() {
	if p.State == StateIdle && p.Iface.Usable() {
		p.connect()
	} else if p.State == StateIdle {
		p.scheduleRetry()
	}
}

// Queued returns the number of prefixes awaiting the next MRAI flush: the
// session's output queue.
func (p *Peer) Queued() int { return len(p.pending) }

// queueAdvertise schedules prefix for advertisement under MRAI pacing.
func (p *Peer) queueAdvertise(prefix netaddr.Prefix) { p.queue(prefix, true) }

// queueWithdraw schedules prefix for withdrawal under MRAI pacing.
func (p *Peer) queueWithdraw(prefix netaddr.Prefix) { p.queue(prefix, false) }

func (p *Peer) queue(prefix netaddr.Prefix, announce bool) {
	if p.State != StateEstablished {
		return
	}
	if p.pending == nil {
		p.pending = make(map[netaddr.Prefix]bool)
	}
	if _, queued := p.pending[prefix]; !queued {
		p.order = append(p.order, prefix)
	}
	p.pending[prefix] = announce
	if p.sp.Cfg.Timers.MRAI <= 0 {
		p.flush()
		return
	}
	if !p.mraiArmed {
		// First change goes out immediately; subsequent ones wait for
		// the MinRouteAdvertisementInterval, per RFC 4271 §9.2.1.1.
		p.flush()
		p.mraiArmed = true
		if p.mraiTimer != nil {
			p.mraiTimer.Reset(p.sp.Cfg.Timers.MRAI)
		} else {
			p.mraiTimer = p.sim().After(p.sp.Cfg.Timers.MRAI, p.mraiDue)
		}
	}
}

func (p *Peer) mraiDue() {
	p.mraiArmed = false
	if len(p.pending) > 0 {
		p.flush()
	}
}

// flush emits one UPDATE per pending announcement and one aggregate
// withdrawal, then clears the queue. pending and order are emptied in place
// and reused by the next flush: with MRAI 0 every queued prefix is a flush.
func (p *Peer) flush() {
	if p.State != StateEstablished || len(p.pending) == 0 {
		return
	}
	var withdrawn []netaddr.Prefix
	for _, prefix := range p.order {
		announce, ok := p.pending[prefix]
		if !ok {
			continue
		}
		if !announce {
			withdrawn = append(withdrawn, prefix)
			continue
		}
		path, ok := p.sp.currentExport(prefix)
		if !ok {
			continue
		}
		u := Update{
			ASPath:  p.sp.exportPath(path),
			NextHop: p.LocalIP,
			NLRI:    []netaddr.Prefix{prefix},
		}
		p.sendUpdate(u)
	}
	if len(withdrawn) > 0 {
		p.sendUpdate(Update{Withdrawn: withdrawn})
	}
	clear(p.pending)
	p.order = p.order[:0]
}

func (p *Peer) sendUpdate(u Update) {
	msg := appendUpdate(p.sp.msg[:0], u)
	p.sp.msg = msg
	p.send(msg)
	p.sp.Stats.UpdatesSent++
	p.sp.log.ControlMessage(p.sim().Now(), p.sp.Stack.Node.Name, len(msg)+L2Overhead)
}
