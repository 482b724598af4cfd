// Package bfd implements Bidirectional Forwarding Detection (RFC 5880)
// in asynchronous mode over single-hop UDP (RFC 5881), as the paper enables
// it for BGP: transmit interval 100 ms, detect multiplier 3, giving the
// 300 ms failure detection that dominates the BGP/BFD curves in Figs. 4,
// 7 and 8. Each control packet is 24 bytes — 66 bytes on the wire with
// UDP, IP and Ethernet, the frame size in the paper's Fig. 9 capture.
package bfd

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"repro/internal/ipstack"
	"repro/internal/netaddr"
	"repro/internal/simnet"
	"repro/internal/udp"
)

// PacketLen is the mandatory-section size of a control packet.
const PacketLen = 24

// State is a BFD session state (RFC 5880 §6.8.1).
type State byte

// Session states.
const (
	StateAdminDown State = 0
	StateDown      State = 1
	StateInit      State = 2
	StateUp        State = 3
)

func (s State) String() string {
	switch s {
	case StateAdminDown:
		return "AdminDown"
	case StateDown:
		return "Down"
	case StateInit:
		return "Init"
	case StateUp:
		return "Up"
	}
	return "Unknown"
}

// ControlPacket is the decoded mandatory section.
type ControlPacket struct {
	State         State
	DetectMult    byte
	MyDisc        uint32
	YourDisc      uint32
	DesiredMinTx  uint32 // microseconds, per RFC 5880
	RequiredMinRx uint32
}

// ErrMalformed reports an undecodable control packet.
var ErrMalformed = errors.New("bfd: malformed control packet")

// Marshal renders the packet into a new buffer.
func (p *ControlPacket) Marshal() []byte {
	var b [PacketLen]byte
	p.Put(&b)
	return b[:]
}

// Put renders the packet into b; a session transmits from one buffer of its
// own this way.
func (p *ControlPacket) Put(b *[PacketLen]byte) {
	*b = [PacketLen]byte{}
	b[0] = 1 << 5 // version 1, no diagnostic
	b[1] = byte(p.State) << 6
	b[2] = p.DetectMult
	b[3] = PacketLen
	binary.BigEndian.PutUint32(b[4:], p.MyDisc)
	binary.BigEndian.PutUint32(b[8:], p.YourDisc)
	binary.BigEndian.PutUint32(b[12:], p.DesiredMinTx)
	binary.BigEndian.PutUint32(b[16:], p.RequiredMinRx)
	// Required Min Echo RX = 0 (no echo function).
}

// Unmarshal parses a control packet.
func Unmarshal(b []byte) (ControlPacket, error) {
	if len(b) < PacketLen || b[3] != PacketLen || b[0]>>5 != 1 {
		return ControlPacket{}, ErrMalformed
	}
	var p ControlPacket
	p.State = State(b[1] >> 6)
	p.DetectMult = b[2]
	p.MyDisc = binary.BigEndian.Uint32(b[4:])
	p.YourDisc = binary.BigEndian.Uint32(b[8:])
	p.DesiredMinTx = binary.BigEndian.Uint32(b[12:])
	p.RequiredMinRx = binary.BigEndian.Uint32(b[16:])
	if p.DetectMult == 0 {
		return ControlPacket{}, ErrMalformed
	}
	return p, nil
}

// txInterval is the session's transmit interval, the paper's 100 ms.
const txInterval = 100 * time.Millisecond

// Config parameterizes a session. The paper's profile: DetectMult 3 (a
// 300 ms detection time at txInterval).
type Config struct {
	DetectMult int
}

// DefaultConfig returns the paper's lowerIntervals profile.
func DefaultConfig() Config { return Config{DetectMult: 3} }

// Session is one BFD adjacency. Create with NewSession; it starts
// transmitting when the stack starts (or immediately if already running).
type Session struct {
	stack  *ipstack.Stack
	sim    *simnet.Sim
	cfg    Config
	local  netaddr.IPv4
	remote netaddr.IPv4

	state       State
	myDisc      uint32
	yourDisc    uint32
	txTimer     *simnet.Timer
	detectTimer *simnet.Timer
	txBuf       [PacketLen]byte // the control packet being sent; SendUDP copies it

	// OnDown fires when an Up session falls to Down (detect timeout or
	// remote signaling); BGP's Peer.BFDDown is wired here.
	OnDown func()

	// Stats for the keep-alive overhead experiment. UpTransitions and
	// DownTransitions count entries into/out of the Up state (chaos
	// campaigns use them to measure per-flap detection churn).
	Stats struct {
		Sent            uint64
		UpTransitions   uint64
		DownTransitions uint64
	}
}

// Manager multiplexes all BFD sessions of one stack on the control port.
type Manager struct {
	stack    *ipstack.Stack
	sessions map[netaddr.IPv4]*Session
	// order keeps sessions in creation order so sweeps over them (chaos
	// telemetry sums) are deterministic without sorting map keys.
	order    []*Session
	nextDisc uint32
}

// NewManager attaches a BFD manager to a stack.
func NewManager(stack *ipstack.Stack) *Manager {
	m := &Manager{stack: stack, sessions: make(map[netaddr.IPv4]*Session)}
	stack.ListenUDP(udp.PortBFDControl, m.input)
	return m
}

// Add creates (and starts) a session toward remote from local.
func (m *Manager) Add(local, remote netaddr.IPv4, cfg Config) *Session {
	m.nextDisc++
	s := &Session{
		stack:  m.stack,
		sim:    m.stack.Node.Sim,
		cfg:    cfg,
		local:  local,
		remote: remote,
		state:  StateDown,
		myDisc: m.nextDisc,
	}
	m.sessions[remote] = s
	m.order = append(m.order, s)
	s.scheduleTx()
	s.armDetect()
	return s
}

// Sessions returns every session in creation order: the manager's own
// slice, which the caller must not modify.
func (m *Manager) Sessions() []*Session { return m.order }

func (m *Manager) input(src, dst netaddr.IPv4, dg udp.Datagram) {
	s := m.sessions[src]
	if s == nil {
		return
	}
	pkt, err := Unmarshal(dg.Payload)
	if err != nil {
		return
	}
	s.handle(pkt)
}

// State returns the current session state.
func (s *Session) State() State { return s.state }

func (s *Session) detectTime() time.Duration {
	return time.Duration(s.cfg.DetectMult) * txInterval
}

func (s *Session) scheduleTx() {
	// RFC 5880 §6.8.7 requires jitter (75-100% of the interval) to avoid
	// self-synchronization; the node's seeded stream keeps it deterministic
	// per run and independent of how the other nodes' draws interleave.
	jitter := time.Duration(s.stack.Node.Rand().Int63n(int64(txInterval / 4)))
	d := txInterval - jitter
	if s.txTimer != nil {
		s.txTimer.Reset(d)
		return
	}
	s.txTimer = s.sim.After(d, s.txDue)
}

func (s *Session) txDue() {
	s.transmit()
	s.scheduleTx()
}

func (s *Session) transmit() {
	pkt := ControlPacket{
		State:         s.state,
		DetectMult:    byte(s.cfg.DetectMult),
		MyDisc:        s.myDisc,
		YourDisc:      s.yourDisc,
		DesiredMinTx:  uint32(txInterval / time.Microsecond),
		RequiredMinRx: uint32(txInterval / time.Microsecond),
	}
	s.Stats.Sent++
	pkt.Put(&s.txBuf)
	s.stack.SendUDP(s.local, s.remote, 49152, udp.PortBFDControl, s.txBuf[:])
}

func (s *Session) armDetect() {
	if s.detectTimer != nil {
		s.detectTimer.Reset(s.detectTime())
		return
	}
	s.detectTimer = s.sim.After(s.detectTime(), s.timeout)
}

func (s *Session) timeout() {
	was := s.state
	s.state = StateDown
	s.yourDisc = 0
	if was == StateUp {
		s.Stats.DownTransitions++
		if s.OnDown != nil {
			s.OnDown()
		}
	}
	// Keep polling for liveness; detection re-arms on the next packet.
}

func (s *Session) handle(pkt ControlPacket) {
	s.yourDisc = pkt.MyDisc
	s.armDetect()
	was := s.state
	switch s.state {
	case StateDown:
		if pkt.State == StateDown {
			s.state = StateInit
		} else if pkt.State == StateInit {
			s.state = StateUp
		}
	case StateInit:
		if pkt.State == StateInit || pkt.State == StateUp {
			s.state = StateUp
		}
	case StateUp:
		if pkt.State == StateDown {
			s.state = StateDown
			s.Stats.DownTransitions++
			if s.OnDown != nil {
				s.OnDown()
			}
		}
	}
	if was != StateUp && s.state == StateUp {
		s.Stats.UpTransitions++
	}
}

// Fork copies the manager for a fork of its simulation onto stack, the copy
// of its stack, into into — the manager an earlier fork made for the same
// copy, whose sessions it writes over — or a new one: every session with
// its state, timers and counters, and the manager's listener on the stack.
// A session's OnDown hook belongs to whoever set it (the harness wires
// BGP's Peer.BFDDown), and the fork fails at Finish if the copy has none
// where the source had one.
func (m *Manager) Fork(fk *simnet.Forker, stack *ipstack.Stack, into *Manager) *Manager {
	nm := into
	if nm == nil {
		nm = &Manager{}
	}
	old := *nm
	*nm = Manager{
		stack:    stack,
		sessions: simnet.EmptyMap(old.sessions, len(m.sessions)),
		order:    old.order[:0],
		nextDisc: m.nextDisc,
	}
	if cap(nm.order) < len(m.order) {
		nm.order = make([]*Session, 0, len(m.order))
	}
	stack.ListenUDP(udp.PortBFDControl, nm.input)
	for i, s := range m.order {
		ns := simnet.Reused(old.order, i)
		was := *ns
		*ns = Session{
			stack: stack, sim: fk.Sim(), cfg: s.cfg, local: s.local, remote: s.remote,
			state: s.state, myDisc: s.myDisc, yourDisc: s.yourDisc,
			txBuf: s.txBuf, Stats: s.Stats,
		}
		ns.txTimer = fk.Timer(s.txTimer, was.txTimer, func() func() { return ns.txDue })
		ns.detectTimer = fk.Timer(s.detectTimer, was.detectTimer, func() func() { return ns.timeout })
		nm.order = append(nm.order, ns)
		nm.sessions[ns.remote] = ns
	}
	simnet.ClearTail(nm.order)
	fk.Check(checkFork, m, nm)
	return nm
}

// checkFork is Fork's deferred check of the copy nm of m: every session's
// OnDown hook re-installed.
func checkFork(src, dst any) error {
	m, nm := src.(*Manager), dst.(*Manager)
	for i, s := range m.order {
		if (s.OnDown == nil) != (nm.order[i].OnDown == nil) {
			return fmt.Errorf("bfd %s: the fork of the session to %s lacks its OnDown hook", nm.stack.Node.Name, s.remote)
		}
	}
	return nil
}
