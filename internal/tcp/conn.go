package tcp

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/netaddr"
	"repro/internal/simnet"
)

// State is a TCP connection state (a condensed RFC 793 machine).
type State int

// Connection states.
const (
	StateClosed State = iota
	StateSynSent
	StateSynReceived
	StateEstablished
)

func (s State) String() string {
	switch s {
	case StateClosed:
		return "CLOSED"
	case StateSynSent:
		return "SYN-SENT"
	case StateSynReceived:
		return "SYN-RECEIVED"
	case StateEstablished:
		return "ESTABLISHED"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Retransmission parameters. The RTO is fixed rather than RTT-estimated:
// simulated DCN RTTs are sub-millisecond and constant, so an adaptive
// estimator would converge to a floor anyway.
const (
	initialRTO = 200 * time.Millisecond
	maxRetries = 8
	maxRTO     = 10 * time.Second
)

// Endpoint is the per-node TCP instance. The owning IP stack feeds it
// received segments via Input and provides the outbound path via the output
// function handed to NewEndpoint. output borrows segment for the call: the
// next segment is rendered into the same buffer (segBuf).
type Endpoint struct {
	sim    *simnet.Sim
	stream func() *rand.Rand
	output func(src, dst netaddr.IPv4, segment []byte)
	segBuf []byte

	listeners map[uint16]func(*Conn)
	conns     map[connKey]*Conn
	portSeq   uint16

	// Stats counts segments for the overhead experiments.
	Stats struct {
		SegmentsRecv uint64
		Retransmits  uint64
	}

	// spare is Fork's scratch: the connections of the endpoint it writes
	// over, for the copies to reuse.
	spare []*Conn
}

type connKey struct {
	localIP    netaddr.IPv4
	localPort  uint16
	remoteIP   netaddr.IPv4
	remotePort uint16
}

// NewEndpoint creates a TCP endpoint that transmits segments through output.
// stream returns the generator of initial sequence numbers, the same one on
// every call; the owning stack passes its node's stream so draws are
// independent of global event interleaving. It is called only when a
// connection draws its ISS, so a node's lazily built stream is never built
// for an endpoint that opens no connection. A nil stream falls back to the
// sim's control stream.
func NewEndpoint(sim *simnet.Sim, stream func() *rand.Rand, output func(src, dst netaddr.IPv4, segment []byte)) *Endpoint {
	if stream == nil {
		stream = sim.Rand
	}
	return &Endpoint{
		sim:       sim,
		stream:    stream,
		output:    output,
		listeners: make(map[uint16]func(*Conn)),
		conns:     make(map[connKey]*Conn),
		portSeq:   49152, // ephemeral range
	}
}

// Listen registers an accept callback for a local port. The callback runs
// when a new connection reaches ESTABLISHED.
func (e *Endpoint) Listen(port uint16, accept func(*Conn)) {
	e.listeners[port] = accept
}

// Dial opens a connection from local to remote:remotePort. The returned
// conn reports readiness through OnState.
func (e *Endpoint) Dial(local, remote netaddr.IPv4, remotePort uint16) *Conn {
	e.portSeq++
	c := e.newConn(connKey{local, e.portSeq, remote, remotePort})
	c.state = StateSynSent
	c.sndNxt = c.iss + 1
	c.sendSegment(FlagSYN, c.iss, 0, nil)
	c.armRetransmit()
	return c
}

func (e *Endpoint) newConn(k connKey) *Conn {
	c := &Conn{
		ep:  e,
		key: k,
		iss: uint32(e.stream().Int63()),
	}
	c.sndUna = c.iss
	e.conns[k] = c
	return c
}

// Input feeds a received TCP segment (IP payload) into the endpoint.
func (e *Endpoint) Input(src, dst netaddr.IPv4, payload []byte) {
	seg, err := Unmarshal(src, dst, payload)
	if err != nil {
		return // corrupt segments are silently dropped, as in a kernel
	}
	e.Stats.SegmentsRecv++
	k := connKey{dst, seg.DstPort, src, seg.SrcPort}
	c := e.conns[k]
	if c == nil {
		if seg.Flags&FlagSYN != 0 && seg.Flags&FlagACK == 0 {
			if accept, ok := e.listeners[seg.DstPort]; ok {
				c = e.newConn(k)
				c.acceptFn = accept
				c.state = StateSynReceived
				c.rcvNxt = seg.Seq + 1
				c.sndNxt = c.iss + 1
				c.sendSegment(FlagSYN|FlagACK, c.iss, c.rcvNxt, nil)
				c.armRetransmit()
				return
			}
		}
		// No listener and no connection: RST anything but an RST.
		if seg.Flags&FlagRST == 0 {
			e.sendRST(dst, src, seg)
		}
		return
	}
	c.input(seg)
}

func (e *Endpoint) sendRST(src, dst netaddr.IPv4, in Segment) {
	rst := Segment{
		SrcPort: in.DstPort, DstPort: in.SrcPort,
		Seq: in.Ack, Ack: in.Seq + uint32(len(in.Payload)),
		Flags: FlagRST | FlagACK,
	}
	e.output(src, dst, rst.Marshal(src, dst))
}

// Conn is one TCP connection.
type Conn struct {
	ep       *Endpoint
	key      connKey
	state    State
	acceptFn func(*Conn)

	iss    uint32
	sndUna uint32 // oldest unacknowledged byte
	sndNxt uint32 // next sequence number to send
	rcvNxt uint32 // next expected receive sequence

	// blocks hold the send stream from sndUna on — the bytes in flight,
	// then those queued before the handshake completes — starting at head
	// in blocks[0]; held counts them. Blocks past the last one in use were
	// emptied by acknowledgements and wait for the connection's next burst.
	blocks []*block
	head   int
	held   int

	retransTimer *simnet.Timer
	retries      int

	onData  func([]byte)
	onState func(State)
}

// RemoteAddr returns the connection's remote IP.
func (c *Conn) RemoteAddr() netaddr.IPv4 { return c.key.remoteIP }

// State returns the connection state.
func (c *Conn) State() State { return c.state }

// OnData registers the in-order stream delivery callback. fn borrows the
// bytes it is handed: they are the received segment's payload, valid until
// fn returns, and what fn keeps it must copy.
func (c *Conn) OnData(fn func([]byte)) { c.onData = fn }

// OnState registers a callback invoked on every state transition
// (ESTABLISHED on success, CLOSED on reset, failure, or close).
func (c *Conn) OnState(fn func(State)) { c.onState = fn }

func (c *Conn) setState(s State) {
	if c.state == s {
		return
	}
	c.state = s
	if s == StateEstablished && c.acceptFn != nil {
		fn := c.acceptFn
		c.acceptFn = nil
		fn(c)
	}
	if c.onState != nil {
		c.onState(s)
	}
}

// Send queues application data for reliable delivery. Data sent before the
// connection is established is transmitted once the handshake completes.
// The connection keeps its own copy: data may be reused once Send returns.
func (c *Conn) Send(data []byte) {
	if c.state == StateClosed {
		return
	}
	c.hold(data)
	if c.state == StateEstablished {
		c.pushPending()
	}
}

// pushPending transmits the held bytes not yet sent, from sndNxt on, in MSS
// chunks.
func (c *Conn) pushPending() {
	from := int(c.sndNxt - c.sndUna)
	c.sendHeld(from, c.held)
	c.sndNxt += uint32(c.held - from)
	c.armRetransmit()
}

// blockSize is the size of the blocks a send stream is held in. A BGP
// UPDATE segment of the 24-PoD fabric carries at most 51 bytes, and nearly
// all of a table sync is in flight at once; 256- and 512-byte blocks held
// more than they carried.
const blockSize = 128

type block [blockSize]byte

// hold appends data to the send stream, taking a new block only when the
// connection has no emptied one left.
func (c *Conn) hold(data []byte) {
	for len(data) > 0 {
		end := c.head + c.held
		i := end / blockSize
		if i == len(c.blocks) {
			c.blocks = append(c.blocks, new(block))
		}
		n := copy(c.blocks[i][end%blockSize:], data)
		data = data[n:]
		c.held += n
	}
}

// release drops the n oldest held bytes, acknowledged, and moves each block
// they emptied behind the blocks still in use.
func (c *Conn) release(n int) {
	c.held -= n
	if c.held == 0 {
		c.head = 0
		return
	}
	for c.head += n; c.head >= blockSize; c.head -= blockSize {
		b := c.blocks[0]
		copy(c.blocks, c.blocks[1:])
		c.blocks[len(c.blocks)-1] = b
	}
}

// readHeld fills dst with the held bytes from offset from on.
func (c *Conn) readHeld(dst []byte, from int) {
	for n, pos := 0, c.head+from; n < len(dst); pos += blockSize - pos%blockSize {
		n += copy(dst[n:], c.blocks[pos/blockSize][pos%blockSize:])
	}
}

// sendHeld transmits the held bytes [from, to) in MSS chunks, as the
// segments at sndUna+from on, each gathered from the blocks it spans.
func (c *Conn) sendHeld(from, to int) {
	var gather [MSS]byte
	for off := from; off < to; off += MSS {
		chunk := gather[:min(MSS, to-off)]
		c.readHeld(chunk, off)
		c.sendSegment(FlagACK|FlagPSH, c.sndUna+uint32(off), c.rcvNxt, chunk)
	}
}

// Close aborts the connection with a RST. BGP sessions in the experiments
// end either by failure or by teardown, so the simplified machine does not
// model the FIN exchange; NOTIFICATION-then-RST is how FRR behaves when a
// session is administratively cleared anyway.
func (c *Conn) Close() {
	if c.state == StateClosed {
		return
	}
	seg := Segment{SrcPort: c.key.localPort, DstPort: c.key.remotePort,
		Seq: c.sndNxt, Ack: c.rcvNxt, Flags: FlagRST | FlagACK}
	c.ep.output(c.key.localIP, c.key.remoteIP, seg.Marshal(c.key.localIP, c.key.remoteIP))
	c.teardown()
}

func (c *Conn) teardown() {
	if c.retransTimer != nil {
		c.retransTimer.Stop()
	}
	delete(c.ep.conns, c.key)
	c.setState(StateClosed)
}

func (c *Conn) sendSegment(flags byte, seq, ack uint32, payload []byte) {
	seg := Segment{
		SrcPort: c.key.localPort, DstPort: c.key.remotePort,
		Seq: seq, Ack: ack, Flags: flags,
		TSVal:   uint32(c.ep.sim.Now() / time.Millisecond),
		Payload: payload,
	}
	c.ep.segBuf = seg.marshalInto(c.ep.segBuf, c.key.localIP, c.key.remoteIP)
	c.ep.output(c.key.localIP, c.key.remoteIP, c.ep.segBuf)
}

func (c *Conn) armRetransmit() {
	if c.sndNxt == c.sndUna && c.state != StateSynSent && c.state != StateSynReceived {
		if c.retransTimer != nil {
			c.retransTimer.Stop()
		}
		return
	}
	rto := initialRTO << uint(c.retries)
	if rto > maxRTO {
		rto = maxRTO
	}
	if c.retransTimer != nil {
		c.retransTimer.Reset(rto)
		return
	}
	c.retransTimer = c.ep.sim.After(rto, c.retransmit)
}

func (c *Conn) retransmit() {
	if c.state == StateClosed {
		return
	}
	c.retries++
	if c.retries > maxRetries {
		c.teardown()
		return
	}
	c.ep.Stats.Retransmits++
	switch c.state {
	case StateSynSent:
		c.sendSegment(FlagSYN, c.iss, 0, nil)
	case StateSynReceived:
		c.sendSegment(FlagSYN|FlagACK, c.iss, c.rcvNxt, nil)
	default:
		// Go-back-N: resend everything from sndUna in MSS chunks.
		c.sendHeld(0, int(c.sndNxt-c.sndUna))
	}
	c.armRetransmit()
}

func (c *Conn) input(seg Segment) {
	if seg.Flags&FlagRST != 0 {
		// Accept any RST with a plausible sequence; this is a control
		// plane simulation, not an attack surface.
		c.teardown()
		return
	}
	switch c.state {
	case StateSynSent:
		if seg.Flags&FlagSYN != 0 && seg.Flags&FlagACK != 0 && seg.Ack == c.iss+1 {
			c.rcvNxt = seg.Seq + 1
			c.sndUna = seg.Ack
			c.retries = 0
			c.sendSegment(FlagACK, c.sndNxt, c.rcvNxt, nil)
			c.setState(StateEstablished)
			c.pushPending()
			c.armRetransmit()
		}
	case StateSynReceived:
		if seg.Flags&FlagACK != 0 && seg.Ack == c.iss+1 {
			c.sndUna = seg.Ack
			c.retries = 0
			c.setState(StateEstablished)
			c.pushPending()
			c.armRetransmit()
			// The handshake ACK may already carry data.
			if len(seg.Payload) > 0 {
				c.acceptData(seg)
			}
		}
	case StateEstablished:
		c.processAck(seg)
		if len(seg.Payload) > 0 {
			c.acceptData(seg)
		}
	}
}

func (c *Conn) processAck(seg Segment) {
	if seg.Flags&FlagACK == 0 {
		return
	}
	if seqLT(c.sndUna, seg.Ack) && seqLEQ(seg.Ack, c.sndNxt) {
		c.release(int(seg.Ack - c.sndUna))
		c.sndUna = seg.Ack
		c.retries = 0
		c.armRetransmit()
	}
}

func (c *Conn) acceptData(seg Segment) {
	if seg.Seq != c.rcvNxt {
		// Out-of-order (a retransmission gap): discard and re-ACK what we
		// have. The go-back-N sender will resend from the gap.
		c.sendSegment(FlagACK, c.sndNxt, c.rcvNxt, nil)
		return
	}
	c.rcvNxt += uint32(len(seg.Payload))
	c.sendSegment(FlagACK, c.sndNxt, c.rcvNxt, nil)
	if c.onData != nil {
		c.onData(seg.Payload)
	}
}

// Fork copies the endpoint for a fork of its simulation into into, the
// copy's endpoint: a new one made with the copy's stream and output (the
// forked stack's), or the one an earlier fork wrote, which keeps its own.
// Every connection is copied with its state, buffers and retransmission
// timer, which stays armed where it was; into's connections are written
// over, whatever key they had. A listener's accept callback and a
// connection's OnData and OnState hooks belong to the daemon that installed
// them, which installs them again on the copy; the fork fails at Finish if
// one is missing.
func (e *Endpoint) Fork(fk *simnet.Forker, into *Endpoint) *Endpoint {
	ne := into
	clear(ne.listeners)
	free := ne.spare[:0]
	//simlint:deterministic a connection of the copy is written over whole, so which spare one it takes is immaterial
	for _, c := range ne.conns {
		free = append(free, c)
	}
	clear(ne.conns)
	ne.portSeq = e.portSeq
	ne.Stats = e.Stats
	//simlint:deterministic each connection is copied on its own; the timers it claims keep their keys, so claim order is not dispatch order
	for k, c := range e.conns {
		nc := simnet.Reused(free, len(free)-1)
		if len(free) > 0 {
			free = free[:len(free)-1]
		}
		old := *nc
		*nc = Conn{
			ep: ne, key: k, state: c.state,
			iss: c.iss, sndUna: c.sndUna, sndNxt: c.sndNxt, rcvNxt: c.rcvNxt,
			blocks:  old.blocks,
			retries: c.retries,
		}
		var buf [blockSize]byte
		for off := 0; off < c.held; off += blockSize {
			chunk := buf[:min(blockSize, c.held-off)]
			c.readHeld(chunk, off)
			nc.hold(chunk)
		}
		if c.acceptFn != nil {
			nc.acceptFn = ne.accept
		}
		nc.retransTimer = fk.Timer(c.retransTimer, old.retransTimer, func() func() { return nc.retransmit })
		ne.conns[k] = nc
	}
	clear(free)
	ne.spare = free[:0]
	fk.Check(checkFork, e, ne)
	return ne
}

// checkFork is Fork's deferred check of the copy ne of e: every listener
// and connection hook re-installed.
func checkFork(src, dst any) error {
	e, ne := src.(*Endpoint), dst.(*Endpoint)
	missing := 0
	//simlint:deterministic counts only
	for port := range e.listeners {
		if ne.listeners[port] == nil {
			missing++
		}
	}
	//simlint:deterministic counts only
	for k, c := range e.conns {
		nc := ne.conns[k]
		if (c.onData == nil) != (nc.onData == nil) || (c.onState == nil) != (nc.onState == nil) {
			missing++
		}
	}
	if missing > 0 || len(ne.listeners) != len(e.listeners) {
		return fmt.Errorf("tcp: fork lacks %d listener or connection hook(s) of the source", missing)
	}
	return nil
}

// Counterpart returns the endpoint's connection under c's key, or nil; nil
// gives nil. Asked of a fork's endpoint about a connection of the source, it
// returns that connection's copy.
func (e *Endpoint) Counterpart(c *Conn) *Conn {
	if c == nil {
		return nil
	}
	return e.conns[c.key]
}

// accept hands an established connection to its port's listener: the
// accept callback of a connection the copy's Fork made.
func (e *Endpoint) accept(c *Conn) { e.listeners[c.key.localPort](c) }
