package bgp

import (
	"cmp"
	"slices"
	"time"

	"repro/internal/invariant"
	"repro/internal/ipstack"
	"repro/internal/metrics"
	"repro/internal/netaddr"
	"repro/internal/simnet"
	"repro/internal/tcp"
)

// Timers groups the configurable BGP intervals. The paper runs
// `timers bgp 1 3` (keepalive 1 s, hold 3 s) and FRR's datacenter profile,
// whose MRAI is zero.
type Timers struct {
	Keepalive time.Duration
	Hold      time.Duration
	MRAI      time.Duration // minimum interval between UPDATE bursts per peer
}

// DefaultTimers returns the paper's configuration.
func DefaultTimers() Timers {
	return Timers{
		Keepalive: 1 * time.Second,
		Hold:      3 * time.Second,
		MRAI:      0,
	}
}

// connectRetry is how long an idle active peer waits before dialing again.
const connectRetry = 2 * time.Second

// Config configures one BGP speaker.
type Config struct {
	ASN      uint16
	RouterID netaddr.IPv4
	Timers   Timers
	// ECMP enables multipath installation (the paper's "BGP with ECMP").
	ECMP     bool
	MaxPaths int
	// DisableFastFailover keeps sessions up across a local carrier loss
	// until the hold timer expires, like FRR with
	// `no bgp fast-external-failover`. Default off: interface tracking
	// drops the session immediately, which is what the paper measures.
	DisableFastFailover bool
	// Networks are locally originated prefixes (the leaf's rack subnet).
	Networks []netaddr.Prefix
}

// route is one prefix's row of the speaker's table: every peer's offer
// (the Adj-RIB-In), the path we export and the peers that heard it. Rows are
// indexed by peer position (Peer.idx), so no part of the table is keyed by
// neighbor address.
type route struct {
	prefix netaddr.Prefix
	// paths[i] is the AS path peers[i] offers, nil when it offers none. A
	// slot keeps its backing array while the peer replaces its path.
	paths [][]uint16
	// exported is the path we advertise, without our prepended ASN;
	// exporting says whether we advertise the prefix at all. A row that does
	// not export holds an empty exported and an empty sentTo.
	exported  []uint16
	exporting bool
	sentTo    peerSet
}

// path returns the AS path peer position i offers, or nil.
func (rt *route) path(i int) []uint16 {
	if i < len(rt.paths) {
		return rt.paths[i]
	}
	return nil
}

// setPath copies path into peer position i's slot.
func (rt *route) setPath(i int, path []uint16) {
	if i >= len(rt.paths) {
		rt.paths = slices.Grow(rt.paths, i+1-len(rt.paths))[:i+1]
	}
	slot := rt.paths[i]
	if slot == nil {
		slot = make([]uint16, 0, len(path)) // non-nil even for an empty path
	}
	rt.paths[i] = append(slot[:0], path...)
}

// dropPath removes peer position i's path and reports whether there was one.
func (rt *route) dropPath(i int) bool {
	if rt.path(i) == nil {
		return false
	}
	rt.paths[i] = nil
	return true
}

// hasPaths reports whether any peer offers a path.
func (rt *route) hasPaths() bool {
	for _, path := range rt.paths {
		if path != nil {
			return true
		}
	}
	return false
}

// peerSet is a set of peer positions, one bit each.
type peerSet []uint64

func (s peerSet) has(i int) bool { return i>>6 < len(s) && s[i>>6]&(1<<(i&63)) != 0 }

func (s *peerSet) add(i int) {
	for len(*s) <= i>>6 {
		*s = append(*s, 0)
	}
	(*s)[i>>6] |= 1 << (i & 63)
}

func (s peerSet) remove(i int) {
	if i>>6 < len(s) {
		s[i>>6] &^= 1 << (i & 63)
	}
}

// Speaker is a BGP routing daemon bound to one router's IP stack.
type Speaker struct {
	Stack *ipstack.Stack
	Cfg   Config

	sim   *simnet.Sim
	peers []*Peer                // peers[i].idx == i
	byIP  map[netaddr.IPv4]*Peer // session lookup by neighbor address
	// rows is the routing state, one table: a row per prefix ever heard,
	// sorted by comparePrefixes — the order of every sweep that emits
	// messages — and found by binary search.
	rows []*route
	log  *metrics.Log // nil records nothing

	// Working sets of the decision process, reused from one received UPDATE
	// to the next so that a message allocates only what it leaves behind in
	// the RIBs. deciding marks them taken: see takeDirty.
	dirty    []netaddr.Prefix  // prefixes whose Adj-RIB-In changed
	best     []*Peer           // decide: the peers offering a minimum-length path
	nhs      []ipstack.NextHop // decide: the candidate next-hop set
	deciding bool
	// The sending side's: one UPDATE is marshalled and handed to TCP, which
	// copies it, before the next is built.
	wirePath []uint16 // exportPath: our ASN in front of the exported path
	msg      []byte   // sendUpdate: the marshalled message

	// Stats counts protocol activity for the experiments.
	Stats struct {
		UpdatesSent     uint64
		UpdatesRecv     uint64
		KeepalivesSent  uint64
		KeepalivesRecv  uint64
		WithdrawalsSent uint64
		SessionResets   uint64
		// SessionsEstablished counts transitions into Established,
		// including re-establishments after a reset — with SessionResets
		// it exposes per-flap session churn under chaos campaigns.
		SessionsEstablished uint64
	}
}

// New creates a speaker on the stack and hooks interface events. The log
// may be nil.
func New(stack *ipstack.Stack, cfg Config, log *metrics.Log) *Speaker {
	if cfg.MaxPaths == 0 {
		cfg.MaxPaths = 8
	}
	s := &Speaker{
		Stack: stack,
		Cfg:   cfg,
		sim:   stack.Node.Sim,
		byIP:  make(map[netaddr.IPv4]*Peer),
		log:   log,
	}
	stack.OnPortDown = s.portDown
	stack.OnPortUp = s.portUp
	stack.OnStart = s.start
	stack.TCP.Listen(Port, s.accept)
	return s
}

// AddPeer declares an eBGP neighbor reachable through iface. Like FRR's
// `neighbor <ip> remote-as <asn>`.
func (s *Speaker) AddPeer(iface *ipstack.Iface, neighbor netaddr.IPv4, remoteAS uint16) *Peer {
	p := &Peer{
		sp:       s,
		idx:      len(s.peers),
		Iface:    iface,
		LocalIP:  iface.IP,
		Neighbor: neighbor,
		RemoteAS: remoteAS,
		// Deterministic collision avoidance: the numerically lower
		// address initiates the TCP connection, the higher one listens.
		passive: iface.IP.Uint32() > neighbor.Uint32(),
	}
	s.peers = append(s.peers, p)
	s.byIP[neighbor] = p
	return p
}

// Peers returns the speaker's neighbors.
func (s *Speaker) Peers() []*Peer { return s.peers }

// EstablishedCount reports how many sessions are up.
func (s *Speaker) EstablishedCount() int {
	n := 0
	for _, p := range s.peers {
		if p.State == StateEstablished {
			n++
		}
	}
	return n
}

func (s *Speaker) start() {
	for _, p := range s.peers {
		if !p.passive {
			p.connect()
		}
	}
}

func (s *Speaker) accept(conn *tcp.Conn) {
	p := s.byIP[conn.RemoteAddr()]
	if p == nil || !p.passive {
		conn.Close()
		return
	}
	p.attach(conn)
}

func (s *Speaker) portDown(port *simnet.Port) {
	// fast-external-failover: sessions over the dead interface drop
	// immediately, as FRR does on a netlink link-down event.
	if s.Cfg.DisableFastFailover {
		return // the hold timer will notice eventually
	}
	for _, p := range s.peers {
		if p.Iface.Port == port && p.State != StateIdle {
			p.reset(false)
		}
	}
}

func (s *Speaker) portUp(port *simnet.Port) {
	for _, p := range s.peers {
		if p.Iface.Port == port && p.State == StateIdle && !p.passive {
			p.connect()
		}
	}
}

// decide runs the decision process for one prefix whose Adj-RIB-In changed,
// in three steps whose order is the order of their side effects: select the
// best paths (shortest AS path; the set is sorted by neighbor address, its
// first member is the exported one); bring the FIB in line with them
// (multipath if ECMP, removal when no path is left), reporting a RouteUpdate
// only when the entry really changed; then re-advertise or withdraw toward
// every peer, which queues and, with MRAI 0, sends UPDATEs on the spot.
// Locally originated prefixes are skipped: they always win.
//
// decide is not re-entrant: it works in the speaker's scratch (best, nhs).
// Nothing it calls comes back into the speaker — sending is asynchronous —
// and takeDirty asserts as much under -tags invariants.
func (s *Speaker) decide(prefix netaddr.Prefix) {
	if s.isLocalNetwork(prefix) {
		return // local origination never changes
	}
	rt := s.find(prefix)

	// Best-path: shortest AS path, then lowest neighbor address.
	best := s.best[:0]
	bestLen := -1
	for i, path := range rt.paths {
		switch {
		case path == nil:
		case bestLen < 0 || len(path) < bestLen:
			best = append(best[:0], s.peers[i])
			bestLen = len(path)
		case len(path) == bestLen:
			best = append(best, s.peers[i])
		}
	}
	// Next hops are unique per peer, so the order is total.
	slices.SortFunc(best, func(a, b *Peer) int {
		return cmp.Compare(a.Neighbor.Uint32(), b.Neighbor.Uint32())
	})
	s.best = best

	// Install the FIB entry (multipath if ECMP).
	changed := false
	if len(best) == 0 {
		if s.Stack.FIB.Remove(prefix, ipstack.ProtoBGP) {
			changed = true
		}
	} else {
		n := len(best)
		if !s.Cfg.ECMP {
			n = 1
		} else if n > s.Cfg.MaxPaths {
			n = s.Cfg.MaxPaths
		}
		nhs := s.nhs[:0]
		for _, p := range best[:n] {
			nhs = append(nhs, ipstack.NextHop{Via: p.Neighbor, Iface: p.Iface})
		}
		s.nhs = nhs
		r := ipstack.Route{Prefix: prefix, NextHops: nhs, Proto: ipstack.ProtoBGP, Metric: 20}
		if !sameRoute(s.Stack.FIB.Get(prefix, ipstack.ProtoBGP), r) {
			r.NextHops = slices.Clone(nhs) // the FIB keeps it; the scratch is reused
			s.Stack.FIB.Replace(r)
			changed = true
		}
	}
	if changed {
		s.log.RouteUpdate(s.sim.Now(), s.Stack.Node.Name)
	}

	// Re-advertise if the exported path changed.
	if len(best) == 0 {
		s.withdraw(rt)
	} else {
		s.advertise(rt, rt.paths[best[0].idx])
	}
	if invariant.Enabled {
		s.checkFIB(rt)
	}
}

func sameRoute(a *ipstack.Route, b ipstack.Route) bool {
	if a == nil || len(a.NextHops) != len(b.NextHops) || a.Metric != b.Metric {
		return false
	}
	for i := range a.NextHops {
		if a.NextHops[i].Via != b.NextHops[i].Via || a.NextHops[i].Iface != b.NextHops[i].Iface {
			return false
		}
	}
	return true
}

func (s *Speaker) isLocalNetwork(p netaddr.Prefix) bool {
	for _, n := range s.Cfg.Networks {
		if n == p {
			return true
		}
	}
	return false
}

// advertise exports the row's prefix with the given (un-prepended) path to
// every eligible peer, if it differs from what that peer last heard.
func (s *Speaker) advertise(rt *route, path []uint16) {
	rt.exporting = true
	pathChanged := !slices.Equal(rt.exported, path)
	if pathChanged {
		rt.exported = append(rt.exported[:0], path...)
	}
	for i, p := range s.peers {
		if p.State != StateEstablished {
			continue
		}
		if !s.exportAllowed(p, path) {
			// The peer's AS sits in the path; if it previously heard
			// this prefix from us, withdraw it.
			if rt.sentTo.has(i) {
				p.queueWithdraw(rt.prefix)
				rt.sentTo.remove(i)
			}
			continue
		}
		if pathChanged || !rt.sentTo.has(i) {
			p.queueAdvertise(rt.prefix)
			rt.sentTo.add(i)
		}
	}
}

// withdraw retracts the row's prefix from every peer that heard it.
func (s *Speaker) withdraw(rt *route) {
	if !rt.exporting {
		return
	}
	for i, p := range s.peers {
		if rt.sentTo.has(i) && p.State == StateEstablished {
			p.queueWithdraw(rt.prefix)
		}
	}
	clear(rt.sentTo)
	rt.exported = rt.exported[:0]
	rt.exporting = false
}

// exportAllowed implements sender-side AS-path loop suppression: never
// offer a peer a path already containing its AS (it would reject it
// anyway; FRR's `as-path loop-detection` behaviour on eBGP fabrics).
func (s *Speaker) exportAllowed(p *Peer, path []uint16) bool {
	for _, as := range path {
		if as == p.RemoteAS {
			return false
		}
	}
	return true
}

// exportPath builds the path to put on the wire toward a peer, in scratch
// the next call overwrites.
func (s *Speaker) exportPath(path []uint16) []uint16 {
	s.wirePath = append(append(s.wirePath[:0], s.Cfg.ASN), path...)
	return s.wirePath
}

// currentExport returns the path we advertise for prefix, or nil if none.
func (s *Speaker) currentExport(prefix netaddr.Prefix) ([]uint16, bool) {
	if s.isLocalNetwork(prefix) {
		return nil, true // originate with empty path (prepended at send)
	}
	if rt := s.find(prefix); rt != nil && rt.exporting {
		return rt.exported, true
	}
	return nil, false
}

// syncPeer pushes the full table to a newly established peer, in prefix
// order: the advertisement sequence lands on the wire, so it follows rows.
func (s *Speaker) syncPeer(p *Peer) {
	for _, n := range s.Cfg.Networks {
		p.queueAdvertise(n)
	}
	for _, rt := range s.rows {
		if rt.exporting && s.exportAllowed(p, rt.exported) {
			p.queueAdvertise(rt.prefix)
			rt.sentTo.add(p.idx)
		}
	}
}

// comparePrefixes orders prefixes by address, then mask length — the
// canonical iteration order wherever a per-prefix action emits protocol
// messages.
func comparePrefixes(a, b netaddr.Prefix) int {
	if c := cmp.Compare(a.IP.Uint32(), b.IP.Uint32()); c != 0 {
		return c
	}
	return cmp.Compare(a.Bits, b.Bits)
}

// find returns the prefix's row, or nil.
func (s *Speaker) find(prefix netaddr.Prefix) *route {
	if i, ok := slices.BinarySearchFunc(s.rows, prefix, rowOrder); ok {
		return s.rows[i]
	}
	return nil
}

// route returns the prefix's row, inserting it in its place on first use.
func (s *Speaker) route(prefix netaddr.Prefix) *route {
	i, ok := slices.BinarySearchFunc(s.rows, prefix, rowOrder)
	if ok {
		return s.rows[i]
	}
	rt := &route{prefix: prefix, paths: make([][]uint16, len(s.peers))}
	s.rows = slices.Insert(s.rows, i, rt)
	return rt
}

func rowOrder(rt *route, prefix netaddr.Prefix) int { return comparePrefixes(rt.prefix, prefix) }

// takeDirty hands out the empty dirty-prefix scratch; decideAll gives it
// back. The pair brackets every use of the decision scratch, so one assertion
// here covers re-entry into handleUpdate, peerDown and decide alike.
func (s *Speaker) takeDirty() []netaddr.Prefix {
	if invariant.Enabled {
		invariant.Assertf(!s.deciding, "bgp %s: decision process re-entered while its scratch is in use", s.Stack.Node.Name)
	}
	s.deciding = true
	return s.dirty[:0]
}

// decideAll runs the decision process over the dirty prefixes, each once,
// in prefix order: decisions can queue UPDATEs, and their wire order must be
// a function of the input, not of map iteration or arrival order.
func (s *Speaker) decideAll(dirty []netaddr.Prefix) {
	slices.SortFunc(dirty, comparePrefixes)
	dirty = slices.Compact(dirty)
	for _, prefix := range dirty {
		s.decide(prefix)
	}
	s.dirty = dirty[:0]
	s.deciding = false
}

// handleUpdate processes a received UPDATE from peer p. u may be the
// peer's decode scratch: the table copies the AS path it keeps.
func (s *Speaker) handleUpdate(p *Peer, u Update) {
	s.Stats.UpdatesRecv++
	dirty := s.takeDirty()
	for _, w := range u.Withdrawn {
		if rt := s.find(w); rt != nil && rt.dropPath(p.idx) {
			dirty = append(dirty, w)
		}
	}
	if len(u.NLRI) > 0 && !asPathContains(u.ASPath, s.Cfg.ASN) {
		for _, prefix := range u.NLRI {
			s.route(prefix).setPath(p.idx, u.ASPath)
			dirty = append(dirty, prefix)
		}
	}
	s.decideAll(dirty)
}

func asPathContains(path []uint16, as uint16) bool {
	for _, a := range path {
		if a == as {
			return true
		}
	}
	return false
}

// peerDown clears a dead peer's routes and reconverges.
func (s *Speaker) peerDown(p *Peer) {
	dirty := s.takeDirty()
	for _, rt := range s.rows {
		if rt.dropPath(p.idx) {
			dirty = append(dirty, rt.prefix)
		}
		// Forget what we sent them; a future session gets a full re-sync.
		rt.sentTo.remove(p.idx)
	}
	s.decideAll(dirty)
}

// RIB returns the prefixes with at least one Adj-RIB-In path, in prefix
// order (testing aid).
func (s *Speaker) RIB() []netaddr.Prefix {
	var out []netaddr.Prefix
	for _, rt := range s.rows {
		if rt.hasPaths() {
			out = append(out, rt.prefix)
		}
	}
	return out
}
