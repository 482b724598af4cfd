package mrmtp

import (
	"bytes"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/ethernet"
	"repro/internal/invariant"
	"repro/internal/metrics"
	"repro/internal/netaddr"
	"repro/internal/simnet"
	"repro/internal/simnet/framepool"
	"repro/internal/topology"
)

// Config configures one MR-MTP router. The only fabric-wide inputs are the
// tier value and, for ToRs, the rack-facing port — exactly the contents of
// the paper's Listing 2 JSON file.
type Config struct {
	// Tier is the device's tier: 1 for ToRs, up to TopTier for the top
	// spines.
	Tier int
	// TopTier is the highest tier in the fabric (3 in the paper).
	TopTier int
	// ServerPort is the first rack-facing port on a ToR (uplinks are
	// numbered before it); 0 on spines.
	ServerPort int
	// RackSubnet is the ToR's server subnet, from which the VID is
	// derived (paper §III.A).
	RackSubnet netaddr.Prefix

	// Identity is the address a spine answers path-trace probes from
	// (the analogue of a router ID on a loopback). MR-MTP devices carry
	// no IP stack, so without an identity the fabric interior stays
	// invisible to traceroute; zero disables trace replies.
	Identity netaddr.IPv4

	// HelloInterval and DeadInterval implement Quick-to-Detect: the
	// paper runs 50 ms hellos with a 100 ms dead timer — a neighbor is
	// assumed down after a single missed hello.
	HelloInterval time.Duration
	DeadInterval  time.Duration
	// AcceptHellos implements Slow-to-Accept: consecutive keep-alives
	// required before a failed neighbor is believed up again (3 in the
	// paper).
	AcceptHellos int
}

// DefaultConfig returns the paper's timer profile for a device.
func DefaultConfig(tier, topTier int) Config {
	return Config{
		Tier:          tier,
		TopTier:       topTier,
		HelloInterval: 50 * time.Millisecond,
		DeadInterval:  100 * time.Millisecond,
		AcceptHellos:  3,
	}
}

// The router's internal timers, which no fabric configures.
const (
	// coalesce is the hold-down applied to received reachability updates
	// so that simultaneous LOST reports (one per meshed tree branch) are
	// processed as one batch.
	coalesce = 200 * time.Microsecond

	// joinRetry is the retransmission interval for the join handshake
	// (the "request-response and accept-acknowledge" reliability of
	// §III.C).
	joinRetry = 200 * time.Millisecond

	// advertiseInterval is the period of the background re-ADVERTISE on
	// live adjacencies. One small frame per second makes tree formation
	// robust to frame loss without a reliable transport, completing the
	// §III.C reliability story.
	advertiseInterval = time.Second
)

// adjacency states.
type adjState int

const (
	adjDown   adjState = iota // never heard from
	adjUp                     // operational
	adjFailed                 // declared dead; Slow-to-Accept applies
)

// adjacency is the per-port neighbor state.
type adjacency struct {
	port         *simnet.Port
	state        adjState
	neighborTier int
	lastRx       time.Duration
	lastTx       time.Duration
	consecutive  int
	deadTimer    *simnet.Timer
	helloTimer   *simnet.Timer
	advTimer     *simnet.Timer

	// advertised is the latest VID set the neighbor offered to extend,
	// decoded over the adjacency's own storage: the VIDs are sub-slices of
	// advBytes, and both are overwritten by the next ADVERTISE that differs.
	// Whatever must outlive that copies the VIDs (maybeJoin's want list).
	advertised []VID
	advBytes   []byte
	// requested holds the parent VIDs we have an outstanding JOIN for.
	requested []VID

	// unreachable records "this port cannot be used for traffic destined to
	// this root VID" (the paper's §VII.B description of what ToRs note after
	// a failure update).
	unreachable rootSet
	// reported holds, for the reachability batch being applied, the roots
	// whose change this neighbor itself reported: it is not told what it
	// already knows. Whoever calls applyReachability fills it, and
	// applyReachability clears it.
	reported rootSet
}

// vidEntry is one VID table row: the VID and its acquisition port.
type vidEntry struct {
	vid  VID
	port int
}

// rootSet is a set of root VIDs (DefaultRoot included), one bit each.
type rootSet [4]uint64

func (s *rootSet) add(root byte)     { s[root>>6] |= 1 << (root & 63) }
func (s *rootSet) remove(root byte)  { s[root>>6] &^= 1 << (root & 63) }
func (s rootSet) has(root byte) bool { return s[root>>6]&(1<<(root&63)) != 0 }

// appendTo appends the members to out in ascending order.
func (s rootSet) appendTo(out []byte) []byte {
	for w, word := range s {
		for ; word != 0; word &= word - 1 {
			out = append(out, byte(w<<6+bits.TrailingZeros64(word)))
		}
	}
	return out
}

// Stats counts router activity.
type Stats struct {
	HellosSent    uint64
	OffersSent    uint64
	UpdatesSent   uint64
	UpdatesRecv   uint64
	DataForwarded uint64
	DataDelivered uint64
	DataDropped   uint64
	TraceReplies  uint64
	NeighborsLost uint64

	// QDSA transition counters (chaos telemetry). NeighborsAccepted
	// counts adjacencies re-admitted through Slow-to-Accept after a
	// failure; HellosDampened counts frames received from a failed
	// neighbor that did not yet clear the accept threshold (each is a
	// reconvergence the dampening suppressed); AcceptResets counts
	// consecutive-hello streaks abandoned because of a gap longer than
	// the dead interval.
	NeighborsAccepted uint64
	HellosDampened    uint64
	AcceptResets      uint64
}

// Router is one MR-MTP device. It implements simnet.Handler directly on
// Ethernet frames: the protocol needs no IP stack in the fabric.
type Router struct {
	Node *simnet.Node
	Cfg  Config

	log     *metrics.Log // nil records nothing
	rootVID byte

	// table is the VID table, the whole routing state: table[root] holds
	// the root's (VID, acquisition port) rows in acquisition order — the
	// downward choice takes the first live one — and is grown to the highest
	// root held. size counts the rows.
	table [][]vidEntry
	size  int
	// adjs holds the fabric adjacencies in ascending port order, which is
	// the order every sweep over the neighbor set sends in. Fabric ports are
	// numbered from 1 without gaps, so port p is adjs[p-1]; see adj.
	adjs []*adjacency

	// advWire caches the marshalled ADVERTISE (identical on every port),
	// invalidated whenever the VID table changes. The periodic
	// re-ADVERTISE on every adjacency makes this a steady-state hot path.
	advWire []byte

	// upScratch and eligScratch back uplinks() and forwardData's eligible
	// set, reused packet to packet so the data plane does not allocate.
	upScratch   []*adjacency
	eligScratch []*adjacency

	// downstream marks roots learned via lower-tier neighbors: they must
	// never be chased through the default up-forwarding path.
	downstream rootSet
	// lostSent marks roots we have propagated LOST for and not yet
	// recovered.
	lostSent rootSet

	// staged reachability updates awaiting coalesced processing.
	staged        []stagedUpdate
	coalesceTimer *simnet.Timer

	// ToR data-plane state (rack-side ARP).
	arpCache   map[netaddr.IPv4]arpEntry
	arpPending map[netaddr.IPv4][][]byte // composed rack frames (see deliverToRack) awaiting resolution

	// icmpListeners receive ICMP messages addressed to the ToR's own
	// gateway address (path-trace replies), excluding echo requests,
	// which the ToR answers itself.
	icmpListeners []ICMPListener

	// frames is the owning simulation's frame-buffer pool: composed
	// outbound frames come from it, a transit data frame is sent on in the
	// buffer it arrived in, and received frames whose bytes have all been
	// copied out go back (DESIGN.md §7, §13).
	frames *framepool.Pool

	Stats Stats
}

type stagedUpdate struct {
	adj  *adjacency
	sub  byte
	root byte
}

type arpEntry struct {
	mac  netaddr.MAC
	port int
}

// New attaches an MR-MTP router to a node. For ToRs (tier 1) the config
// must carry ServerPort and RackSubnet; the VID is derived from the third
// byte of the rack subnet as in §III.A.
func New(node *simnet.Node, cfg Config, log *metrics.Log) *Router {
	r := &Router{
		Node:       node,
		Cfg:        cfg,
		log:        log,
		arpCache:   make(map[netaddr.IPv4]arpEntry),
		arpPending: make(map[netaddr.IPv4][][]byte),
		frames:     node.Sim.Frames(),
	}
	if cfg.Tier == 1 {
		r.rootVID = byte(topology.DeriveVID(cfg.RackSubnet))
	}
	node.Handler = r
	return r
}

func (r *Router) sim() *simnet.Sim { return r.Node.Sim }

func (r *Router) isServerPort(i int) bool {
	return r.Cfg.ServerPort > 0 && i >= r.Cfg.ServerPort
}

// adj returns the adjacency on a fabric port, or nil for any other index.
func (r *Router) adj(port int) *adjacency {
	if port < 1 || port > len(r.adjs) {
		return nil
	}
	return r.adjs[port-1]
}

// Start implements simnet.Handler: announce on every fabric port and start
// the hello machinery.
func (r *Router) Start() {
	for _, p := range r.Node.Ports[1:] {
		if r.isServerPort(p.Index) {
			continue
		}
		adj := &adjacency{port: p}
		r.adjs = append(r.adjs, adj) // Ports is index-ascending, server ports last
		r.sendAdvertise(adj)
		r.scheduleHello(adj)
		r.scheduleAdvertise(adj)
	}
}

// scheduleAdvertise re-announces the joinable VID set periodically so that
// a lost ADVERTISE (or JOIN/OFFER) never wedges tree formation: the next
// announcement restarts the handshake.
func (r *Router) scheduleAdvertise(adj *adjacency) {
	adj.advTimer = r.sim().After(advertiseInterval, func() { r.advertiseDue(adj) })
}

func (r *Router) advertiseDue(adj *adjacency) {
	if adj.state == adjUp {
		r.sendAdvertise(adj)
	}
	adj.advTimer.Reset(advertiseInterval)
}

// --- transmission helpers -------------------------------------------------

// sendOn transmits an MR-MTP control payload on an adjacency. The payload
// is copied into a pooled frame, so callers may reuse it afterwards (the
// cached ADVERTISE is shared across ports and intervals).
func (r *Router) sendOn(adj *adjacency, payload []byte) {
	r.sendFrame(adj, r.newFrame(payload))
}

// newFrame draws a pooled frame holding a copy of payload behind Ethernet
// header room, which the send helpers fill once the egress port is known.
func (r *Router) newFrame(payload []byte) []byte {
	frame := r.frames.Get(ethernet.HeaderLen + len(payload))
	copy(frame[ethernet.HeaderLen:], payload)
	return frame
}

// sendFrame transmits a composed fabric frame — Ethernet header room, then
// the MR-MTP payload — on an adjacency, taking ownership of it. It writes
// the broadcast-addressed header (§VII.F) with the egress port as source,
// which on a transit frame overwrites the previous hop's, and stamps lastTx
// so the hello timer can suppress redundant keep-alives.
func (r *Router) sendFrame(adj *adjacency, frame []byte) {
	adj.lastTx = r.sim().Now()
	ethernet.PutHeader(frame, netaddr.Broadcast, adj.port.MAC, ethernet.TypeMRMTP)
	adj.port.Send(frame)
}

// sendMsg marshals and transmits a control message, dropping it if it
// cannot be encoded (impossible for the fixed-type messages the router
// builds, but dropping beats crashing the simulation). It returns the
// encoded payload for callers that record telemetry, or nil on a drop.
func (r *Router) sendMsg(adj *adjacency, m *Message) []byte {
	wire, err := m.Marshal()
	if err != nil {
		return nil
	}
	r.sendOn(adj, wire)
	return wire
}

func (r *Router) sendAdvertise(adj *adjacency) {
	if r.advWire == nil {
		m := Message{Type: TypeAdvertise, Tier: r.Cfg.Tier, VIDs: r.joinableVIDs()}
		wire, err := m.Marshal()
		if err != nil {
			return
		}
		r.advWire = wire
	}
	// sendOn copies the payload into the frame, so sharing the cached
	// message across ports and intervals is safe.
	r.sendOn(adj, r.advWire)
}

// joinableVIDs lists the VIDs this device extends to upper-tier joiners:
// the ToR's own root VID, or every acquired VID on a spine, in byte order.
func (r *Router) joinableVIDs() []VID {
	if r.Cfg.Tier == 1 {
		return []VID{{r.rootVID}}
	}
	out := make([]VID, 0, r.size)
	for _, rows := range r.table {
		for _, e := range rows {
			out = append(out, e.vid)
		}
	}
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i], out[j]) < 0 })
	return out
}

func (r *Router) scheduleHello(adj *adjacency) {
	adj.helloTimer = r.sim().After(r.Cfg.HelloInterval, func() { r.helloDue(adj) })
}

func (r *Router) helloDue(adj *adjacency) {
	// Keep-alive only when nothing else was sent in the interval
	// (paper §IV.B: any MR-MTP message serves as a keep-alive).
	if r.sim().Now()-adj.lastTx >= r.Cfg.HelloInterval {
		r.Stats.HellosSent++
		r.sendOn(adj, []byte{TypeHello})
	}
	adj.helloTimer.Reset(r.Cfg.HelloInterval)
}

func (r *Router) armDead(adj *adjacency) {
	if adj.deadTimer != nil {
		adj.deadTimer.Reset(r.Cfg.DeadInterval)
		return
	}
	adj.deadTimer = r.sim().After(r.Cfg.DeadInterval, func() { r.deadDue(adj) })
}

func (r *Router) deadDue(adj *adjacency) {
	if adj.state == adjUp {
		r.neighborDown(adj)
	}
}

// --- simnet.Handler -------------------------------------------------------

// PortDown implements simnet.Handler: local carrier loss is an immediate
// neighbor-down (no dead timer involved).
func (r *Router) PortDown(p *simnet.Port) {
	if adj := r.adj(p.Index); adj != nil && adj.state == adjUp {
		r.neighborDown(adj)
	}
}

// PortUp implements simnet.Handler. The adjacency still has to pass
// Slow-to-Accept via received hellos, so nothing happens here beyond
// resuming our own hellos (the hello scheduler never stopped).
func (r *Router) PortUp(p *simnet.Port) {}

// HandleFrame implements simnet.Handler.
func (r *Router) HandleFrame(p *simnet.Port, raw []byte) {
	f, err := ethernet.Unmarshal(raw)
	if err != nil {
		r.frames.Put(raw) // runt frame: nothing was parsed out of it
		return
	}
	if r.isServerPort(p.Index) {
		// Every rack-side disposition copies what it keeps (encapsulation,
		// ARP learning, rack delivery), so the frame is spent on return.
		r.handleRackFrame(p, f)
		r.frames.Put(raw)
		return
	}
	if f.EtherType != ethernet.TypeMRMTP || len(f.Payload) == 0 {
		r.frames.Put(raw) // not MR-MTP, or an empty message: dropped unread
		return
	}
	adj := r.adj(p.Index)
	if adj == nil {
		r.frames.Put(raw) // no adjacency on this port: dropped unread
		return
	}
	now := r.sim().Now()
	switch adj.state {
	case adjDown:
		// First contact brings the adjacency up immediately.
		adj.lastRx = now
		r.adjacencyUp(adj)
	case adjFailed:
		// Slow-to-Accept: require AcceptHellos consecutive keep-alives
		// (any MR-MTP message counts; a gap restarts the count).
		if now-adj.lastRx > r.Cfg.DeadInterval {
			if adj.consecutive > 0 {
				r.Stats.AcceptResets++
			}
			adj.consecutive = 1
		} else {
			adj.consecutive++
		}
		adj.lastRx = now
		if adj.consecutive < r.Cfg.AcceptHellos {
			r.Stats.HellosDampened++
			// Not believed yet: act on nothing, but remember the
			// neighbor's advertisement so the tree re-join can start
			// the moment the neighbor is accepted (the advertise may
			// not be repeated once both ends are past dampening).
			if f.Payload[0] == TypeAdvertise {
				r.learnAdvertise(adj, f.Payload)
			}
			r.frames.Put(raw) // dampened: learnAdvertise copied what was kept
			return
		}
		// The accepting frame itself is processed normally below — it is
		// often the neighbor's re-ADVERTISE, which restarts the tree join.
		r.Stats.NeighborsAccepted++
		r.adjacencyUp(adj)
	case adjUp:
		adj.lastRx = now
		r.armDead(adj)
	}

	switch f.Payload[0] {
	case TypeData:
		if r.handleData(raw, f.Payload) {
			r.frames.Put(raw)
		}
		return
	case TypeAdvertise:
		// The periodic re-ADVERTISE is the steady state's most frequent
		// control message, and it is read where it lies.
		if r.learnAdvertise(adj, f.Payload) {
			r.maybeJoin(adj)
		}
		r.frames.Put(raw)
		return
	}
	// The other control messages decode into value types (ParseMessage
	// copies VIDs and roots), so the frame is dead once handleControl
	// returns.
	if m, err := ParseMessage(f.Payload); err == nil {
		r.handleControl(adj, m)
	}
	r.frames.Put(raw)
}

func (r *Router) adjacencyUp(adj *adjacency) {
	adj.state = adjUp
	r.Node.ForwardingChanged()
	adj.consecutive = 0
	r.armDead(adj)
	r.sendAdvertise(adj)
	// Act on any advertisement recorded while the neighbor was dampened.
	r.maybeJoin(adj)
	// Roots we had written off may be reachable again through this port.
	r.reevaluateLostRoots()
}

// neighborDown implements Quick-to-Detect failure handling: remove the VID
// table entries acquired through the port and propagate LOST updates for
// roots that are now unreachable from this device.
func (r *Router) neighborDown(adj *adjacency) {
	r.Stats.NeighborsLost++
	adj.state = adjFailed
	r.Node.ForwardingChanged() // the state, and the marks cleared below
	adj.consecutive = 0
	if adj.deadTimer != nil {
		adj.deadTimer.Stop()
	}
	adj.advertised = adj.advertised[:0]
	adj.requested = adj.requested[:0]

	// Marks recorded against the dead port are stale either way.
	affected := adj.unreachable
	adj.unreachable = rootSet{}
	for root := range r.table {
		if r.dropVia(byte(root), adj) {
			affected.add(byte(root))
		}
	}

	// Losing the last live uplink kills default up-forwarding for every
	// root this device cannot name: spines hold no VID entries for
	// remote-pod roots (they route up by hashed default), so the entry
	// sweep above finds nothing to withdraw. DefaultRoot stands in for
	// that whole class, producing the LOST that tells downstream devices
	// to stop hashing flows through us.
	if r.upward(adj) && !r.topTier() && len(r.uplinks()) == 0 {
		affected.add(DefaultRoot)
	}

	r.applyReachability(affected)
	if invariant.Enabled {
		r.checkVIDTable()
	}
}

// --- VID table ------------------------------------------------------------

// held returns the root's rows in acquisition order.
func (r *Router) held(root byte) []vidEntry {
	if int(root) >= len(r.table) {
		return nil
	}
	return r.table[root]
}

func (r *Router) hasEntry(v VID) bool {
	for _, e := range r.held(v.Root()) {
		if e.vid.Equal(v) {
			return true
		}
	}
	return false
}

func (r *Router) addEntry(v VID, port int, fromTier int) bool {
	if r.hasEntry(v) {
		return false
	}
	root := v.Root()
	if n := int(root) + 1; n > len(r.table) {
		r.table = slices.Grow(r.table, n-len(r.table))[:n]
	}
	r.table[root] = append(r.table[root], vidEntry{vid: v.Clone(), port: port})
	r.size++
	r.advWire = nil
	r.Node.ForwardingChanged()
	if fromTier < r.Cfg.Tier {
		r.downstream.add(root)
	}
	return true
}

// dropVia removes the root's rows acquired via the adjacency — dead branches
// of a broken tree — and reports whether there were any.
func (r *Router) dropVia(root byte, adj *adjacency) bool {
	rows := r.held(root)
	kept := rows[:0]
	for _, e := range rows {
		if e.port != adj.port.Index {
			kept = append(kept, e)
			continue
		}
		// Allow a future re-JOIN of the parent tree through the same port
		// (recovery after Slow-to-Accept re-admits the neighbor).
		adj.unrequest(e.vid[:len(e.vid)-1])
	}
	if len(kept) == len(rows) {
		return false
	}
	clear(rows[len(kept):])
	r.table[root] = kept
	r.size -= len(rows) - len(kept)
	r.advWire = nil
	r.Node.ForwardingChanged()
	return true
}

// VIDs returns the table contents sorted by VID (testing and Listing 5).
func (r *Router) VIDs() []string {
	out := make([]string, 0, r.size)
	for _, rows := range r.table {
		for _, e := range rows {
			out = append(out, e.vid.String())
		}
	}
	sort.Strings(out)
	return out
}

// RenderVIDTable prints the table in the paper's Listing 5 layout: one row
// per port with the VIDs acquired on it.
func (r *Router) RenderVIDTable() string {
	byPort := make([][]string, len(r.adjs)+1)
	for _, rows := range r.table {
		for _, e := range rows {
			byPort[e.port] = append(byPort[e.port], e.vid.String())
		}
	}
	var b strings.Builder
	for p, vids := range byPort {
		if len(vids) > 0 {
			sort.Strings(vids)
			fmt.Fprintf(&b, "eth%d\t%s\n", p, strings.Join(vids, ", "))
		}
	}
	return b.String()
}

// UnreachableVia reports whether traffic for root must avoid the port.
func (r *Router) UnreachableVia(port int, root byte) bool {
	adj := r.adj(port)
	return adj != nil && adj.unreachable.has(root)
}

// TableSize returns the number of VID entries — the paper's routing-table
// size comparison (Listing 3 vs Listing 5).
func (r *Router) TableSize() int { return r.size }

// --- control plane --------------------------------------------------------

func (r *Router) handleControl(adj *adjacency, m Message) {
	switch m.Type {
	case TypeHello:
		// Liveness already refreshed.
	case TypeJoin:
		r.handleJoin(adj, m.VIDs)
	case TypeOffer:
		r.handleOffer(adj, m.VIDs)
	case TypeAccept:
		r.handleAccept(adj, m.VIDs)
	case TypeAck:
		// Handshake complete; nothing further to record.
	case TypeUpdate:
		r.Stats.UpdatesRecv++
		r.stageUpdate(adj, m.Sub, m.Roots)
	}
}

// learnAdvertise records a received ADVERTISE (the Ethernet payload) on the
// adjacency and reports whether it was well formed. It reads the message
// where it lies: one whose tier and VID list equal the stored ones changes
// nothing, and one that differs is decoded over the adjacency's storage.
// Bytes after the VID list are ignored, as ParseMessage ignores them.
func (r *Router) learnAdvertise(adj *adjacency, b []byte) bool {
	if len(b) < 2 {
		return false
	}
	tier := int(b[1])
	if tier == adj.neighborTier && sameVIDs(b[2:], adj.advertised) {
		return true
	}
	vids, buf, ok := decodeVIDs(b[2:], adj.advertised, adj.advBytes)
	if !ok {
		return false
	}
	adj.advertised, adj.advBytes = vids, buf
	r.learnTier(adj, tier)
	return true
}

// learnTier records the tier a neighbor advertises. A changed tier changes
// which adjacencies are uplinks — an unheard one counts as up until it says
// otherwise — so it is a forwarding-state change.
func (r *Router) learnTier(adj *adjacency, tier int) {
	if adj.neighborTier != tier {
		adj.neighborTier = tier
		r.Node.ForwardingChanged()
	}
}

// maybeJoin requests membership in every tree the lower-tier neighbor
// advertises that we have not acquired through this port yet.
func (r *Router) maybeJoin(adj *adjacency) {
	if adj.neighborTier != r.Cfg.Tier-1 {
		return
	}
	var want []VID
	for _, v := range adj.advertised {
		if r.haveViaPort(v, adj.port.Index) || slices.ContainsFunc(adj.requested, v.Equal) {
			continue
		}
		// A copy: the next ADVERTISE overwrites v, and the retry and
		// requested keep it.
		v = v.Clone()
		want = append(want, v)
		adj.requested = append(adj.requested, v)
	}
	if len(want) == 0 {
		return
	}
	m := Message{Type: TypeJoin, VIDs: want}
	r.sendMsg(adj, &m)
	r.armJoinRetry(adj, want, maxJoinRetries)
}

// maxJoinRetries bounds JOIN retransmission; a fresh ADVERTISE restarts the
// handshake, so a parent that lost the tree meanwhile does not attract an
// endless retry stream.
const maxJoinRetries = 25

// unrequest forgets the outstanding JOIN for parent, if there is one.
func (adj *adjacency) unrequest(parent VID) {
	if i := slices.IndexFunc(adj.requested, parent.Equal); i >= 0 {
		adj.requested = slices.Delete(adj.requested, i, i+1)
	}
}

// haveViaPort reports whether we already hold a child VID of parent
// acquired on the port.
func (r *Router) haveViaPort(parent VID, port int) bool {
	for _, e := range r.held(parent.Root()) {
		if e.port == port && e.vid.HasPrefix(parent) && len(e.vid) == len(parent)+1 {
			return true
		}
	}
	return false
}

// armJoinRetry retransmits the JOIN if the OFFER never arrives (§III.C
// reliability).
func (r *Router) armJoinRetry(adj *adjacency, want []VID, budget int) {
	if budget <= 0 {
		for _, v := range want {
			adj.unrequest(v) // give up; a new ADVERTISE may retry
		}
		return
	}
	r.sim().After(joinRetry, func() { r.retryJoin(adj, want, budget) })
}

// retryJoin re-requests, while the adjacency is up, the VIDs of want it has
// not acquired; budget is the retries left after this one.
func (r *Router) retryJoin(adj *adjacency, want []VID, budget int) {
	if adj.state != adjUp {
		return
	}
	var missing []VID
	for _, v := range want {
		if !r.haveViaPort(v, adj.port.Index) {
			missing = append(missing, v)
			if !slices.ContainsFunc(adj.requested, v.Equal) {
				adj.requested = append(adj.requested, v)
			}
		}
	}
	if len(missing) == 0 {
		return
	}
	m := Message{Type: TypeJoin, VIDs: missing}
	r.sendMsg(adj, &m)
	r.armJoinRetry(adj, missing, budget-1)
}

// handleJoin answers a join request: derive each child VID by appending the
// arrival port number (§III.B) and offer it.
func (r *Router) handleJoin(adj *adjacency, parents []VID) {
	var offers []VID
	for _, parent := range parents {
		if !r.holds(parent) {
			continue
		}
		offers = append(offers, parent.Extend(adj.port.Index))
	}
	if len(offers) == 0 {
		return
	}
	r.Stats.OffersSent++
	m := Message{Type: TypeOffer, VIDs: offers}
	r.sendMsg(adj, &m)
}

// holds reports whether this device owns the VID (its root identity or an
// acquired entry).
func (r *Router) holds(v VID) bool {
	if r.Cfg.Tier == 1 {
		return len(v) == 1 && v[0] == r.rootVID
	}
	return r.hasEntry(v)
}

// handleOffer installs assigned VIDs and confirms with ACCEPT.
func (r *Router) handleOffer(adj *adjacency, vids []VID) {
	var recovered rootSet
	added := false
	for _, v := range vids {
		wasReachable := r.reachable(v.Root())
		if r.addEntry(v, adj.port.Index, adj.neighborTier) {
			added = true
			if !wasReachable {
				recovered.add(v.Root())
			}
		}
		adj.unrequest(v[:len(v)-1])
	}
	m := Message{Type: TypeAccept, VIDs: vids}
	r.sendMsg(adj, &m)
	if added {
		// Our joinable set grew: tell upper tiers.
		for _, other := range r.adjs {
			if other != adj && other.state == adjUp {
				r.sendAdvertise(other)
			}
		}
	}
	adj.reported = recovered // the offering neighbor knows
	r.applyReachability(recovered)
	if invariant.Enabled {
		r.checkVIDTable()
	}
}

// handleAccept finalizes the parent side of the handshake.
func (r *Router) handleAccept(adj *adjacency, vids []VID) {
	m := Message{Type: TypeAck, VIDs: vids}
	r.sendMsg(adj, &m)
}

// --- reachability ----------------------------------------------------------

// uplinks returns the live upper-tier adjacencies in port order. The result
// shares the router's scratch buffer — it is valid until the next call and
// must not be retained; this keeps the per-packet up-forwarding path
// allocation-free.
func (r *Router) uplinks() []*adjacency {
	if r.topTier() {
		return nil
	}
	// adjs is port-ascending, so the result needs no sorting — the
	// per-packet up-forwarding path stays allocation- and sort-free.
	out := r.upScratch[:0]
	for _, adj := range r.adjs {
		if adj.state == adjUp && adj.port.Up() && r.upward(adj) {
			out = append(out, adj)
		}
	}
	r.upScratch = out
	return out
}

// upward reports whether the adjacency leads to a higher tier. A
// neighborTier of 0 means "not yet learned": optimistic, so early traffic
// still flows during fabric bring-up.
func (r *Router) upward(adj *adjacency) bool {
	return adj.neighborTier > r.Cfg.Tier || adj.neighborTier == 0
}

func (r *Router) topTier() bool { return r.Cfg.Tier >= r.Cfg.TopTier }

// reachable reports whether this device can still forward traffic for the
// root: it is the root itself, or the data plane has somewhere to send it.
// The LOST and FOUND it announces are thereby the forwarding rule's own
// verdict, not a second statement of it.
func (r *Router) reachable(root byte) bool {
	return (r.Cfg.Tier == 1 && root == r.rootVID) || len(r.dataCandidates(root)) > 0
}

// stageUpdate queues a received reachability update for coalesced
// processing, so the LOST reports arriving from every meshed-tree branch of
// the same failure are evaluated as one event.
func (r *Router) stageUpdate(adj *adjacency, sub byte, roots []byte) {
	for _, root := range roots {
		r.staged = append(r.staged, stagedUpdate{adj: adj, sub: sub, root: root})
	}
	if r.coalesceTimer == nil {
		r.coalesceTimer = r.sim().After(coalesce, r.processStaged)
	}
}

func (r *Router) processStaged() {
	r.coalesceTimer = nil
	staged := r.staged
	r.staged = nil

	var affected rootSet
	r.Node.ForwardingChanged() // the unreachable marks
	for _, u := range staged {
		affected.add(u.root)
		u.adj.reported.add(u.root)
		if u.sub == UpdateLost {
			u.adj.unreachable.add(u.root)
			r.dropVia(u.root, u.adj)
		} else {
			u.adj.unreachable.remove(u.root)
		}
	}
	r.applyReachability(affected)
	if invariant.Enabled {
		r.checkVIDTable()
	}
}

// applyReachability decides, per affected root, whether this device absorbs
// the change (it still has a usable path: a forwarding-table update the paper
// counts in the blast radius) or must propagate it (it became a relay with
// no choice of its own: "spines along the way only forward the update").
// UPDATEs go out in ascending root order on every live adjacency that did
// not itself report the change; the reported sets are spent on return.
func (r *Router) applyReachability(affected rootSet) {
	var lostRoots, foundRoots []byte
	absorbed := false
	var buf [256]byte
	for _, root := range affected.appendTo(buf[:0]) {
		nowReachable := r.reachable(root)
		wasLost := r.lostSent.has(root)
		switch {
		case !nowReachable && !wasLost:
			lostRoots = append(lostRoots, root)
			r.lostSent.add(root)
		case nowReachable && wasLost:
			foundRoots = append(foundRoots, root)
			r.lostSent.remove(root)
			absorbed = true
		case nowReachable:
			absorbed = true
		}
	}
	if absorbed && len(lostRoots) == 0 {
		r.log.RouteUpdate(r.sim().Now(), r.Node.Name)
	}
	r.propagate(UpdateLost, lostRoots)
	r.propagate(UpdateFound, foundRoots)
	for _, adj := range r.adjs {
		adj.reported = rootSet{}
	}
}

// propagate sends an UPDATE for the roots on every live adjacency, leaving
// out what the neighbor reported itself.
func (r *Router) propagate(sub byte, roots []byte) {
	for _, adj := range r.adjs {
		if adj.state != adjUp || !adj.port.Up() {
			continue
		}
		var send []byte
		for _, root := range roots {
			if !adj.reported.has(root) {
				send = append(send, root)
			}
		}
		if len(send) == 0 {
			continue
		}
		m := Message{Type: TypeUpdate, Sub: sub, Roots: send}
		payload := r.sendMsg(adj, &m)
		if payload == nil {
			continue
		}
		r.Stats.UpdatesSent++
		r.log.ControlMessage(r.sim().Now(), r.Node.Name, ethernet.HeaderLen+len(payload))
	}
}

// reevaluateLostRoots checks, after an adjacency recovery, whether any
// written-off roots are reachable again and announces the recovery.
func (r *Router) reevaluateLostRoots() {
	var recovered rootSet
	var buf [256]byte
	for _, root := range r.lostSent.appendTo(buf[:0]) {
		if r.reachable(root) {
			recovered.add(root)
		}
	}
	r.applyReachability(recovered)
}

// NeighborState reports the adjacency state on a port ("down", "up",
// "failed"), the operational visibility a `show mtp neighbors` would give.
func (r *Router) NeighborState(port int) string {
	adj := r.adj(port)
	if adj == nil {
		return "none"
	}
	switch adj.state {
	case adjUp:
		return "up"
	case adjFailed:
		return "failed"
	}
	return "down"
}
