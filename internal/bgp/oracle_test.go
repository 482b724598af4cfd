package bgp

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"repro/internal/ipstack"
	"repro/internal/netaddr"
	"repro/internal/simnet"
)

// oracle is the speaker's routing state as it was before the peer-indexed
// table: an Adj-RIB-In of one neighbor map per prefix, an advertisement
// record per exported prefix with a neighbor map of who heard it, and
// decide, advertise, withdraw, syncPeer, peerDown and handleUpdate as they
// were written over them. A plain map stands in for the FIB and a list per
// peer for Peer.queue. FuzzSpeakerSequence holds the table to it.
type oracle struct {
	asn      uint16
	networks []netaddr.Prefix
	peers    []*oraclePeer
	adjIn    map[netaddr.Prefix]map[netaddr.IPv4]oraclePath
	adv      map[netaddr.Prefix]*oracleAdv
	fib      map[netaddr.Prefix][]ipstack.NextHop
}

type oraclePeer struct {
	neighbor    netaddr.IPv4
	remoteAS    uint16
	iface       *ipstack.Iface
	established bool
	queue       []queued // what Peer.order and Peer.pending hold, in order
}

// queued is one entry of a peer's advertisement queue.
type queued struct {
	prefix   netaddr.Prefix
	announce bool
}

type oraclePath struct {
	peer    *oraclePeer
	asPath  []uint16
	nextHop netaddr.IPv4
}

type oracleAdv struct {
	path   []uint16
	sentTo map[netaddr.IPv4]bool
}

func (o *oracle) isLocalNetwork(p netaddr.Prefix) bool { return slices.Contains(o.networks, p) }

func (o *oracle) queue(p *oraclePeer, prefix netaddr.Prefix, announce bool) {
	if !p.established {
		return
	}
	for i := range p.queue {
		if p.queue[i].prefix == prefix {
			p.queue[i].announce = announce
			return
		}
	}
	p.queue = append(p.queue, queued{prefix, announce})
}

func (o *oracle) exportAllowed(p *oraclePeer, path []uint16) bool {
	return !slices.Contains(path, p.remoteAS)
}

func (o *oracle) decide(prefix netaddr.Prefix) {
	if o.isLocalNetwork(prefix) {
		return
	}
	var best []oraclePath
	bestLen := -1
	for _, e := range o.adjIn[prefix] {
		if bestLen < 0 || len(e.asPath) < bestLen {
			best = append(best[:0], e)
			bestLen = len(e.asPath)
		} else if len(e.asPath) == bestLen {
			best = append(best, e)
		}
	}
	slices.SortFunc(best, func(a, b oraclePath) int {
		return cmp.Compare(a.nextHop.Uint32(), b.nextHop.Uint32())
	})
	if len(best) == 0 {
		delete(o.fib, prefix)
		o.withdraw(prefix)
		return
	}
	var nhs []ipstack.NextHop
	for _, e := range best[:min(len(best), maxPaths)] {
		nhs = append(nhs, ipstack.NextHop{Via: e.nextHop, Iface: e.peer.iface})
	}
	o.fib[prefix] = nhs
	o.advertise(prefix, best[0].asPath)
}

func (o *oracle) advertise(prefix netaddr.Prefix, path []uint16) {
	st := o.adv[prefix]
	if st == nil {
		st = &oracleAdv{sentTo: make(map[netaddr.IPv4]bool)}
		o.adv[prefix] = st
	}
	pathChanged := !slices.Equal(st.path, path)
	if pathChanged {
		st.path = slices.Clone(path)
	}
	for _, p := range o.peers {
		if !p.established {
			continue
		}
		if !o.exportAllowed(p, path) {
			if st.sentTo[p.neighbor] {
				o.queue(p, prefix, false)
				st.sentTo[p.neighbor] = false
			}
			continue
		}
		if pathChanged || !st.sentTo[p.neighbor] {
			o.queue(p, prefix, true)
			st.sentTo[p.neighbor] = true
		}
	}
}

func (o *oracle) withdraw(prefix netaddr.Prefix) {
	st := o.adv[prefix]
	if st == nil {
		return
	}
	for _, p := range o.peers {
		if st.sentTo[p.neighbor] && p.established {
			o.queue(p, prefix, false)
		}
		st.sentTo[p.neighbor] = false
	}
	delete(o.adv, prefix)
}

func (o *oracle) currentExport(prefix netaddr.Prefix) ([]uint16, bool) {
	if o.isLocalNetwork(prefix) {
		return nil, true
	}
	if st := o.adv[prefix]; st != nil {
		return st.path, true
	}
	return nil, false
}

func (o *oracle) decideAll(dirty []netaddr.Prefix) {
	slices.SortFunc(dirty, comparePrefixes)
	for _, prefix := range slices.Compact(dirty) {
		o.decide(prefix)
	}
}

func (o *oracle) handleUpdate(p *oraclePeer, u Update) {
	var dirty []netaddr.Prefix
	for _, w := range u.Withdrawn {
		if entries := o.adjIn[w]; entries != nil {
			if _, had := entries[p.neighbor]; had {
				delete(entries, p.neighbor)
				dirty = append(dirty, w)
			}
		}
	}
	if len(u.NLRI) > 0 && !slices.Contains(u.ASPath, o.asn) {
		for _, prefix := range u.NLRI {
			entries := o.adjIn[prefix]
			if entries == nil {
				entries = make(map[netaddr.IPv4]oraclePath)
				o.adjIn[prefix] = entries
			}
			entries[p.neighbor] = oraclePath{peer: p, asPath: u.ASPath, nextHop: p.neighbor}
			dirty = append(dirty, prefix)
		}
	}
	o.decideAll(dirty)
}

func (o *oracle) peerUp(p *oraclePeer) {
	p.established = true
	for _, n := range o.networks {
		o.queue(p, n, true)
	}
	var prefixes []netaddr.Prefix
	for prefix := range o.adv {
		prefixes = append(prefixes, prefix)
	}
	slices.SortFunc(prefixes, comparePrefixes)
	for _, prefix := range prefixes {
		st := o.adv[prefix]
		if o.exportAllowed(p, st.path) {
			o.queue(p, prefix, true)
			st.sentTo[p.neighbor] = true
		}
	}
}

func (o *oracle) peerDown(p *oraclePeer) {
	p.established = false
	p.queue = nil
	var dirty []netaddr.Prefix
	for prefix, entries := range o.adjIn {
		if _, had := entries[p.neighbor]; had {
			delete(entries, p.neighbor)
			dirty = append(dirty, prefix)
		}
	}
	for _, st := range o.adv {
		st.sentTo[p.neighbor] = false
	}
	o.decideAll(dirty)
}

func (o *oracle) rib() []netaddr.Prefix {
	var out []netaddr.Prefix
	for prefix, entries := range o.adjIn {
		if len(entries) > 0 {
			out = append(out, prefix)
		}
	}
	slices.SortFunc(out, comparePrefixes)
	return out
}

// fuzzPrefixes are the prefixes a FuzzSpeakerSequence input can name, four
// of them sharing an address with another of different length; the last is
// the speaker's own network.
var fuzzPrefixes = func() []netaddr.Prefix {
	var out []netaddr.Prefix
	for i := byte(0); i < 11; i++ {
		out = append(out, prefix(10, 0, i, 0, 24))
	}
	return append(out, prefix(10, 0, 0, 0, 16), prefix(10, 0, 0, 0, 22),
		prefix(10, 0, 4, 0, 22), prefix(10, 0, 4, 0, 23), prefix(192, 168, 99, 0, 24))
}()

// fuzzAS maps an input byte to an AS-path element: the speaker's own AS (a
// loop), one of the four peer ASes, or one of four others.
func fuzzAS(b byte) uint16 {
	switch b % 9 {
	case 0:
		return fuzzASN
	case 1, 2, 3, 4:
		return 65000 + uint16(b%9) - 1
	}
	return 65100 + uint16(b%9) - 5
}

const fuzzASN = 64512

// Operations of a FuzzSpeakerSequence input, one byte each, followed by the
// peer's position and, for an UPDATE or a withdrawal, a 16-bit prefix mask
// (and for an UPDATE a path length and that many AS bytes).
const (
	opUpdate byte = iota
	opWithdraw
	opDown
	opUp
	opFlush
	numOps
)

// speakerRig is a speaker whose peers have no TCP session: a peer is brought
// up by hand, and its MRAI window is held open so that what the decision
// process queues stays in Peer.order and Peer.pending to be compared.
type speakerRig struct {
	sp  *Speaker
	or  *oracle
	buf Update // the speaker's UPDATEs are decoded into one reused Update, as Peer.in
}

func newSpeakerRig(npeers int, peerAS, order []byte) *speakerRig {
	sim := simnet.New(1)
	stack := ipstack.New(sim.AddNode("r"))
	local := fuzzPrefixes[len(fuzzPrefixes)-1]
	cfg := Config{ASN: fuzzASN, Timers: DefaultTimers(), Networks: []netaddr.Prefix{local}}
	cfg.Timers.MRAI = 1 << 62
	rig := &speakerRig{
		sp: New(stack, cfg, nil),
		or: &oracle{asn: fuzzASN, networks: cfg.Networks,
			adjIn: make(map[netaddr.Prefix]map[netaddr.IPv4]oraclePath),
			adv:   make(map[netaddr.Prefix]*oracleAdv),
			fib:   make(map[netaddr.Prefix][]ipstack.NextHop)},
	}
	for i := 0; i < npeers; i++ {
		// Neighbor addresses follow order, not position, so that the best
		// set's address order is not the table's column order.
		subnet := prefix(172, 16, order[i], 0, 24)
		ifc := stack.AddIface(stack.Node.AddPort(), subnet.Host(1), subnet)
		as := 65000 + uint16(peerAS[i]%4)
		rig.sp.AddPeer(ifc, subnet.Host(2), as)
		rig.or.peers = append(rig.or.peers, &oraclePeer{neighbor: subnet.Host(2), remoteAS: as, iface: ifc})
	}
	return rig
}

func (rig *speakerRig) up(i int) {
	p, op := rig.sp.peers[i], rig.or.peers[i]
	if p.State == StateEstablished {
		return
	}
	p.mraiArmed = true // the window stays open: nothing queued is sent
	p.openReceived = true
	p.maybeEstablish()
	rig.or.peerUp(op)
}

func (rig *speakerRig) down(i int) {
	p, op := rig.sp.peers[i], rig.or.peers[i]
	if p.State != StateEstablished {
		return
	}
	p.reset(false)
	rig.or.peerDown(op)
}

func (rig *speakerRig) update(i int, withdrawn, nlri []netaddr.Prefix, path []uint16) {
	p, op := rig.sp.peers[i], rig.or.peers[i]
	if p.State != StateEstablished {
		return
	}
	rig.buf.Withdrawn = append(rig.buf.Withdrawn[:0], withdrawn...)
	rig.buf.NLRI = append(rig.buf.NLRI[:0], nlri...)
	rig.buf.ASPath = append(rig.buf.ASPath[:0], path...)
	rig.sp.handleUpdate(p, rig.buf)
	rig.or.handleUpdate(op, Update{Withdrawn: slices.Clone(withdrawn), NLRI: slices.Clone(nlri), ASPath: slices.Clone(path)})
}

func (rig *speakerRig) flush() {
	for i, p := range rig.sp.peers {
		clear(p.pending)
		p.order = p.order[:0]
		rig.or.peers[i].queue = nil
	}
}

// diff describes the first difference between the speaker and the oracle,
// or returns "".
func (rig *speakerRig) diff() string {
	sp, or := rig.sp, rig.or
	for _, prefix := range fuzzPrefixes {
		var got []ipstack.NextHop
		if r := sp.Stack.FIB.Get(prefix, ipstack.ProtoBGP); r != nil {
			got = r.NextHops
		}
		if want := or.fib[prefix]; !slices.Equal(got, want) {
			return fmt.Sprintf("FIB %s: next hops %v, oracle %v", prefix, got, want)
		}
		gotPath, gotOK := sp.currentExport(prefix)
		wantPath, wantOK := or.currentExport(prefix)
		if gotOK != wantOK || !slices.Equal(gotPath, wantPath) {
			return fmt.Sprintf("export %s: %v %v, oracle %v %v", prefix, gotPath, gotOK, wantPath, wantOK)
		}
	}
	if got, want := sp.RIB(), or.rib(); !slices.Equal(got, want) {
		return fmt.Sprintf("RIB %v, oracle %v", got, want)
	}
	for i, p := range sp.peers {
		var got []queued
		for _, prefix := range p.order {
			got = append(got, queued{prefix, p.pending[prefix]})
		}
		if want := or.peers[i].queue; !slices.Equal(got, want) {
			return fmt.Sprintf("peer %d (%s) queue %v, oracle %v", i, p.Neighbor, got, want)
		}
	}
	return ""
}

// FuzzSpeakerSequence is BGP's stateful target, the counterpart of MR-MTP's
// FuzzRouterFrames: arbitrary sequences of UPDATEs, withdrawals, session
// losses and re-establishments from up to eight peers over sixteen prefixes
// drive the speaker and the oracle above, and after every event the two must
// agree on the FIB, the exported path of every prefix, the RIB's prefixes and
// every peer's queue of advertisements and withdrawals in order. The header
// is the peer count, then a byte per peer for its AS (peers may share one, as
// same-pod spines do) and one for its address rank.
func FuzzSpeakerSequence(f *testing.F) {
	hdr := func(npeers byte, as ...byte) []byte {
		b := []byte{npeers - 1}
		for i := byte(0); i < npeers; i++ {
			b = append(b, as[i], npeers-i) // addresses descend with position
		}
		return b
	}
	mask := func(idx ...int) []byte {
		var m uint16
		for _, i := range idx {
			m |= 1 << i
		}
		return []byte{byte(m), byte(m >> 8)}
	}
	update := func(peer byte, prefixes []byte, path ...byte) []byte {
		b := append([]byte{opUpdate, peer}, prefixes...)
		return append(append(b, byte(len(path))), path...)
	}
	withdraw := func(peer byte, prefixes []byte) []byte { return append([]byte{opWithdraw, peer}, prefixes...) }
	seq := func(parts ...[]byte) []byte { return slices.Concat(parts...) }
	// AS bytes: 1..4 are the peer ASes 65000..65003, 5..8 others, 0 our own.
	// A withdrawn prefix must clear its sent-to bits: once peer 0's path is
	// gone and its withdrawal sent, peer 1, offering its own, must not be
	// sent a second one.
	flush := []byte{opFlush, 0}
	f.Add(seq(hdr(2, 0, 1), update(0, mask(3), 1), withdraw(0, mask(3)), flush, update(1, mask(3), 2)))
	// Peer position 0 alone offers the path.
	f.Add(seq(hdr(3, 0, 1, 2), update(0, mask(0, 11, 12), 1, 5)))
	// ECMP ties, a shorter path, loss and return of the session that had it.
	f.Add(seq(hdr(4, 0, 0, 1, 2), update(0, mask(1, 2), 1, 5), update(1, mask(1, 2), 1, 6),
		update(2, mask(2), 2), []byte{opDown, 2}, flush, update(3, mask(1), 0, 7),
		[]byte{opUp, 2}, update(2, mask(1, 2, 15), 2, 6)))
	// Eight peers, a prefix withdrawn and re-announced by each.
	f.Add(seq(hdr(8, 0, 1, 2, 3, 0, 1, 2, 3), update(5, mask(13, 14), 2, 5), update(6, mask(13), 3),
		withdraw(6, mask(13)), []byte{opDown, 5, opDown, 0, opUp, 0}, update(7, mask(12, 13), 4, 8, 8)))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		npeers := int(data[0]%8) + 1
		data = data[1:]
		if len(data) < 2*npeers {
			return
		}
		peerAS := make([]byte, npeers)
		// Address ranks: the input's bytes, made distinct.
		order := make([]byte, npeers)
		for i := range npeers {
			peerAS[i] = data[2*i]
			order[i] = data[2*i+1]
			for slices.Contains(order[:i], order[i]) {
				order[i]++
			}
		}
		data = data[2*npeers:]
		rig := newSpeakerRig(npeers, peerAS, order)
		for i := range npeers {
			rig.up(i)
		}
		if d := rig.diff(); d != "" {
			t.Fatalf("after bring-up: %s", d)
		}
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		prefixes := func() []netaddr.Prefix {
			m := uint16(next()) | uint16(next())<<8
			var out []netaddr.Prefix
			for i, p := range fuzzPrefixes {
				if m&(1<<i) != 0 {
					out = append(out, p)
				}
			}
			return out
		}
		for step := 0; len(data) > 0 && step < 64; step++ {
			op, peer := next()%numOps, int(next())%npeers
			switch op {
			case opUpdate:
				nlri := prefixes()
				path := make([]uint16, next()%5)
				for i := range path {
					path[i] = fuzzAS(next())
				}
				rig.update(peer, nil, nlri, path)
			case opWithdraw:
				rig.update(peer, prefixes(), nil, nil)
			case opDown:
				rig.down(peer)
			case opUp:
				rig.up(peer)
			case opFlush:
				rig.flush()
			}
			if d := rig.diff(); d != "" {
				t.Fatalf("step %d (op %d, peer %d): %s", step, op, peer, d)
			}
		}
	})
}
