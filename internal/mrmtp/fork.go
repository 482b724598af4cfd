package mrmtp

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/simnet"
)

// Fork copies the router for a fork of its simulation and attaches the copy
// to the node's copy, logging to log, the copy of its log. The copy is
// written into into — the router an earlier fork attached there, whose
// table, adjacencies and buffers it writes over — or a new one: the VID
// table, every adjacency with its timers and the advertisement it holds,
// and the counters, and the rack ARP cache (plain entries, no timer). ICMP
// listeners belong to whoever registered them, and the fork fails at Finish
// if the copy lacks one.
//
// A snapshot holds only what a bring-up leaves settled. Staged updates and
// JOIN retries are pending timers the copy does not claim, which Finish
// refuses; rack frames held for ARP resolution are refused there too.
func (r *Router) Fork(fk *simnet.Forker, log *metrics.Log, into *Router) *Router {
	node := fk.Node(r.Node)
	nr := into
	if nr == nil {
		nr = &Router{}
	}
	old := *nr
	clear(old.upScratch)
	clear(old.eligScratch)
	clear(old.icmpListeners)
	*nr = Router{
		Node:          node,
		Cfg:           r.Cfg,
		log:           log,
		rootVID:       r.rootVID,
		table:         old.table[:0],
		size:          r.size,
		adjs:          old.adjs[:0],
		advWire:       simnet.CloneInto(old.advWire, r.advWire),
		upScratch:     old.upScratch[:0],
		eligScratch:   old.eligScratch[:0],
		downstream:    r.downstream,
		lostSent:      r.lostSent,
		arpPending:    simnet.EmptyMap(old.arpPending, 0),
		icmpListeners: old.icmpListeners[:0],
		frames:        node.Sim.Frames(),
		Stats:         r.Stats,
	}
	if r.arpCache != nil {
		nr.arpCache = simnet.EmptyMap(old.arpCache, len(r.arpCache))
		//simlint:deterministic map copy
		for ip, e := range r.arpCache {
			nr.arpCache[ip] = e
		}
	}
	// The table's VIDs are copied into one buffer the copy owns and the
	// router never writes: a VID is never changed in place, and each is
	// capped at its end, so growing one copies it out.
	n := 0
	for _, rows := range r.table {
		for _, e := range rows {
			n += len(e.vid)
		}
	}
	vids := old.vidBytes[:0]
	if cap(vids) < n {
		vids = make([]byte, 0, n)
	}
	if cap(nr.table) < len(r.table) {
		nr.table = make([][]vidEntry, 0, cap(r.table))
	}
	for root, rows := range r.table {
		var nrows []vidEntry
		if rows != nil {
			if root < len(old.table) {
				nrows = old.table[root][:0]
			}
			if nrows == nil || cap(nrows) < len(rows) {
				nrows = make([]vidEntry, 0, cap(rows))
			}
			for _, e := range rows {
				off := len(vids)
				vids = append(vids, e.vid...)
				nrows = append(nrows, vidEntry{vid: VID(vids[off:len(vids):len(vids)]), port: e.port})
			}
			simnet.ClearTail(nrows)
		}
		nr.table = append(nr.table, nrows)
	}
	simnet.ClearTail(nr.table)
	nr.vidBytes = vids
	if cap(nr.adjs) < len(r.adjs) {
		nr.adjs = make([]*adjacency, 0, cap(r.adjs))
	}
	for i, adj := range r.adjs {
		nadj, was := adj.fork(fk, simnet.Reused(old.adjs, i))
		nadj.deadTimer = fk.Timer(adj.deadTimer, was.deadTimer, func() func() { return func() { nr.deadDue(nadj) } })
		nadj.helloTimer = fk.Timer(adj.helloTimer, was.helloTimer, func() func() { return func() { nr.helloDue(nadj) } })
		nadj.advTimer = fk.Timer(adj.advTimer, was.advTimer, func() func() { return func() { nr.advertiseDue(nadj) } })
		nr.adjs = append(nr.adjs, nadj)
	}
	simnet.ClearTail(nr.adjs)
	node.Handler = nr
	fk.Check(checkFork, r, nr)
	return nr
}

// checkFork is Fork's deferred check of the copy nr of r: nothing held for
// ARP, every ICMP listener re-registered.
func checkFork(src, dst any) error {
	r, nr := src.(*Router), dst.(*Router)
	if len(r.arpPending) > 0 {
		return fmt.Errorf("mrmtp %s: %d rack address(es) hold frames awaiting ARP resolution, which a fork does not copy", r.Node.Name, len(r.arpPending))
	}
	if len(nr.icmpListeners) != len(r.icmpListeners) {
		return fmt.Errorf("mrmtp %s: the fork has %d ICMP listener(s), the source %d", r.Node.Name, len(nr.icmpListeners), len(r.icmpListeners))
	}
	return nil
}

// fork copies the adjacency onto the port's copy, all but its timers, into
// c, an adjacency of an earlier fork or a new one, and returns it with what
// c held before. The advertised VIDs are sub-slices of advBytes, and so are
// the copy's of its own.
func (adj *adjacency) fork(fk *simnet.Forker, c *adjacency) (*adjacency, adjacency) {
	was := *c
	*c = adjacency{
		port:         fk.Port(adj.port),
		state:        adj.state,
		neighborTier: adj.neighborTier,
		lastRx:       adj.lastRx,
		lastTx:       adj.lastTx,
		consecutive:  adj.consecutive,
		advBytes:     simnet.CloneInto(was.advBytes, adj.advBytes),
		requested:    cloneVIDs(adj.requested),
		unreachable:  adj.unreachable,
		reported:     adj.reported,
	}
	if adj.advertised != nil {
		c.advertised = was.advertised[:0]
		if c.advertised == nil || cap(c.advertised) < len(adj.advertised) {
			c.advertised = make([]VID, 0, cap(adj.advertised))
		}
	}
	off := 0
	for _, v := range adj.advertised {
		l := len(v)
		c.advertised = append(c.advertised, VID(c.advBytes[off+1:off+1+l:off+1+l]))
		off += 1 + l
	}
	simnet.ClearTail(c.advertised)
	return c, was
}

// cloneVIDs copies a VID list and every VID in it.
func cloneVIDs(vids []VID) []VID {
	if vids == nil {
		return nil
	}
	c := make([]VID, len(vids), cap(vids))
	for i, v := range vids {
		c[i] = v.Clone()
	}
	return c
}
