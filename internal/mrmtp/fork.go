package mrmtp

import (
	"fmt"
	"slices"

	"repro/internal/netaddr"
	"repro/internal/simnet"
)

// Fork copies the router for a fork of its simulation and attaches the copy
// to the node's copy: the VID table, every adjacency with its timers and
// the advertisement it holds, staged updates, pending JOIN retries, the
// rack-side ARP state and the counters. ICMP listeners belong to whoever
// registered them, and the fork fails at Finish if the copy lacks one.
func (r *Router) Fork(fk *simnet.Forker) *Router {
	node := fk.Node(r.Node)
	nr := &Router{
		Node:       node,
		Cfg:        r.Cfg,
		log:        simnet.Lookup(fk, r.log),
		rootVID:    r.rootVID,
		table:      make([][]vidEntry, len(r.table), cap(r.table)),
		size:       r.size,
		adjs:       make([]*adjacency, len(r.adjs), cap(r.adjs)),
		advWire:    slices.Clone(r.advWire),
		downstream: r.downstream,
		fwdVersion: r.fwdVersion,
		lostSent:   r.lostSent,
		staged:     make([]stagedUpdate, len(r.staged), cap(r.staged)),
		arpCache:   make(map[netaddr.IPv4]arpEntry, len(r.arpCache)),
		arpPending: make(map[netaddr.IPv4][][]byte, len(r.arpPending)),
		frames:     node.Sim.Frames(),
		Stats:      r.Stats,
	}
	for root, rows := range r.table {
		if rows == nil {
			continue
		}
		nrows := make([]vidEntry, len(rows), cap(rows))
		for i, e := range rows {
			nrows[i] = vidEntry{vid: e.vid.Clone(), port: e.port}
		}
		nr.table[root] = nrows
	}
	copies := make(map[*adjacency]*adjacency, len(r.adjs))
	for i, adj := range r.adjs {
		nadj := adj.fork(fk)
		nadj.deadTimer = fk.Timer(adj.deadTimer, func() { nr.deadDue(nadj) })
		nadj.helloTimer = fk.Timer(adj.helloTimer, func() { nr.helloDue(nadj) })
		nadj.advTimer = fk.Timer(adj.advTimer, func() { nr.advertiseDue(nadj) })
		nr.adjs[i] = nadj
		copies[adj] = nadj
	}
	for i, u := range r.staged {
		nr.staged[i] = stagedUpdate{adj: copies[u.adj], sub: u.sub, root: u.root}
	}
	nr.coalesceTimer = fk.Timer(r.coalesceTimer, nr.processStaged)
	for _, jr := range r.joins {
		njr := &pendingJoin{adj: copies[jr.adj], want: cloneVIDs(jr.want), budget: jr.budget}
		njr.timer = fk.Timer(jr.timer, func() { nr.retryJoin(njr) })
		nr.joins = append(nr.joins, njr)
	}
	//simlint:deterministic map copy
	for ip, e := range r.arpCache {
		nr.arpCache[ip] = e
	}
	//simlint:deterministic map copy
	for ip, frames := range r.arpPending {
		q := make([][]byte, len(frames))
		for i, f := range frames {
			q[i] = nr.frames.Clone(f)
		}
		nr.arpPending[ip] = q
	}
	node.Handler = nr
	fk.Bind(r, nr)
	fk.Check(func() error {
		if len(nr.icmpListeners) != len(r.icmpListeners) {
			return fmt.Errorf("mrmtp %s: the fork has %d ICMP listener(s), the source %d", r.Node.Name, len(nr.icmpListeners), len(r.icmpListeners))
		}
		return nil
	})
	return nr
}

// fork copies the adjacency onto the port's copy, all but its timers. The
// advertised VIDs are sub-slices of advBytes, and so are the copy's of its
// own.
func (adj *adjacency) fork(fk *simnet.Forker) *adjacency {
	c := &adjacency{
		port:         fk.Port(adj.port),
		state:        adj.state,
		neighborTier: adj.neighborTier,
		lastRx:       adj.lastRx,
		lastTx:       adj.lastTx,
		consecutive:  adj.consecutive,
		advBytes:     slices.Clone(adj.advBytes),
		requested:    cloneVIDs(adj.requested),
		unreachable:  adj.unreachable,
		reported:     adj.reported,
	}
	if adj.advertised != nil {
		c.advertised = make([]VID, len(adj.advertised), cap(adj.advertised))
	}
	off := 0
	for i, v := range adj.advertised {
		l := len(v)
		c.advertised[i] = VID(c.advBytes[off+1 : off+1+l : off+1+l])
		off += 1 + l
	}
	return c
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
