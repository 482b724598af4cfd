package mrmtp

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/metrics"
	"repro/internal/netaddr"
	"repro/internal/simnet"
)

// Fork copies the router for a fork of its simulation and attaches the copy
// to the node's copy, logging to log, the copy of its log: the VID table,
// every adjacency with its timers and the advertisement it holds, and the
// counters, and the rack ARP cache (plain entries, no timer). ICMP listeners
// belong to whoever registered them, and the fork fails at Finish if the
// copy lacks one.
//
// A snapshot holds only what a bring-up leaves settled. Staged updates and
// JOIN retries are pending timers the copy does not claim, which Finish
// refuses; rack frames held for ARP resolution are refused here.
func (r *Router) Fork(fk *simnet.Forker, log *metrics.Log) *Router {
	node := fk.Node(r.Node)
	nr := &Router{
		Node:       node,
		Cfg:        r.Cfg,
		log:        log,
		rootVID:    r.rootVID,
		table:      make([][]vidEntry, len(r.table), cap(r.table)),
		size:       r.size,
		adjs:       make([]*adjacency, len(r.adjs), cap(r.adjs)),
		advWire:    slices.Clone(r.advWire),
		downstream: r.downstream,
		lostSent:   r.lostSent,
		arpCache:   maps.Clone(r.arpCache),
		arpPending: make(map[netaddr.IPv4][][]byte),
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
	for i, adj := range r.adjs {
		nadj := adj.fork(fk)
		nadj.deadTimer = fk.Timer(adj.deadTimer, func() { nr.deadDue(nadj) })
		nadj.helloTimer = fk.Timer(adj.helloTimer, func() { nr.helloDue(nadj) })
		nadj.advTimer = fk.Timer(adj.advTimer, func() { nr.advertiseDue(nadj) })
		nr.adjs[i] = nadj
	}
	node.Handler = nr
	fk.Check(func() error {
		if len(r.arpPending) > 0 {
			return fmt.Errorf("mrmtp %s: %d rack address(es) hold frames awaiting ARP resolution, which a fork does not copy", r.Node.Name, len(r.arpPending))
		}
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
