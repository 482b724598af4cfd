package bgp

import (
	"fmt"

	"repro/internal/ipstack"
	"repro/internal/metrics"
	"repro/internal/simnet"
)

// Fork copies the speaker for a fork of its simulation onto stack, the copy
// of its stack, and log, the copy of its log, into into — the speaker an
// earlier fork made for the same copy, whose sessions, rows and buffers it
// writes over — or a new one: the table, every session with its timers,
// MRAI queue and partial message, and the counters. A session's copy takes
// its interface and connection from stack. The copy installs its own
// carrier, start and accept hooks on the stack and its data and state hooks
// on each session's connection. A Peer.OnDown hook belongs to whoever set
// it, and the fork fails at Finish if the copy has none where the source
// had one, or the stack's copy lacks a session's connection.
func (s *Speaker) Fork(fk *simnet.Forker, stack *ipstack.Stack, log *metrics.Log, into *Speaker) *Speaker {
	ns := into
	if ns == nil {
		ns = &Speaker{}
	}
	old := *ns
	clear(old.best)
	*ns = Speaker{
		Stack:    stack,
		Cfg:      s.Cfg,
		sim:      fk.Sim(),
		peers:    old.peers[:0],
		byIP:     simnet.EmptyMap(old.byIP, len(s.byIP)),
		rows:     old.rows[:0],
		log:      log,
		dirty:    old.dirty[:0],
		best:     old.best[:0],
		nhs:      old.nhs[:0],
		wirePath: old.wirePath[:0],
		msg:      old.msg[:0],
		Stats:    s.Stats,
	}
	if cap(ns.rows) < len(s.rows) {
		ns.rows = make([]*route, 0, cap(s.rows))
	}
	if cap(ns.peers) < len(s.peers) {
		ns.peers = make([]*Peer, 0, len(s.peers))
	}
	ns.Cfg.Networks = simnet.CloneInto(old.Cfg.Networks, s.Cfg.Networks)
	stack.OnPortDown = ns.portDown
	stack.OnPortUp = ns.portUp
	stack.OnStart = ns.start
	stack.TCP.Listen(Port, ns.accept)
	for i, rt := range s.rows {
		ns.rows = append(ns.rows, rt.fork(simnet.Reused(old.rows, i)))
	}
	simnet.ClearTail(ns.rows)
	for i, p := range s.peers {
		np := simnet.Reused(old.peers, i)
		was := *np
		*np = Peer{
			sp:           ns,
			idx:          p.idx,
			Iface:        stack.Iface(p.Iface.Port.Index),
			LocalIP:      p.LocalIP,
			Neighbor:     p.Neighbor,
			RemoteAS:     p.RemoteAS,
			State:        p.State,
			passive:      p.passive,
			conn:         stack.TCP.Counterpart(p.conn),
			recvBuf:      simnet.CloneInto(was.recvBuf, p.recvBuf),
			in:           was.in,
			withdrawn:    was.withdrawn,
			openReceived: p.openReceived,
			MsgSent:      p.MsgSent,
			MsgRecv:      p.MsgRecv,
			mraiArmed:    p.mraiArmed,
			order:        simnet.CloneInto(was.order, p.order),
		}
		if p.pending != nil {
			np.pending = simnet.EmptyMap(was.pending, len(p.pending))
			//simlint:deterministic map copy
			for prefix, announce := range p.pending {
				np.pending[prefix] = announce
			}
		}
		np.holdTimer = fk.Timer(p.holdTimer, was.holdTimer, func() func() { return np.holdExpired })
		np.keepaliveTimer = fk.Timer(p.keepaliveTimer, was.keepaliveTimer, func() func() { return np.keepaliveDue })
		np.retryTimer = fk.Timer(p.retryTimer, was.retryTimer, func() func() { return np.retryDue })
		np.mraiTimer = fk.Timer(p.mraiTimer, was.mraiTimer, func() func() { return np.mraiDue })
		if np.conn != nil {
			np.conn.OnData(np.onData)
			np.conn.OnState(np.connState(np.conn))
		}
		ns.peers = append(ns.peers, np)
		ns.byIP[np.Neighbor] = np
	}
	simnet.ClearTail(ns.peers)
	fk.Check(checkFork, s, ns)
	return ns
}

// checkFork is Fork's deferred check of the copy ns of s: every session's
// OnDown hook re-installed and its connection copied.
func checkFork(src, dst any) error {
	s, ns := src.(*Speaker), dst.(*Speaker)
	for i, p := range s.peers {
		if (p.OnDown == nil) != (ns.peers[i].OnDown == nil) {
			return fmt.Errorf("bgp %s: the fork of the session to %s lacks its OnDown hook", s.Stack.Node.Name, p.Neighbor)
		}
		if (p.conn == nil) != (ns.peers[i].conn == nil) {
			return fmt.Errorf("bgp %s: the stack's copy has no copy of the connection to %s", s.Stack.Node.Name, p.Neighbor)
		}
	}
	return nil
}

// fork copies the row into c, a row of an earlier fork or a new one: every
// offered path (an empty path stays distinct from no path), the exported
// path and the sent-to set.
func (rt *route) fork(c *route) *route {
	kept := c.paths
	paths := kept[:0]
	if cap(paths) < len(rt.paths) {
		paths = make([][]uint16, 0, cap(rt.paths))
	}
	*c = route{
		prefix:    rt.prefix,
		exported:  cloneKeepCap(c.exported, rt.exported),
		exporting: rt.exporting,
		sentTo:    simnet.CloneInto(c.sentTo, rt.sentTo),
	}
	for i, path := range rt.paths {
		var slot []uint16
		if i < len(kept) {
			slot = kept[i]
		}
		paths = append(paths, cloneKeepCap(slot, path))
	}
	c.paths = simnet.ClearTail(paths)
	return c
}

// cloneKeepCap copies s into dst's storage where it has room, else into a
// new slice of s's length and capacity; nil stays nil.
func cloneKeepCap(dst, s []uint16) []uint16 {
	if s == nil {
		return nil
	}
	if cap(dst) < len(s) {
		dst = make([]uint16, 0, cap(s))
	}
	return append(dst[:0], s...)
}
