package bgp

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/netaddr"
	"repro/internal/simnet"
)

// Fork copies the speaker for a fork of its simulation, onto the copy of
// its stack, which must be forked first: the table, every session with its
// timers, MRAI queue and partial message, and the counters. The copy
// installs its own carrier, start and accept hooks on the stack and its
// data and state hooks on each session's connection. A Peer.OnDown hook
// belongs to whoever set it, and the fork fails at Finish if the copy has
// none where the source had one.
func (s *Speaker) Fork(fk *simnet.Forker) *Speaker {
	stack := simnet.Lookup(fk, s.Stack)
	ns := &Speaker{
		Stack: stack,
		Cfg:   s.Cfg,
		sim:   fk.Sim(),
		peers: make([]*Peer, len(s.peers)),
		byIP:  make(map[netaddr.IPv4]*Peer, len(s.byIP)),
		rows:  make([]*route, len(s.rows), cap(s.rows)),
		log:   simnet.Lookup(fk, s.log),
		Stats: s.Stats,
	}
	ns.Cfg.Networks = slices.Clone(s.Cfg.Networks)
	stack.OnPortDown = ns.portDown
	stack.OnPortUp = ns.portUp
	stack.OnStart = ns.start
	stack.TCP.Listen(Port, ns.accept)
	for i, rt := range s.rows {
		ns.rows[i] = rt.fork()
	}
	for i, p := range s.peers {
		np := &Peer{
			sp:           ns,
			idx:          p.idx,
			Iface:        simnet.Lookup(fk, p.Iface),
			LocalIP:      p.LocalIP,
			Neighbor:     p.Neighbor,
			RemoteAS:     p.RemoteAS,
			State:        p.State,
			passive:      p.passive,
			conn:         simnet.Lookup(fk, p.conn),
			recvBuf:      slices.Clone(p.recvBuf),
			openReceived: p.openReceived,
			MsgSent:      p.MsgSent,
			MsgRecv:      p.MsgRecv,
			mraiArmed:    p.mraiArmed,
			pending:      maps.Clone(p.pending),
			order:        slices.Clone(p.order),
		}
		np.holdTimer = fk.Timer(p.holdTimer, np.holdExpired)
		np.keepaliveTimer = fk.Timer(p.keepaliveTimer, np.keepaliveDue)
		np.retryTimer = fk.Timer(p.retryTimer, np.retryDue)
		np.mraiTimer = fk.Timer(p.mraiTimer, np.mraiDue)
		if np.conn != nil {
			np.conn.OnData(np.onData)
			np.conn.OnState(np.connState(np.conn))
		}
		ns.peers[i] = np
		ns.byIP[np.Neighbor] = np
		fk.Bind(p, np)
	}
	fk.Bind(s, ns)
	fk.Check(func() error {
		for i, p := range s.peers {
			if (p.OnDown == nil) != (ns.peers[i].OnDown == nil) {
				return fmt.Errorf("bgp %s: the fork of the session to %s lacks its OnDown hook", s.Stack.Node.Name, p.Neighbor)
			}
		}
		return nil
	})
	return ns
}

// fork copies the row: every offered path (an empty path stays distinct
// from no path), the exported path and the sent-to set.
func (rt *route) fork() *route {
	c := &route{
		prefix:    rt.prefix,
		paths:     make([][]uint16, len(rt.paths), cap(rt.paths)),
		exported:  cloneKeepCap(rt.exported),
		exporting: rt.exporting,
		sentTo:    slices.Clone(rt.sentTo),
	}
	for i, path := range rt.paths {
		c.paths[i] = cloneKeepCap(path)
	}
	return c
}

// cloneKeepCap copies s into a slice of the same length and capacity; nil
// stays nil.
func cloneKeepCap(s []uint16) []uint16 {
	if s == nil {
		return nil
	}
	c := make([]uint16, len(s), cap(s))
	copy(c, s)
	return c
}
