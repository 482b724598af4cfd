package mrmtp

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/ethernet"
	"repro/internal/netaddr"
	"repro/internal/simnet"
)

func FuzzParseMessage(f *testing.F) {
	f.Add([]byte{TypeHello})
	f.Add(mustWire(f, Message{Type: TypeAdvertise, Tier: 2, VIDs: []VID{{11}, {12, 1}}}))
	f.Add(mustWire(f, Message{Type: TypeJoin, VIDs: []VID{{11}}}))
	f.Add(mustWire(f, Message{Type: TypeUpdate, Sub: UpdateLost, Roots: []byte{11, 12}}))
	f.Add([]byte{TypeJoin, 255, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ParseMessage(data)
		if err != nil {
			return
		}
		// Anything that parses must re-marshal and re-parse to the same
		// message (canonical wire form).
		out, err := m.Marshal()
		if err != nil {
			t.Fatalf("re-marshal of parsed message failed: %v", err)
		}
		m2, err := ParseMessage(out)
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if m2.Type != m.Type || m2.Tier != m.Tier || m2.Sub != m.Sub ||
			len(m2.VIDs) != len(m.VIDs) || !bytes.Equal(m2.Roots, m.Roots) {
			t.Fatalf("round trip changed the message: %+v -> %+v", m, m2)
		}
	})
}

func FuzzParseData(f *testing.F) {
	f.Add(MarshalData(11, 14, DataTTL, []byte{0x45, 0, 0, 20}))
	f.Add([]byte{TypeData})
	f.Fuzz(func(t *testing.T, data []byte) {
		h, inner, err := ParseData(data)
		if err != nil {
			return
		}
		out := MarshalData(h.SrcRoot, h.DstRoot, h.TTL, inner)
		if !bytes.Equal(out, data) {
			t.Fatalf("data frame round trip diverged")
		}
	})
}

func FuzzParseVID(f *testing.F) {
	f.Add("11.1.2")
	f.Add("255")
	f.Add("11..2")
	f.Fuzz(func(t *testing.T, s string) {
		v, err := ParseVID(s)
		if err != nil {
			return
		}
		w, err := ParseVID(v.String())
		if err != nil || !w.Equal(v) {
			t.Fatalf("VID round trip diverged: %q -> %v -> %v (%v)", s, v, w, err)
		}
	})
}

// FuzzRouterFrames is the stateful target: the input is a sequence of records
// (selector, length, MR-MTP payload), each handed to a router of the warm
// column as a frame from its neighbor, with the simulation run in between.
// The selector's low two bits pick the receiving port and the next two the
// pause before the following frame, so frames can share an instant, share a
// coalescing window, or be a missed hello apart. Whatever arrives —
// unsolicited OFFERs, roots up to 255, UPDATEs for roots nobody holds, JOINs
// for unknown parents, truncated messages — no router may panic, every VID
// table must pass checkVIDTable (which the routers also run after each
// mutation batch under -tags invariants), every router's reachable must agree
// with reachableOracle after every frame, and the frame pool must balance:
// control frames are only ever borrowed. A sequence with a data frame in it
// skips the balance, because data may rightly stay out (behind ARP, or kept
// by a trace reply); TestFramePoolDrains accounts for those.
func FuzzRouterFrames(f *testing.F) {
	const toSpine1, toSpine2, toSpine3, toTor = 0, 1, 2, 3 // receiving port
	const sameInstant, sameBatch, apart, helloMissed = 0 << 2, 1 << 2, 2 << 2, 3 << 2
	rec := func(sel byte, payload []byte) []byte {
		return append([]byte{sel, byte(len(payload))}, payload...)
	}
	msg := func(sel byte, m Message) []byte { return rec(sel, mustWire(f, m)) }
	lost := func(roots ...byte) Message { return Message{Type: TypeUpdate, Sub: UpdateLost, Roots: roots} }
	found := func(roots ...byte) Message { return Message{Type: TypeUpdate, Sub: UpdateFound, Roots: roots} }
	// edge_test.go's cases, as records.
	f.Add(msg(toTor|apart, Message{Type: TypeJoin, VIDs: []VID{{99}}}))
	f.Add(msg(toSpine3|apart, lost(200)))
	f.Add(msg(toSpine1|apart, Message{Type: TypeOffer, VIDs: []VID{{11, 1}}}))
	f.Add(append(msg(toSpine3|apart, lost(12)), msg(toSpine3|apart, found(12))...))
	f.Add(append(msg(toSpine3|sameBatch, lost(11)), msg(toSpine3|sameBatch, lost(12))...))
	var garbage []byte
	for _, payload := range [][]byte{{}, {0xff}, {TypeJoin, 9}, {TypeUpdate}, {TypeData}} {
		garbage = append(garbage, rec(toSpine1|sameInstant, payload)...)
	}
	f.Add(garbage)
	// Beyond them: unsolicited OFFERs for roots at both ends of the byte,
	// withdrawal of the up-default, a long silence, then recovery.
	f.Add(append(msg(toSpine3|apart, Message{Type: TypeOffer, VIDs: []VID{{255, 7}, {0, 1}, {11}}}),
		msg(toTor|helloMissed, Message{Type: TypeOffer, VIDs: []VID{{255, 1, 1}}})...))
	f.Add(append(msg(toTor|helloMissed, lost(DefaultRoot, 12, 255)),
		append(msg(toSpine2|helloMissed, Message{Type: TypeAdvertise, Tier: 1, VIDs: []VID{{12}, {13}}}),
			msg(toTor|apart, found(DefaultRoot))...)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		c := newColumn(t)
		routers := []*Router{c.tor, c.tor2, c.spine, c.top}
		targets := [...]*simnet.Port{
			toSpine1: c.spine.Node.Port(1), toSpine2: c.spine.Node.Port(2),
			toSpine3: c.spine.Node.Port(3), toTor: c.tor.Node.Port(1),
		}
		pauses := [...]time.Duration{0, 100 * time.Microsecond, time.Millisecond, 60 * time.Millisecond}

		// lent is the pool's InUse less the frames on a wire: every link here
		// delivers exactly DefaultLatency after the tap sees the transmit.
		var sent []time.Duration
		for _, l := range c.sim.Links() {
			l.Tap(func(at time.Duration, _ *simnet.Port, _ []byte) { sent = append(sent, at) })
		}
		lent := func() int {
			n := c.sim.FrameStats().InUse
			for _, at := range sent {
				if at+c.sim.DefaultLatency > c.sim.Now() {
					n--
				}
			}
			return n
		}
		c.sim.RunFor(time.Millisecond) // past whatever was on a wire before the taps
		base := lent()

		controlOnly := true
		for n := 0; len(data) >= 2 && n < 64; n++ {
			sel, size := data[0], min(int(data[1]), len(data)-2)
			payload := data[2 : 2+size]
			data = data[2+size:]
			if size > 0 && payload[0] == TypeData {
				controlOnly = false
			}
			port := targets[sel&3]
			frame := c.sim.Frames().Get(ethernet.HeaderLen + size)
			ethernet.PutHeader(frame, netaddr.Broadcast, port.Peer().MAC, ethernet.TypeMRMTP)
			copy(frame[ethernet.HeaderLen:], payload)
			port.Node.Handler.HandleFrame(port, frame)
			c.sim.RunFor(pauses[sel>>2&3])
			holdReachability(t, routers...)
		}
		c.sim.RunFor(300 * time.Millisecond) // join retries, dead timers, coalesced batches

		for _, r := range routers {
			r.checkVIDTable()
			if rows := len(r.VIDs()); rows != r.TableSize() {
				t.Errorf("%s: TableSize() = %d, table holds %d VIDs", r.Node.Name, r.TableSize(), rows)
			}
		}
		if got := lent(); controlOnly && got != base {
			t.Errorf("frame pool holds %d buffers off the wire after a control-only sequence, %d before it", got, base)
		}
	})
}
