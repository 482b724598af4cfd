package mrmtp

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/ethernet"
	"repro/internal/netaddr"
	"repro/internal/simnet"
)

// deliver hands a router a control payload as a frame from the neighbor on
// port, the way the wire would.
func deliver(r *Router, port int, payload []byte) {
	p := r.Node.Port(port)
	frame := r.frames.Get(ethernet.HeaderLen + len(payload))
	ethernet.PutHeader(frame, netaddr.Broadcast, p.Peer().MAC, ethernet.TypeMRMTP)
	copy(frame[ethernet.HeaderLen:], payload)
	r.HandleFrame(p, frame)
}

// TestAdvertiseDecodedInPlace holds the in-place ADVERTISE path to
// ParseMessage, the decoder it bypasses: after each received ADVERTISE the
// adjacency's tier and VID list are what ParseMessage makes of the message,
// or unchanged when ParseMessage rejects it. The sequence changes the tier
// alone, lengthens and shortens the list, carries trailing bytes, arrives
// while the neighbor is dampened, and is malformed.
func TestAdvertiseDecodedInPlace(t *testing.T) {
	c := newColumn(t)
	top := c.top
	adj := top.adj(1) // toward the spine
	wire := func(tier int, vids ...VID) []byte {
		return mustWire(t, Message{Type: TypeAdvertise, Tier: tier, VIDs: vids})
	}
	dampened := top.Stats.HellosDampened
	for i, payload := range [][]byte{
		wire(2, VID{11, 1}, VID{12, 1}),
		wire(4, VID{11, 1}, VID{12, 1}), // the tier alone changes
		wire(4, VID{10, 1}, VID{11, 1}, VID{12, 1, 7}),
		wire(4, VID{11, 1, 2}),
		append(wire(2, VID{11, 1}), 3, 9, 9), // trailing bytes are not read
		{TypeAdvertise, 2, 2, 2, 11, 1},      // count 2, one VID: rejected
		{TypeAdvertise},                      // no tier: rejected
		wire(2),
		wire(2, VID{11, 1}, VID{12, 1}),
	} {
		wantTier, want := adj.neighborTier, fmt.Sprint(adj.advertised)
		if m, err := ParseMessage(payload); err == nil {
			wantTier, want = m.Tier, fmt.Sprint(m.VIDs)
		}
		if i == 6 {
			top.neighborDown(adj) // two arrive dampened, the third is accepted
			want = fmt.Sprint(adj.advertised)
		}
		deliver(top, 1, payload)
		if adj.neighborTier != wantTier || fmt.Sprint(adj.advertised) != want {
			t.Errorf("ADVERTISE %d (% x): tier %d, VIDs %v; ParseMessage: tier %d, VIDs %s",
				i, payload, adj.neighborTier, adj.advertised, wantTier, want)
		}
	}
	if got := top.Stats.HellosDampened - dampened; got != 2 || adj.state != adjUp {
		t.Errorf("%d ADVERTISEs dampened and the adjacency is in state %d, want 2 and up", got, adj.state)
	}
}

// TestJoinRetryKeepsItsVIDs: a JOIN's retry carries the VIDs it was armed
// with, although the next ADVERTISE from the same neighbor is decoded over
// the storage they were read from. The top hears [11.1], JOINs it, then
// hears [10.1 11.1], which moves 10.1 into the bytes 11.1 occupied, and JOINs
// 10.1; no OFFER comes, so both retry.
func TestJoinRetryKeepsItsVIDs(t *testing.T) {
	sim := simnet.New(3)
	topN, spineN := sim.AddNode("top"), sim.AddNode("spine")
	sim.Connect(spineN.AddPort(), topN.AddPort())
	var joins []string
	spineN.Handler = handlerFunc(func(_ *simnet.Port, raw []byte) {
		if f, err := ethernet.Unmarshal(raw); err == nil && len(f.Payload) > 0 && f.Payload[0] == TypeJoin {
			if m, err := ParseMessage(f.Payload); err == nil {
				joins = append(joins, fmt.Sprint(m.VIDs))
			}
		}
		sim.Frames().Put(raw)
	})
	cfg := DefaultConfig(3, 3)
	cfg.DeadInterval = time.Hour // the spine sends nothing else
	top := New(topN, cfg, nil)
	sim.Start()
	deliver(top, 1, mustWire(t, Message{Type: TypeAdvertise, Tier: 2, VIDs: []VID{{11, 1}}}))
	deliver(top, 1, mustWire(t, Message{Type: TypeAdvertise, Tier: 2, VIDs: []VID{{10, 1}, {11, 1}}}))
	sim.RunFor(joinRetry + time.Millisecond)
	if got, want := fmt.Sprint(joins), "[[11.1] [10.1] [11.1] [10.1]]"; got != want {
		t.Errorf("JOINs sent: %s, want %s (two, then their retries)", got, want)
	}
}
