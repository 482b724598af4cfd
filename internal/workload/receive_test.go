package workload

import (
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/udp"
)

// receiveRig is a started hybrid engine caught mid-schedule: the path to the
// receiver is cut, so every launched packet flow is still waiting for all of
// its packets, and later flows of both kinds have not launched yet.
type receiveRig struct {
	e                         *Engine
	live, unlaunched, fluidID uint32 // one flow ID of each kind
}

func newReceiveRig(t testing.TB) receiveRig {
	t.Helper()
	w := newRig(t, 1)
	e, err := New(nil, w.hosts, hybridConfig(40, func(*Flow) bool { return true }))
	if err != nil {
		t.Fatal(err)
	}
	w.router.Port(2).Fail()
	e.Start()
	w.sim.RunFor(10 * time.Millisecond)
	r := receiveRig{e: e}
	for i := range e.flows {
		switch f, id := &e.flows[i], uint32(i+1); {
		case f.fluid():
			r.fluidID = id
		case f.pkt == 0:
			r.unlaunched = id
		case f.Packets() > 1 && !f.Done() && !f.Abandoned():
			r.live = id
		}
	}
	if r.live == 0 || r.unlaunched == 0 || r.fluidID == 0 {
		t.Fatalf("rig no longer holds a live (%d), an unlaunched (%d) and a fluid (%d) flow", r.live, r.unlaunched, r.fluidID)
	}
	return r
}

func dataPacket(magic, id, seq uint32) []byte {
	p := make([]byte, wireHeaderLen)
	binary.BigEndian.PutUint32(p[0:], magic)
	binary.BigEndian.PutUint32(p[4:], id)
	binary.BigEndian.PutUint32(p[8:], seq)
	return p
}

// TestOnDatagramIgnoresStrays feeds the receive path what an open UDP port
// can be sent: none of it may panic, finish a flow or count as a delivery.
// The unlaunched-flow row indexed an empty gotMask before the flow table.
func TestOnDatagramIgnoresStrays(t *testing.T) {
	r := newReceiveRig(t)
	e := r.e
	live := &e.flows[r.live-1]
	cases := []struct {
		name    string
		payload []byte
	}{
		{"id 0", dataPacket(Magic, 0, 0)},
		{"id past the schedule", dataPacket(Magic, uint32(len(e.flows))+1, 0)},
		{"id far past the schedule", dataPacket(Magic, 1<<31, 0)},
		{"fluid flow", dataPacket(Magic, r.fluidID, 0)},
		{"unlaunched packet flow", dataPacket(Magic, r.unlaunched, 0)},
		{"seq == Packets", dataPacket(Magic, r.live, uint32(live.Packets()))},
		{"seq far past Packets", dataPacket(Magic, r.live, 1<<31)},
		{"short payload", dataPacket(Magic, r.live, 0)[:wireHeaderLen-1]},
		{"empty payload", nil},
		{"wrong magic", dataPacket(Magic+1, r.live, 0)},
	}
	ps := e.pktOf(live)
	finished, received, dups := e.finished, ps.received, ps.dups
	for _, tc := range cases {
		e.onDatagram(udp.Datagram{Payload: tc.payload})
		if e.finished != finished || ps.received != received || ps.dups != dups {
			t.Fatalf("%s: finished %d→%d, received %d→%d, dups %d→%d", tc.name,
				finished, e.finished, received, ps.received, dups, ps.dups)
		}
	}
	if f := &e.flows[r.unlaunched-1]; f.pkt != 0 || f.Done() {
		t.Errorf("a stray datagram touched the unlaunched flow: %+v", *f)
	}
	// The rig can tell: the same packet, well formed, is a delivery.
	e.onDatagram(udp.Datagram{Payload: dataPacket(Magic, r.live, 0)})
	if ps.received != received+1 {
		t.Errorf("a well-formed packet for a live flow was not delivered: received %d→%d", received, ps.received)
	}
}

// FuzzOnDatagram holds the receive path to its contract for arbitrary
// payload bytes: no panic, and only a flow that was waiting for packets may
// finish.
func FuzzOnDatagram(f *testing.F) {
	r := newReceiveRig(f)
	e := r.e
	f.Add(dataPacket(Magic, r.live, 0))
	f.Add(dataPacket(Magic, r.unlaunched, 0))
	f.Add(dataPacket(Magic, r.fluidID, 0))
	f.Add(dataPacket(Magic, 0, 0))
	f.Add(dataPacket(Magic, uint32(len(e.flows))+1, 0))
	f.Add(dataPacket(Magic, r.live, uint32(e.flows[r.live-1].Packets())))
	f.Add(dataPacket(Magic, r.live, 0)[:wireHeaderLen-1])
	f.Add(dataPacket(Magic+1, r.live, 0))
	f.Fuzz(func(t *testing.T, payload []byte) {
		before := e.finished
		e.onDatagram(udp.Datagram{Payload: payload})
		if e.finished == before {
			return
		}
		if e.finished != before+1 || len(payload) < wireHeaderLen {
			t.Fatalf("finished %d→%d on a %d-byte payload", before, e.finished, len(payload))
		}
		fl := &e.flows[binary.BigEndian.Uint32(payload[4:])-1]
		if ps := e.pktOf(fl); fl.fluid() || ps == nil || !fl.Done() || ps.received != fl.Packets() {
			t.Fatalf("payload %x finished flow %+v", payload, *fl)
		}
	})
}
