package mrmtp

import (
	"testing"
	"time"

	"repro/internal/ethernet"
	"repro/internal/netaddr"
	"repro/internal/simnet"
)

// sendControl injects a control message into the column as if it came from
// the device at the far end of the given port.
func sendControl(c *column, from *Router, port int, m Message) {
	p := from.Node.Port(port)
	payload, err := m.Marshal()
	if err != nil {
		panic(err)
	}
	f := ethernet.Frame{Dst: netaddr.Broadcast, Src: p.MAC,
		EtherType: ethernet.TypeMRMTP, Payload: payload}
	p.Send(f.Marshal())
}

func TestJoinForUnknownParentIgnored(t *testing.T) {
	// A JOIN for a VID the parent does not hold must produce no OFFER.
	c := newColumn(t)
	before := c.tor.Stats.OffersSent
	sendControl(c, c.spine, 1, Message{Type: TypeJoin, VIDs: []VID{{99}}})
	c.sim.RunFor(10 * time.Millisecond)
	if c.tor.Stats.OffersSent != before {
		t.Error("ToR offered an extension of a VID it does not hold")
	}
}

func TestUpdateForUnknownRootHarmless(t *testing.T) {
	// A LOST for a root nobody knows about must not corrupt state or
	// propagate forever.
	c := newColumn(t)
	spineUpdates := c.spine.Stats.UpdatesSent
	sendControl(c, c.top, 1, Message{Type: TypeUpdate, Sub: UpdateLost, Roots: []byte{200}})
	c.sim.RunFor(50 * time.Millisecond)
	// The spine marks its uplink, still reaches nothing new, and may
	// propagate once (200 was never reachable downstream); the fabric
	// must remain converged for real roots.
	if got := c.spine.VIDs(); !equalStrings(got, []string{"11.1", "12.1"}) {
		t.Errorf("spine VID table corrupted: %v", got)
	}
	_ = spineUpdates
}

func TestDuplicateOfferIdempotent(t *testing.T) {
	// Replaying an OFFER (a retransmission) must not duplicate entries.
	c := newColumn(t)
	if c.spine.TableSize() != 2 {
		t.Fatal("setup failed")
	}
	sendControl(c, c.tor, 1, Message{Type: TypeOffer, VIDs: []VID{{11, 1}}})
	c.sim.RunFor(10 * time.Millisecond)
	if c.spine.TableSize() != 2 {
		t.Errorf("replayed OFFER changed table size to %d", c.spine.TableSize())
	}
}

func TestStaleLostThenFound(t *testing.T) {
	// LOST followed by FOUND for the same root on the same port restores
	// the uplink's eligibility.
	c := newColumn(t)
	sendControl(c, c.top, 1, Message{Type: TypeUpdate, Sub: UpdateLost, Roots: []byte{12}})
	c.runFor(t, 10*time.Millisecond)
	if !c.spine.UnreachableVia(3, 12) {
		t.Fatal("LOST not recorded")
	}
	sendControl(c, c.top, 1, Message{Type: TypeUpdate, Sub: UpdateFound, Roots: []byte{12}})
	c.runFor(t, 10*time.Millisecond)
	if c.spine.UnreachableVia(3, 12) {
		t.Error("FOUND did not clear the unreachable mark")
	}
}

func TestMalformedFramesIgnored(t *testing.T) {
	// Garbage with the MR-MTP ethertype must not crash or change state.
	c := newColumn(t)
	p := c.tor.Node.Port(1)
	for _, payload := range [][]byte{{}, {0xff}, {TypeJoin, 9}, {TypeUpdate}, {TypeData}} {
		f := ethernet.Frame{Dst: netaddr.Broadcast, Src: p.MAC,
			EtherType: ethernet.TypeMRMTP, Payload: payload}
		p.Send(f.Marshal())
	}
	c.sim.RunFor(50 * time.Millisecond)
	if got := c.spine.VIDs(); !equalStrings(got, []string{"11.1", "12.1"}) {
		t.Errorf("garbage frames corrupted the VID table: %v", got)
	}
}

func TestCoalescingBatchesSimultaneousLost(t *testing.T) {
	// Two LOST reports arriving within the coalesce window must be
	// evaluated together (the blast-radius accounting depends on it).
	c := newColumn(t)
	// The spine's only uplink reports both roots lost in two messages.
	sendControl(c, c.top, 1, Message{Type: TypeUpdate, Sub: UpdateLost, Roots: []byte{11}})
	sendControl(c, c.top, 1, Message{Type: TypeUpdate, Sub: UpdateLost, Roots: []byte{12}})
	c.sim.RunFor(50 * time.Millisecond)
	if !c.spine.UnreachableVia(3, 11) || !c.spine.UnreachableVia(3, 12) {
		t.Error("coalesced batch lost a root")
	}
	// Both roots remain reachable downstream (they ARE this pod's own
	// trees), so nothing propagates to the ToRs.
	if c.tor.Stats.UpdatesRecv != 0 {
		t.Error("spine propagated a loss it could absorb")
	}
}

func TestDataFromUnadmittedNeighborDropped(t *testing.T) {
	// Frames from a dampened neighbor are not forwarded (Slow-to-Accept
	// covers the data plane too).
	c := newColumn(t)
	c.tor.Node.Port(1).Fail()
	c.sim.RunFor(300 * time.Millisecond) // spine declares the ToR dead
	c.tor.Node.Port(1).Restore()
	// Immediately inject data before three hellos have re-admitted us.
	before := c.spine.Stats.DataForwarded
	ipPkt := make([]byte, 20)
	ipPkt[0] = 0x45
	sendControl(c, c.tor, 1, Message{Type: TypeHello}) // 1st contact
	f := ethernet.Frame{Dst: netaddr.Broadcast, Src: c.tor.Node.Port(1).MAC,
		EtherType: ethernet.TypeMRMTP, Payload: MarshalData(11, 12, DataTTL, ipPkt)}
	c.tor.Node.Port(1).Send(f.Marshal())
	c.sim.RunFor(5 * time.Millisecond)
	if c.spine.Stats.DataForwarded != before {
		t.Error("spine forwarded data from a not-yet-re-admitted neighbor")
	}
}

// TestDroppedFramesReturnToPool drives HandleFrame's drop dispositions
// directly: each one is the frame's last owner, so the pool must end where
// it started.
func TestDroppedFramesReturnToPool(t *testing.T) {
	c := newColumn(t)
	uplink := c.spine.Node.Port(3)
	hello := ethernet.Frame{Dst: netaddr.Broadcast, Src: c.top.Node.Port(1).MAC,
		EtherType: ethernet.TypeMRMTP, Payload: []byte{TypeHello}}
	notMRMTP, empty := hello, hello
	notMRMTP.EtherType = ethernet.TypeIPv4
	empty.Payload = nil
	cases := []struct {
		name string
		port *simnet.Port
		wire []byte
	}{
		{"runt frame", uplink, make([]byte, ethernet.HeaderLen-1)},
		{"not MR-MTP", uplink, notMRMTP.Marshal()},
		{"empty message", uplink, empty.Marshal()},
		{"no adjacency", c.spine.Node.AddPort(), hello.Marshal()}, // a port added after Start
	}
	for _, tc := range cases {
		inUse := c.sim.FrameStats().InUse
		frame := c.sim.Frames().Get(len(tc.wire))
		copy(frame, tc.wire)
		c.spine.HandleFrame(tc.port, frame)
		if got := c.sim.FrameStats().InUse; got != inUse {
			t.Errorf("%s: pool InUse %d after the drop, want %d", tc.name, got, inUse)
		}
	}
}
