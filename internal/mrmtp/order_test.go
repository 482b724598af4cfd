package mrmtp

import (
	"testing"
	"time"

	"repro/internal/flowhash"
	"repro/internal/simnet"
)

// TestDownwardChoiceIsFirstAcquired pins the one order of the VID table the
// control frames do not show (TestControlOrderPinned in internal/harness has
// the other two): a root's entries are tried in acquisition order. A spine
// with two parallel links to one ToR holds 11.1 and 11.2; after the first
// link flaps, 11.1 is re-acquired behind 11.2, and data for root 11 must
// leave on the second link although the first sorts lower by port and by VID.
func TestDownwardChoiceIsFirstAcquired(t *testing.T) {
	sim := simnet.New(31)
	torN, spineN := sim.AddNode("tor"), sim.AddNode("spine")
	sim.Connect(torN.AddPort(), spineN.AddPort())
	sim.Connect(torN.AddPort(), spineN.AddPort())
	torCfg := DefaultConfig(1, 2)
	torCfg.RackSubnet = rack(11)
	New(torN, torCfg, nil)
	spine := New(spineN, DefaultConfig(2, 2), nil)
	sim.Start()
	sim.RunFor(2 * time.Second)

	hop := func() int {
		t.Helper()
		port, ok := spine.NextDataHop(11, flowhash.Key{})
		if !ok {
			t.Fatalf("spine has no hop toward root 11; table %v", spine.VIDs())
		}
		return port
	}
	if got := hop(); got != 1 {
		t.Fatalf("bring-up: root 11 leaves on eth%d, want eth1 (acquired first)", got)
	}
	spineN.Port(1).Fail()
	sim.RunFor(300 * time.Millisecond)
	if got := hop(); got != 2 {
		t.Fatalf("eth1 down: root 11 leaves on eth%d, want eth2", got)
	}
	spineN.Port(1).Restore()
	sim.RunFor(2 * time.Second)
	if got := spine.VIDs(); !equalStrings(got, []string{"11.1", "11.2"}) {
		t.Fatalf("spine did not re-acquire 11.1: %v", got)
	}
	if got := hop(); got != 2 {
		t.Errorf("eth1 back: root 11 leaves on eth%d, want eth2 (11.2 is now the older entry)", got)
	}
}
