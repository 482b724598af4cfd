package mrmtp

import "testing"

// TestForkRefusesUnsettledState: a snapshot holds only what a bring-up leaves
// settled. The settled column forks; a router holding a staged update, a JOIN
// retry, a rack ARP entry or a frame awaiting ARP makes the fork fail.
func TestForkRefusesUnsettledState(t *testing.T) {
	fork := func(c *column) error {
		fk := c.sim.Fork()
		for _, r := range []*Router{c.tor, c.tor2, c.spine, c.top} {
			r.Fork(fk, c.log)
		}
		_, err := fk.Finish()
		return err
	}
	if err := fork(newColumn(t)); err != nil {
		t.Fatalf("settled column: %v", err)
	}
	server := rack(11).Host(1)
	for _, tc := range []struct {
		name string
		hold func(c *column)
	}{
		{"staged update", func(c *column) { c.spine.stageUpdate(c.spine.adj(3), UpdateLost, []byte{12}) }},
		{"JOIN retry", func(c *column) { c.spine.armJoinRetry(c.spine.adj(1), []VID{{11}}, 1) }},
		{"rack ARP entry", func(c *column) { c.tor.arpCache[server] = arpEntry{port: 2} }},
		{"frame awaiting ARP", func(c *column) { c.tor.deliverToRack([]byte{0x45}, server) }},
	} {
		c := newColumn(t)
		tc.hold(c)
		if err := fork(c); err == nil {
			t.Errorf("%s: the fork succeeded", tc.name)
		}
	}
}
