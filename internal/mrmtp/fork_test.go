package mrmtp

import (
	"maps"
	"testing"
)

// TestForkRefusesUnsettledState: a fork copies what a router keeps between
// events and refuses what is still in motion. The settled column forks, and
// so does a ToR holding a rack ARP entry, whose copy holds the same entries;
// a router holding a staged update, a JOIN retry or a frame awaiting ARP
// makes the fork fail.
func TestForkRefusesUnsettledState(t *testing.T) {
	fork := func(c *column) (*Router, error) {
		fk := c.sim.Fork(nil)
		var tor *Router
		for _, r := range []*Router{c.tor, c.tor2, c.spine, c.top} {
			if nr := r.Fork(fk, c.log, nil); r == c.tor {
				tor = nr
			}
		}
		_, err := fk.Finish()
		return tor, err
	}
	if _, err := fork(newColumn(t)); err != nil {
		t.Fatalf("settled column: %v", err)
	}
	server := rack(11).Host(1)

	c := newColumn(t)
	c.tor.arpCache[server] = arpEntry{port: 2}
	tor, err := fork(c)
	if err != nil {
		t.Fatalf("rack ARP entry: %v", err)
	}
	if !maps.Equal(tor.arpCache, c.tor.arpCache) {
		t.Errorf("rack ARP entry: the fork's cache %v, the source's %v", tor.arpCache, c.tor.arpCache)
	}
	tor.arpCache[server] = arpEntry{port: 3}
	if c.tor.arpCache[server].port != 2 {
		t.Error("rack ARP entry: a write to the fork's cache reached the source's")
	}

	for _, tc := range []struct {
		name string
		hold func(c *column)
	}{
		{"staged update", func(c *column) { c.spine.stageUpdate(c.spine.adj(3), UpdateLost, []byte{12}) }},
		{"JOIN retry", func(c *column) { c.spine.armJoinRetry(c.spine.adj(1), []VID{{11}}, 1) }},
		{"frame awaiting ARP", func(c *column) { c.tor.deliverToRack([]byte{0x45}, server) }},
	} {
		c := newColumn(t)
		tc.hold(c)
		if _, err := fork(c); err == nil {
			t.Errorf("%s: the fork succeeded", tc.name)
		}
	}
}
