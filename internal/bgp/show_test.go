package bgp

import (
	"strings"
	"testing"
	"time"
)

func TestRenderSummary(t *testing.T) {
	tn := newTestNet()
	leaf := tn.router("leaf", 64601, rack11)
	spine := tn.router("spine", 64513)
	tn.link(leaf, spine)
	tn.sim.Start()
	tn.sim.RunFor(5 * time.Second)
	out := spine.sp.RenderSummary()
	for _, want := range []string{
		"local AS number 64513",
		"Established",
		"64601",
		"established 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
	// Message counters move.
	p := spine.sp.Peers()[0]
	if p.MsgSent == 0 || p.MsgRecv == 0 {
		t.Errorf("message counters: sent=%d recv=%d", p.MsgSent, p.MsgRecv)
	}
}

func TestRenderSummaryDownSession(t *testing.T) {
	tn := newTestNet()
	leaf := tn.router("leaf", 64601, rack11)
	spine := tn.router("spine", 64513)
	tn.link(leaf, spine)
	tn.sim.Start()
	tn.sim.RunFor(2 * time.Second)
	leaf.stack.Node.Port(1).Fail()
	tn.sim.RunFor(5 * time.Second)
	out := spine.sp.RenderSummary()
	if !strings.Contains(out, "established 0") {
		t.Errorf("summary should show the dead session:\n%s", out)
	}
}

func TestRenderRIB(t *testing.T) {
	tn := newTestNet()
	leaf := tn.router("leaf", 64601, rack11)
	spine := tn.router("spine", 64513)
	top := tn.router("top", 64512)
	tn.link(leaf, spine)
	tn.link(spine, top)
	tn.sim.Start()
	tn.sim.RunFor(5 * time.Second)
	out := top.sp.RenderRIB()
	if !strings.Contains(out, "192.168.11.0/24") {
		t.Errorf("RIB missing prefix:\n%s", out)
	}
	if !strings.Contains(out, "64513 64601") {
		t.Errorf("RIB missing AS path:\n%s", out)
	}
	_ = leaf
}
