package harness

import (
	"testing"
	"time"

	"repro/internal/flowhash"
	"repro/internal/ipv4"
	"repro/internal/topology"
	"repro/internal/trafficgen"
)

func TestPingBothFabrics(t *testing.T) {
	for _, proto := range []Protocol{ProtoMRMTP, ProtoBGP} {
		f := buildAndWarm(t, topology.TwoPodSpec(), proto)
		res, err := Ping(f, 11, 14, time.Second)
		if err != nil {
			t.Fatalf("%v: %v", proto, err)
		}
		if !res.OK {
			t.Fatalf("%v: ping got no reply", proto)
		}
		// RTT = 2 × (hops × link latency + processing); sub-millisecond.
		if res.RTT <= 0 || res.RTT > 10*time.Millisecond {
			t.Errorf("%v: RTT = %v", proto, res.RTT)
		}
		t.Logf("%v: ping 192.168.11.1 -> 192.168.14.1: %v", proto, res.RTT)
	}
}

func TestPingFailsAcrossPartition(t *testing.T) {
	f := buildAndWarm(t, topology.TwoPodSpec(), ProtoMRMTP)
	// Cut both of L-2-2's uplinks: VID 14 becomes unreachable.
	leaf := f.Sim.Node("L-2-2")
	leaf.Port(1).Fail()
	leaf.Port(2).Fail()
	f.Sim.RunFor(time.Second)
	res, err := Ping(f, 11, 14, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK {
		t.Error("ping succeeded across a fully partitioned rack")
	}
}

func TestTracerouteBGPShowsEveryRouter(t *testing.T) {
	// The BGP fabric is a chain of IP hops: leaf gateway, spine, top,
	// spine, leaf, destination = 6 probes.
	f := buildAndWarm(t, topology.TwoPodSpec(), ProtoBGP)
	hops, err := Traceroute(f, 11, 14, 10)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("BGP traceroute:\n%s", RenderHops(hops))
	if len(hops) != 6 {
		t.Fatalf("BGP path = %d hops, want 6 (5 routers + destination)", len(hops))
	}
	for i, h := range hops {
		if h.Addr.IsZero() {
			t.Errorf("hop %d unanswered", i+1)
		}
	}
	if !hops[len(hops)-1].Reached {
		t.Error("destination never reached")
	}
	// First hop is the rack gateway.
	if got := hops[0].Addr.String(); got != "192.168.11.254" {
		t.Errorf("first hop = %s, want the rack gateway", got)
	}
}

func TestTracerouteMRMTPShowsOneHop(t *testing.T) {
	// The MR-MTP fabric is invisible to IP: one gateway hop, then the
	// destination.
	f := buildAndWarm(t, topology.TwoPodSpec(), ProtoMRMTP)
	hops, err := Traceroute(f, 11, 14, 10)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("MR-MTP traceroute:\n%s", RenderHops(hops))
	if len(hops) != 2 {
		t.Fatalf("MR-MTP path = %d hops, want 2 (gateway + destination)", len(hops))
	}
	if got := hops[0].Addr.String(); got != "192.168.11.254" {
		t.Errorf("first hop = %s, want the ingress ToR gateway", got)
	}
	if !hops[1].Reached {
		t.Error("destination never reached")
	}
}

// TestPickFlowPortSteersFirstUplinks holds PickFlowPort's structural rule to
// each plane's own forwarding: on the 2- and 4-PoD fabrics, the probe flow on
// the port it picks leaves every device on its way up from L-1-1 by port 1,
// as Fabric.walk replays the hops.
func TestPickFlowPortSteersFirstUplinks(t *testing.T) {
	for _, spec := range []topology.Spec{topology.TwoPodSpec(), topology.FourPodSpec()} {
		for _, proto := range []Protocol{ProtoMRMTP, ProtoBGP} {
			f := buildAndWarm(t, spec, proto)
			_, srcDev, err := f.ServerStack(11, 1)
			if err != nil {
				t.Fatal(err)
			}
			_, dstDev, err := f.ServerStack(14, 1)
			if err != nil {
				t.Fatal(err)
			}
			cfg := trafficgen.DefaultConfig(srcDev.IP, dstDev.IP)
			port, err := PickFlowPort(f, cfg)
			if err != nil {
				t.Fatalf("%d PoDs, %v: %v", spec.Pods, proto, err)
			}
			key := flowhash.Key{Src: cfg.Src, Dst: cfg.Dst, Proto: ipv4.ProtoUDP, SrcPort: port, DstPort: cfg.DstPort}
			ups := 0
			arrived := f.walk(srcDev.Ports[1].Peer.Device, dstDev.Ports[1].Peer.Device, dstDev.IP, key.Hash(), 6, func(dev *topology.Device, out *topology.Port) {
				if !out.IsUplink() {
					return
				}
				ups++
				if out.Index != 1 {
					t.Errorf("%d PoDs, %v, source port %d: %s leaves by port %d, want 1", spec.Pods, proto, port, dev.Name, out.Index)
				}
			})
			if !arrived || ups == 0 {
				t.Errorf("%d PoDs, %v: the walk arrived %v after %d up hops", spec.Pods, proto, arrived, ups)
			}
		}
	}
}
