package harness

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/netaddr"
	"repro/internal/topology"
	"repro/internal/udp"
)

func TestNodeFailureSpine(t *testing.T) {
	// Losing a whole pod spine must converge and keep the fabric usable:
	// every prefix stays reachable through the surviving plane.
	for _, proto := range []Protocol{ProtoMRMTP, ProtoBGP} {
		r, err := RunNodeFailure(DefaultOptions(topology.TwoPodSpec(), proto, 9), "S-1-1")
		if err != nil {
			t.Fatalf("%v: %v", proto, err)
		}
		if r.BlastRadius == 0 {
			t.Errorf("%v: spine crash affected nobody", proto)
		}
		t.Logf("%v S-1-1 crash: convergence=%v blast=%d control=%dB", proto, r.Convergence, r.BlastRadius, r.ControlBytes)
	}
}

// TestNodeFailureLogsEveryPort: a crash is one failure event per interface
// in the Log, stamped at the crash instant, and the text journal carries
// them through Render and Parse like a single-interface failure.
func TestNodeFailureLogsEveryPort(t *testing.T) {
	f := buildAndWarm(t, topology.TwoPodSpec(), ProtoMRMTP)
	at, err := f.FailNode("S-1-1")
	if err != nil {
		t.Fatal(err)
	}
	f.Sim.RunFor(time.Second)
	failures := func(events []metrics.Event) []metrics.Event {
		var out []metrics.Event
		for _, e := range events {
			if e.Kind == metrics.KindFailure {
				out = append(out, e)
			}
		}
		return out
	}
	var want []metrics.Event
	for port := 1; port < len(f.Sim.Node("S-1-1").Ports); port++ {
		want = append(want, metrics.Event{At: at, Node: "S-1-1", Kind: metrics.KindFailure, N: port})
	}
	if len(want) < 2 {
		t.Fatalf("S-1-1 has %d interfaces", len(want))
	}
	if got := failures(f.Log.Events); !reflect.DeepEqual(got, want) {
		t.Errorf("failure events = %+v, want %+v", got, want)
	}
	parsed, err := metrics.Parse(metrics.Render(f.Log.Events))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		want[i].At = at.Truncate(time.Microsecond) // the journal's resolution
	}
	if got := failures(parsed); !reflect.DeepEqual(got, want) {
		t.Errorf("failure events after Render/Parse = %+v, want %+v", got, want)
	}
}

func TestNodeFailureTopSpineTrafficSurvives(t *testing.T) {
	// Crash T-1 and verify cross-pod traffic still flows after
	// reconvergence (over T-2..T-4).
	f := buildAndWarm(t, topology.TwoPodSpec(), ProtoMRMTP)
	if _, err := f.FailNode("T-1"); err != nil {
		t.Fatal(err)
	}
	f.Sim.RunFor(2 * time.Second)
	src, srcDev, _ := f.ServerStack(11, 1)
	dst, dstDev, _ := f.ServerStack(14, 1)
	var got int
	dst.ListenUDP(9, func(_, _ netaddr.IPv4, dg udp.Datagram) { got++ })
	for i := 0; i < 40; i++ {
		src.SendUDP(srcDev.IP, dstDev.IP, 9300+uint16(i), 9, []byte("survivor"))
	}
	f.Sim.RunFor(200 * time.Millisecond)
	if got != 40 {
		t.Errorf("delivered %d/40 after top-spine crash", got)
	}
}

func TestNodeCrashAndRebootRecovers(t *testing.T) {
	f := buildAndWarm(t, topology.TwoPodSpec(), ProtoMRMTP)
	if _, err := f.FailNode("S-1-1"); err != nil {
		t.Fatal(err)
	}
	f.Sim.RunFor(2 * time.Second)
	for _, p := range f.Sim.Node("S-1-1").Ports[1:] {
		p.Restore()
	}
	f.Sim.RunFor(5 * time.Second)
	if err := f.CheckConverged(); err != nil {
		t.Fatalf("fabric did not recover from node reboot: %v", err)
	}
}

func TestFlapDampeningMRMTPvsBGP(t *testing.T) {
	// A slowly bouncing interface: down 500 ms, up 4 s — long enough for
	// both protocols to re-engage each cycle, so each flap costs a full
	// lose-and-relearn round. MR-MTP's rounds are 18-byte LOST/FOUND
	// frames; BGP pays withdrawals plus a whole-table resync per session
	// re-establishment.
	mtp, err := RunFlap(DefaultOptions(topology.TwoPodSpec(), ProtoMRMTP, 3), 5, 500*time.Millisecond, 4*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !mtp.Recovered {
		t.Error("MR-MTP fabric did not recover after flapping stopped")
	}
	t.Logf("MR-MTP flap churn: %d msgs / %d bytes / %d route events", mtp.ControlMessages, mtp.ControlBytes, mtp.RouteEvents)

	bgp, err := RunFlap(DefaultOptions(topology.TwoPodSpec(), ProtoBGP, 3), 5, 500*time.Millisecond, 4*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !bgp.Recovered {
		t.Error("BGP fabric did not recover after flapping stopped")
	}
	t.Logf("BGP flap churn: %d msgs / %d bytes / %d route events", bgp.ControlMessages, bgp.ControlBytes, bgp.RouteEvents)
	if bgp.ControlBytes <= mtp.ControlBytes {
		t.Errorf("BGP churn (%d B) should exceed MR-MTP churn (%d B)", bgp.ControlBytes, mtp.ControlBytes)
	}
}

func TestFlapAblationNoDampening(t *testing.T) {
	// A rapidly toggling interface: up only 120 ms at a time, enough for
	// at most two consecutive hellos. Slow-to-Accept (3 hellos) never
	// re-admits the neighbor, so churn is bounded by the first LOST
	// round; with dampening disabled (accept after 1 hello) the fabric
	// re-forms and re-breaks every cycle — the §IV.B design choice.
	damped, err := RunFlap(DefaultOptions(topology.TwoPodSpec(), ProtoMRMTP, 5), 8, 150*time.Millisecond, 120*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(topology.TwoPodSpec(), ProtoMRMTP, 5)
	opts.MTPAccept = 1
	eager, err := RunFlap(opts, 8, 150*time.Millisecond, 120*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("flap churn: damped=%dB eager=%dB", damped.ControlBytes, eager.ControlBytes)
	if eager.ControlBytes <= damped.ControlBytes {
		t.Errorf("eager acceptance (%d B) should churn more than Slow-to-Accept (%d B)",
			eager.ControlBytes, damped.ControlBytes)
	}
}

func TestChaosMRMTP(t *testing.T) {
	// Property: after any sequence of interface failures and restores,
	// once all interfaces are up again the fabric re-converges and
	// delivers traffic. This is the randomized stress version of the
	// paper's single-failure experiments.
	f := buildAndWarm(t, topology.FourPodSpec(), ProtoMRMTP)
	rng := f.Sim.Rand()
	routers := f.Topo.Routers()
	var downed []*topology.Device
	for round := 0; round < 30; round++ {
		if len(downed) > 0 && rng.Intn(2) == 0 {
			i := rng.Intn(len(downed))
			d := downed[i]
			downed = append(downed[:i], downed[i+1:]...)
			port := rng.Intn(len(d.Ports)-1) + 1
			f.Sim.Node(d.Name).Port(port).Restore()
		} else {
			d := routers[rng.Intn(len(routers))]
			port := rng.Intn(len(d.Ports)-1) + 1
			if d.Ports[port].Peer.Device.Tier == topology.TierServer {
				continue
			}
			f.Sim.Node(d.Name).Port(port).Fail()
			downed = append(downed, d)
		}
		f.Sim.RunFor(time.Duration(rng.Intn(400)) * time.Millisecond)
	}
	// Restore everything.
	for _, d := range routers {
		for _, p := range d.Ports[1:] {
			f.Sim.Node(d.Name).Port(p.Index).Restore()
		}
	}
	f.Sim.RunFor(10 * time.Second)
	if err := f.CheckConverged(); err != nil {
		t.Fatalf("fabric did not heal after chaos: %v", err)
	}
	// Every rack pair still reachable.
	checkAllPairs(t, f)
}

func TestChaosBGP(t *testing.T) {
	f := buildAndWarm(t, topology.TwoPodSpec(), ProtoBGP)
	rng := f.Sim.Rand()
	routers := f.Topo.Routers()
	for round := 0; round < 15; round++ {
		d := routers[rng.Intn(len(routers))]
		port := rng.Intn(len(d.Ports)-1) + 1
		if d.Ports[port].Peer.Device.Tier == topology.TierServer {
			continue
		}
		node := f.Sim.Node(d.Name)
		node.Port(port).Fail()
		f.Sim.RunFor(time.Duration(rng.Intn(2000)) * time.Millisecond)
		node.Port(port).Restore()
		f.Sim.RunFor(time.Duration(rng.Intn(1000)) * time.Millisecond)
	}
	f.Sim.RunFor(30 * time.Second)
	if err := f.CheckConverged(); err != nil {
		t.Fatalf("BGP fabric did not heal after chaos: %v", err)
	}
	checkAllPairs(t, f)
}

// checkAllPairs sends a probe between every ordered pair of rack servers.
func checkAllPairs(t *testing.T, f *Fabric) {
	t.Helper()
	type probe struct{ want, got int }
	results := make(map[string]*probe)
	port := uint16(12000)
	for _, src := range f.Topo.Leaves {
		for _, dst := range f.Topo.Leaves {
			if src == dst {
				continue
			}
			srcStack, srcDev, err := f.ServerStack(src.VID, 1)
			if err != nil {
				t.Fatal(err)
			}
			dstStack, dstDev, err := f.ServerStack(dst.VID, 1)
			if err != nil {
				t.Fatal(err)
			}
			key := src.Name + ">" + dst.Name
			pr := &probe{want: 1}
			results[key] = pr
			port++
			dstStack.ListenUDP(port, func(_, _ netaddr.IPv4, dg udp.Datagram) { pr.got++ })
			srcStack.SendUDP(srcDev.IP, dstDev.IP, port, port, []byte(key))
		}
	}
	f.Sim.RunFor(500 * time.Millisecond)
	for key, pr := range results {
		if pr.got != pr.want {
			t.Errorf("pair %s: delivered %d/%d", key, pr.got, pr.want)
		}
	}
}
