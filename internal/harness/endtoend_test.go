package harness

import (
	"testing"
	"time"

	"repro/internal/tcp"
	"repro/internal/topology"
	"repro/internal/trafficgen"
)

func TestTCPConnectionAcrossMRMTPFabric(t *testing.T) {
	// The paper's backward-compatibility claim: servers keep ordinary
	// IP/TCP stacks while the fabric replaces TCP/IP entirely. A TCP
	// connection between servers must work unchanged over MR-MTP
	// encapsulation.
	f := buildAndWarm(t, topology.TwoPodSpec(), ProtoMRMTP)
	src, srcDev, _ := f.ServerStack(11, 1)
	dst, dstDev, _ := f.ServerStack(14, 1)
	var got []byte
	dst.TCP.Listen(8080, func(c *tcp.Conn) {
		c.OnData(func(d []byte) { got = append(got, d...) })
	})
	conn := src.TCP.Dial(srcDev.IP, dstDev.IP, 8080)
	conn.Send([]byte("GET / HTTP/1.1\r\n\r\n"))
	f.Sim.RunFor(time.Second)
	if conn.State() != tcp.StateEstablished {
		t.Fatalf("TCP over MR-MTP: state = %v", conn.State())
	}
	if string(got) != "GET / HTTP/1.1\r\n\r\n" {
		t.Errorf("payload corrupted across the fabric: %q", got)
	}
}

func TestTCPSurvivesFailoverAcrossMRMTPFabric(t *testing.T) {
	// A TCP connection must survive a TC1 interface failure: the fabric
	// reroutes within the dead timer and TCP retransmission covers the
	// gap — no connection reset.
	f := buildAndWarm(t, topology.TwoPodSpec(), ProtoMRMTP)
	src, srcDev, _ := f.ServerStack(11, 1)
	dst, dstDev, _ := f.ServerStack(14, 1)
	var got int
	dst.TCP.Listen(8080, func(c *tcp.Conn) {
		c.OnData(func(d []byte) { got += len(d) })
	})
	conn := src.TCP.Dial(srcDev.IP, dstDev.IP, 8080)
	f.Sim.RunFor(time.Second)
	sent := 0
	stop := false
	var pump func()
	pump = func() {
		if stop {
			return
		}
		conn.Send(make([]byte, 100))
		sent += 100
		f.Sim.After(10*time.Millisecond, pump)
	}
	pump()
	f.Sim.RunFor(500 * time.Millisecond)
	if _, err := f.Fail(topology.TC1); err != nil {
		t.Fatal(err)
	}
	f.Sim.RunFor(3 * time.Second)
	stop = true
	f.Sim.RunFor(2 * time.Second) // drain retransmissions
	if conn.State() != tcp.StateEstablished {
		t.Fatalf("connection died across the failover: %v", conn.State())
	}
	if got != sent {
		t.Errorf("stream gap across failover: sent %d, delivered %d", sent, got)
	}
}

func TestLossTrialsAverage(t *testing.T) {
	avg, err := RunLossTrials(DefaultOptions(topology.TwoPodSpec(), ProtoMRMTP, 31), topology.TC2, false, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Dead timer 100ms at ~333pps: per-trial loss in [17, 40] depending
	// on phase; the average must stay in that band.
	if avg < 10 || avg > 45 {
		t.Errorf("averaged TC2 loss = %.1f, want dead-timer band", avg)
	}
}

func TestFailureTrialsAverage(t *testing.T) {
	s, err := RunFailureTrials(DefaultOptions(topology.TwoPodSpec(), ProtoMRMTP, 7), topology.TC1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s.Trials != 4 {
		t.Errorf("trials = %d", s.Trials)
	}
	if s.Convergence < 50*time.Millisecond || s.Convergence > 110*time.Millisecond {
		t.Errorf("mean TC1 convergence = %v, want within the dead-timer phase band", s.Convergence)
	}
	if s.BlastRadius != 3 {
		t.Errorf("mean blast = %.1f, want exactly 3 across seeds", s.BlastRadius)
	}
}

func TestGridRender(t *testing.T) {
	g := NewGrid("test grid", []string{"A", "B"})
	g.Set("TC1", "A", "1")
	g.Set("TC1", "B", "2")
	g.Set("TC2", "A", "3")
	out := g.Render()
	for _, want := range []string{"test grid", "TC1", "TC2", "A", "B"} {
		if !containsStr(out, want) {
			t.Errorf("grid missing %q:\n%s", want, out)
		}
	}
}

func containsStr(h, n string) bool { return indexOf(h, n) >= 0 }

func TestKeepAliveSuppressionUnderLoad(t *testing.T) {
	// Quantified version of the paper's §IX note: the hello share of
	// wire traffic collapses when data flows.
	f := buildAndWarm(t, topology.TwoPodSpec(), ProtoMRMTP)
	src, srcDev, _ := f.ServerStack(11, 1)
	_, dstDev, _ := f.ServerStack(14, 1)
	cfg := trafficgen.DefaultConfig(srcDev.IP, dstDev.IP)
	cfg.Interval = time.Millisecond // 1000 pps: saturate the keep-alive window
	port, err := PickFlowPort(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.SrcPort = port
	sender := trafficgen.NewSender(src, cfg)
	leaf := f.Routers["L-1-1"]
	idleStart := leaf.Stats.HellosSent
	f.Sim.RunFor(5 * time.Second)
	idle := leaf.Stats.HellosSent - idleStart
	sender.Start()
	busyStart := leaf.Stats.HellosSent
	f.Sim.RunFor(5 * time.Second)
	busy := leaf.Stats.HellosSent - busyStart
	sender.Stop()
	// The flow rides one uplink; that port's hellos vanish, the other
	// port's continue: expect roughly half the idle rate.
	if busy >= idle*3/4 {
		t.Errorf("hello count under load = %d, idle = %d; data should suppress keep-alives", busy, idle)
	}
}
