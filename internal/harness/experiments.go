package harness

import (
	"fmt"
	"time"

	"repro/internal/capture"
	"repro/internal/flowhash"
	"repro/internal/ipv4"
	"repro/internal/metrics"
	"repro/internal/simnet"
	"repro/internal/topology"
	"repro/internal/trafficgen"
)

// WarmupTime is long enough for every configuration to reach steady state
// (BGP sessions need a few keepalive intervals; MR-MTP converges in
// milliseconds).
const WarmupTime = 15 * time.Second

// SettleTime bounds the post-failure observation window. The slowest
// reconvergence in the paper's configurations is plain BGP's 3 s hold
// timer; 10 s leaves room for dissemination.
const SettleTime = 10 * time.Second

// warm returns the fabric built and run to steady state: the bring-up every
// experiment starts from. Inside the trial pool it is a fork of the memo's
// snapshot for opts (see warmMemo); anywhere else a bring-up of its own.
func warm(opts Options) (*Fabric, error) {
	if opts.pooled {
		return memo.warm(opts)
	}
	return bringUp(opts)
}

// bringUp is Build plus WarmUp(WarmupTime).
func bringUp(opts Options) (*Fabric, error) {
	f, err := Build(opts)
	if err != nil {
		return nil, err
	}
	if err := f.WarmUp(WarmupTime); err != nil {
		return nil, err
	}
	return f, nil
}

// drawPhase draws a random fraction of a keep-alive period. Experiments
// offset their injection instant by it so trial averages sample timer phase
// like the paper's repeated runs.
func (f *Fabric) drawPhase() time.Duration {
	return time.Duration(f.Sim.Rand().Int63n(int64(time.Second)))
}

// leadIn names what a trial runs on the warm fabric before it injects a
// test case. It is the same for TC1–TC4, so inside the trial pool it runs
// once per trial seed and each case gets a fork of its end (see
// warmMemo.atInjection).
type leadIn uint8

const (
	phaseLeadIn leadIn = iota // a random timer phase (failure trials)
	nearLeadIn                // the probe flow VID 11 → VID 14 and its lead-in (loss trials)
	farLeadIn                 // the probe flow VID 14 → VID 11 and its lead-in (Fig. 8)
)

// run runs the lead-in on f.
func (l leadIn) run(f *Fabric) error {
	if l == phaseLeadIn {
		f.Sim.RunFor(f.drawPhase())
		return nil
	}
	return f.startProbe(l == farLeadIn)
}

// warmThrough returns a warm fabric run through lead.
func warmThrough(opts Options, lead leadIn) (*Fabric, error) {
	f, err := warm(opts)
	if err != nil {
		return nil, err
	}
	if err := lead.run(f); err != nil {
		return nil, err
	}
	return f, nil
}

// atInjection returns a fabric warmed and run through lead, at the instant a
// test case is injected. Inside the trial pool it comes from the memo;
// anywhere else it is a bring-up and a lead-in of its own.
func atInjection(opts Options, lead leadIn) (*Fabric, error) {
	if opts.pooled {
		return memo.atInjection(opts, lead)
	}
	return warmThrough(opts, lead)
}

// done hands a trial's fabric back to the memo once its result is read,
// inside the trial pool; anywhere else the fabric is simply dropped.
func done(f *Fabric) {
	if f.Opts.pooled {
		memo.release(f)
	}
}

// RunFailure measures convergence time, blast radius and control overhead
// for one failure case (Figs. 4, 5, 6).
func RunFailure(opts Options, tc topology.FailureCase) (metrics.Analysis, error) {
	f, err := atInjection(opts, phaseLeadIn)
	if err != nil {
		return metrics.Analysis{}, err
	}
	a, err := measureFailure(f, func(f *Fabric) (time.Duration, error) { return f.Fail(tc) })
	if err == nil {
		done(f)
	}
	return a, err
}

// measureFailure is the Fig. 4–6 measurement around any injection: inject
// into f, a fabric at its injection instant, observe the settle window, and
// return the metrics log's analysis from the injection on.
func measureFailure(f *Fabric, inject func(*Fabric) (time.Duration, error)) (metrics.Analysis, error) {
	f.Log.Reset()
	failAt, err := inject(f)
	if err != nil {
		return metrics.Analysis{}, err
	}
	f.Sim.RunFor(SettleTime)
	return f.Log.Analyze(failAt), nil
}

// probeFlow is the UDP flow between the server at ToR VID 11 and the server
// at ToR VID 14 (paper §VI.D) that the loss and chaos experiments watch. Its
// source port is chosen so both protocols hash it across the monitored
// TC1–TC4 column. The fabric it runs on owns it (Fabric.probe), so a fork
// of the fabric carries a copy.
type probeFlow struct {
	cfg      trafficgen.Config
	src, dst string // the servers' device names
	sender   *trafficgen.Sender
	receiver *trafficgen.Receiver
}

// fork copies the probe onto g, a fork of its fabric in the making, into
// into (the probe g held before) or a new one.
func (p *probeFlow) fork(fk *simnet.Forker, g *Fabric, into *probeFlow) *probeFlow {
	if into == nil {
		into = &probeFlow{}
	}
	*into = probeFlow{
		cfg: p.cfg, src: p.src, dst: p.dst,
		sender:   p.sender.Fork(fk, g.Stacks[p.src], into.sender),
		receiver: p.receiver.Fork(g.Stacks[p.dst], into.receiver),
	}
	return into
}

// startProbe registers the probe flow's endpoints and starts the flow with a
// lead-in — one second plus a random timer phase — so it is established
// (and ARP resolved) before anything is injected. reverse sends VID 14 →
// VID 11 instead.
func (f *Fabric) startProbe(reverse bool) error {
	srcStack, srcDev, err := f.ServerStack(11, 1)
	if err != nil {
		return err
	}
	dstStack, dstDev, err := f.ServerStack(14, 1)
	if err != nil {
		return err
	}
	if reverse {
		srcStack, dstStack = dstStack, srcStack
		srcDev, dstDev = dstDev, srcDev
	}
	p := &probeFlow{cfg: trafficgen.DefaultConfig(srcDev.IP, dstDev.IP), src: srcStack.Node.Name, dst: dstStack.Node.Name}
	if p.cfg.SrcPort, err = PickFlowPort(f, p.cfg); err != nil {
		return err
	}
	p.sender = trafficgen.NewSender(srcStack, p.cfg)
	p.receiver = trafficgen.NewReceiver(dstStack, p.cfg.DstPort)
	f.probe = p
	p.sender.Start()
	f.Sim.RunFor(time.Second + f.drawPhase())
	preLoss := p.sender.Sent() - p.receiver.Report(p.sender).Received
	if preLoss > 2 { // ARP warm-up may cost a packet at the margins
		return fmt.Errorf("harness: probe flow lossy before injection (%d lost)", preLoss)
	}
	return nil
}

// RunLoss measures packet loss across a failure on the probe flow; reverse
// selects the far-from-failure sender of Fig. 8.
func RunLoss(opts Options, tc topology.FailureCase, reverse bool) (trafficgen.Report, error) {
	lead := nearLeadIn
	if reverse {
		lead = farLeadIn
	}
	f, err := atInjection(opts, lead)
	if err != nil {
		return trafficgen.Report{}, err
	}
	if _, err := f.Fail(tc); err != nil {
		return trafficgen.Report{}, err
	}
	f.Sim.RunFor(SettleTime)
	f.probe.sender.Stop()
	f.Sim.RunFor(time.Second) // drain in-flight packets
	report := f.probe.receiver.Report(f.probe.sender)
	done(f)
	return report, nil
}

// PickFlowPort finds a UDP source port whose flow hash selects the first
// uplink at every branching tier, steering the probe flow across the
// monitored TC1–TC4 column for both protocols (which share the flowhash
// function). It fails when none of the 4096 ports from cfg.SrcPort does: the
// probe would then measure another path.
func PickFlowPort(f *Fabric, cfg trafficgen.Config) (uint16, error) {
	for port := cfg.SrcPort; port < cfg.SrcPort+4096; port++ {
		k := flowhash.Key{
			Src: cfg.Src, Dst: cfg.Dst,
			Proto:   ipv4.ProtoUDP,
			SrcPort: port, DstPort: cfg.DstPort,
		}
		if picksFirstUplinks(f.Topo, int(k.Hash())) {
			return port, nil
		}
	}
	return 0, fmt.Errorf("harness: no source port in [%d, %d) steers %v -> %v across the first uplinks", cfg.SrcPort, int(cfg.SrcPort)+4096, cfg.Src, cfg.Dst)
}

// picksFirstUplinks reports whether a flow hash selects uplink 1 of every
// device on the way up from the first leaf: h mod the device's uplink count.
func picksFirstUplinks(topo *topology.Topology, h int) bool {
	for d := topo.Leaves[0]; d.Ports[1].IsUplink(); d = d.Ports[1].Peer.Device {
		uplinks := 0
		for _, p := range d.Ports[1:] {
			if p.IsUplink() {
				uplinks++
			}
		}
		if h%uplinks != 0 {
			return false
		}
	}
	return true
}

// RunKeepAlive captures an idle fabric's keep-alive traffic on the
// L-1-1 ↔ S-1-1 link for the window and summarizes it per class (Figs. 9
// and 10).
func RunKeepAlive(opts Options, window time.Duration) (map[capture.Class]capture.ClassStats, error) {
	f, err := warm(opts)
	if err != nil {
		return nil, err
	}
	fp, err := f.Topo.FailurePoint(topology.TC1)
	if err != nil {
		return nil, err
	}
	var cap capture.Capture
	cap.Tap(f.Sim.Node(fp.Device).Port(fp.Port).Link)
	start := f.Sim.Now()
	f.Sim.RunFor(window)
	return cap.Summary(start, start+window), nil
}

// FailureSummary averages failure trials, as the paper plots run averages.
type FailureSummary struct {
	Trials       int
	Convergence  time.Duration // mean
	BlastRadius  float64       // mean
	ControlBytes float64       // mean
}

// SummarizeFailures averages per-trial results of one cell.
func SummarizeFailures(rs []metrics.Analysis) FailureSummary {
	if len(rs) == 0 {
		return FailureSummary{}
	}
	s := FailureSummary{Trials: len(rs)}
	var conv time.Duration
	for _, r := range rs {
		conv += r.Convergence
		s.BlastRadius += float64(r.BlastRadius)
		s.ControlBytes += float64(r.ControlBytes)
	}
	s.Convergence = conv / time.Duration(len(rs))
	s.BlastRadius /= float64(len(rs))
	s.ControlBytes /= float64(len(rs))
	return s
}

// RunFailureTrials is RunCell over RunFailure, reduced to the summary.
func RunFailureTrials(opts Options, tc topology.FailureCase, n int) (FailureSummary, error) {
	c, err := RunCell(opts, n, func(o Options) (metrics.Analysis, error) { return RunFailure(o, tc) }, SummarizeFailures)
	return c.Summary, err
}

// MeanLost averages the packets lost over loss trials (Figs. 7, 8).
func MeanLost(rs []trafficgen.Report) float64 {
	var total float64
	for _, r := range rs {
		total += float64(r.Lost)
	}
	return total / float64(len(rs))
}

// RunLossTrials is RunCell over RunLoss, reduced to the mean loss.
func RunLossTrials(opts Options, tc topology.FailureCase, reverse bool, n int) (float64, error) {
	c, err := RunCell(opts, n, func(o Options) (trafficgen.Report, error) { return RunLoss(o, tc, reverse) }, MeanLost)
	return c.Summary, err
}

// FlapSummary averages FlapResult trials.
type FlapSummary struct {
	ControlMsgs  float64 // mean
	ControlBytes float64 // mean
	RouteEvents  float64 // mean
	// Recovered reports whether every trial's fabric reconverged.
	Recovered bool
}

// SummarizeFlaps averages flap churn over trials.
func SummarizeFlaps(rs []FlapResult) FlapSummary {
	if len(rs) == 0 {
		return FlapSummary{}
	}
	n := float64(len(rs))
	s := FlapSummary{Recovered: true}
	for _, r := range rs {
		s.ControlMsgs += float64(r.ControlMessages)
		s.ControlBytes += float64(r.ControlBytes)
		s.RouteEvents += float64(r.RouteEvents)
		s.Recovered = s.Recovered && r.Recovered
	}
	s.ControlMsgs /= n
	s.ControlBytes /= n
	s.RouteEvents /= n
	return s
}
