package harness

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/capture"
	"repro/internal/chaos"
	"repro/internal/invariant"
	"repro/internal/metrics"
	"repro/internal/topology"
	"repro/internal/trafficgen"
)

// The fork's oracle is a fresh bring-up: a fork of a warm fabric must be
// indistinguishable from a fabric warmed from scratch with the same Options,
// through whatever is run on it next.

// fingerprint is everything a run leaves that the fork could get wrong: the
// wire trace (instant, link, sender and bytes of every frame), the event
// log, the dispatch count and clock, every routing table, the frame pool's
// counters and the next draw of every random stream.
type fingerprint struct {
	frames   int
	wire     string // sha256 over the capture
	log      string
	events   uint64
	now      time.Duration
	tables   string
	pool     string
	nextDraw string
	probe    string // the probe flow's report, if the run had one
	sessions string // every BGP and BFD session's state, if the test reads them
}

// fingerprintOf tallies f after cap recorded its run. It draws from every
// random stream, so f is spent afterwards.
func fingerprintOf(f *Fabric, cap *capture.Capture) fingerprint {
	h := sha256.New()
	var buf [8]byte
	for _, fr := range cap.Frames {
		binary.BigEndian.PutUint64(buf[:], uint64(fr.At))
		h.Write(buf[:])
		h.Write([]byte(fr.Link))
		h.Write([]byte(fr.From))
		binary.BigEndian.PutUint64(buf[:], uint64(len(fr.Raw)))
		h.Write(buf[:])
		h.Write(fr.Raw)
	}
	var tables, draws strings.Builder
	fmt.Fprintf(&draws, "sim %d\n", f.Sim.Rand().Int63())
	for _, n := range f.Sim.Nodes() {
		name := n.Name
		if st := f.Stacks[name]; st != nil {
			fmt.Fprintf(&tables, "%s fib\n%s", name, st.FIB.Render())
		}
		if sp := f.Speakers[name]; sp != nil {
			fmt.Fprintf(&tables, "%s rib %v\n", name, sp.RIB())
		}
		if r := f.Routers[name]; r != nil {
			fmt.Fprintf(&tables, "%s vids %v\n%s", name, r.VIDs(), r.RenderVIDTable())
		}
		fmt.Fprintf(&draws, "%s %d\n", name, n.Rand().Int63())
	}
	for _, l := range f.Sim.Links() {
		fmt.Fprintf(&draws, "%s %d %d\n", l.A.Name(), l.Rand(l.A).Int63(), l.Rand(l.B).Int63())
	}
	return fingerprint{
		frames:   len(cap.Frames),
		wire:     fmt.Sprintf("%x", h.Sum(nil)),
		log:      metrics.Render(f.Log.Events),
		events:   f.Sim.Events(),
		now:      f.Sim.Now(),
		tables:   tables.String(),
		pool:     fmt.Sprintf("%+v", f.Sim.FrameStats()),
		nextDraw: draws.String(),
	}
}

// failScript is the post-warm run of the oracle: TC1-TC4 failed one after
// another, each given longer than BGP's hold time to settle, on a capture of
// every link. A probe flow, when there is one, is then stopped and drained,
// and its report joins the fingerprint.
func failScript(t *testing.T, f *Fabric, probe *probeFlow) fingerprint {
	t.Helper()
	var cap capture.Capture
	cap.TapAll(f.Sim)
	for _, tc := range topology.AllFailureCases() {
		if _, err := f.Fail(tc); err != nil {
			t.Fatal(err)
		}
		f.Sim.RunFor(4 * time.Second)
	}
	report := ""
	if probe != nil {
		probe.sender.Stop()
		f.Sim.RunFor(time.Second)
		report = fmt.Sprintf("%+v", probe.receiver.Report(probe.sender))
	}
	fp := fingerprintOf(f, &cap)
	fp.probe = report
	return fp
}

func compareFingerprints(t *testing.T, what string, got, want fingerprint) {
	t.Helper()
	if got.frames != want.frames || got.wire != want.wire {
		t.Errorf("%s: wire trace differs: %d frames %s, fresh %d frames %s", what, got.frames, got.wire[:12], want.frames, want.wire[:12])
	}
	if got.log != want.log {
		t.Errorf("%s: event log differs:\nfork:\n%s\nfresh:\n%s", what, got.log, want.log)
	}
	if got.events != want.events || got.now != want.now {
		t.Errorf("%s: %d events at %v, fresh %d at %v", what, got.events, got.now, want.events, want.now)
	}
	if got.tables != want.tables {
		t.Errorf("%s: routing tables differ:\nfork:\n%s\nfresh:\n%s", what, got.tables, want.tables)
	}
	if got.pool != want.pool {
		t.Errorf("%s: frame pool %s, fresh %s", what, got.pool, want.pool)
	}
	if got.nextDraw != want.nextDraw {
		t.Errorf("%s: next draws differ:\nfork:\n%s\nfresh:\n%s", what, got.nextDraw, want.nextDraw)
	}
	if got.probe != want.probe {
		t.Errorf("%s: probe flow %s, fresh %s", what, got.probe, want.probe)
	}
	if got.sessions != want.sessions {
		t.Errorf("%s: session states differ:\nfork:\n%s\nfresh:\n%s", what, got.sessions, want.sessions)
	}
}

func TestForkMatchesFreshWarm(t *testing.T) {
	specs := []struct {
		name string
		spec topology.Spec
	}{
		{"2pod", topology.TwoPodSpec()},
		{"4pod", topology.FourPodSpec()},
		{"4tier", fourTier()},
	}
	protos := []Protocol{ProtoMRMTP, ProtoBGP, ProtoBGPBFD}
	seeds := []int64{1, 7, 7920}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, sp := range specs {
		for _, proto := range protos {
			for _, seed := range seeds {
				opts := DefaultOptions(sp.spec, proto, seed)
				name := fmt.Sprintf("%s/%s/seed%d", sp.name, proto, seed)
				t.Run(name, func(t *testing.T) {
					// pooled takes the trial pool's path: a fork of the
					// memo's lead-in fabric.
					pooled := opts
					pooled.pooled = true
					compareFingerprints(t, name, oracleRun(t, pooled), oracleRun(t, opts))
				})
			}
		}
	}
}

// oracleRun warms opts and runs the oracle's script on it. On a three-tier
// fabric the warm-up is the loss path's, nearLeadIn: the probe flow from
// VID 11 to VID 14 and its lead-in, a random timer phase included. The
// four-tier fabric has no such racks and waits out the phase alone.
func oracleRun(t *testing.T, opts Options) fingerprint {
	t.Helper()
	lead := nearLeadIn
	if opts.Spec.Zones != 0 {
		lead = phaseLeadIn
	}
	f, err := atInjection(opts, lead)
	if err != nil {
		t.Fatal(err)
	}
	return failScript(t, f, f.probe)
}

// TestForksAreIsolated runs one fork, then forks the same snapshot again:
// the second must replay the first's run byte for byte, so the first shared
// nothing mutable with the snapshot.
func TestForksAreIsolated(t *testing.T) {
	for _, proto := range []Protocol{ProtoMRMTP, ProtoBGP, ProtoBGPBFD} {
		snap, err := bringUp(DefaultOptions(topology.TwoPodSpec(), proto, 3))
		if err != nil {
			t.Fatal(err)
		}
		run := func() fingerprint {
			g, err := snap.fork(nil)
			if err != nil {
				t.Fatal(err)
			}
			g.Sim.RunFor(g.drawPhase())
			return failScript(t, g, nil)
		}
		first := run()
		compareFingerprints(t, proto.String()+" second fork", run(), first)
	}
}

// TestForkConcurrent forks one snapshot on several goroutines at once, the
// way the trial pool does, and runs every fork. Under -race this is the
// check that a fork only reads its source.
func TestForkConcurrent(t *testing.T) {
	for _, proto := range []Protocol{ProtoMRMTP, ProtoBGPBFD} {
		snap, err := bringUp(DefaultOptions(topology.TwoPodSpec(), proto, 5))
		if err != nil {
			t.Fatal(err)
		}
		const n = 4
		fps := make([]fingerprint, n)
		var wg sync.WaitGroup
		for i := range n {
			wg.Add(1)
			go func() {
				defer wg.Done()
				g, err := snap.fork(nil)
				if err != nil {
					t.Error(err)
					return
				}
				var cap capture.Capture
				cap.TapAll(g.Sim)
				if _, err := g.Fail(topology.TC1); err != nil {
					t.Error(err)
					return
				}
				g.Sim.RunFor(4 * time.Second)
				fps[i] = fingerprintOf(g, &cap)
			}()
		}
		wg.Wait()
		for i := 1; i < n; i++ {
			compareFingerprints(t, fmt.Sprintf("%s fork %d", proto, i), fps[i], fps[0])
		}
	}
}

// TestForkAllocs pins what one fork of a warm snapshot costs the heap, per
// fabric and protocol: the measured figure, with no slack. The frame pool's
// stock is owed rather than copied, so a figure here moves with the state
// the components keep, not with the frames a bring-up happened to return.
// Each fabric has two rows: a fork into new memory, and a fork into a
// released fabric of the same configuration, which must cost at most a
// twentieth of the first. The race detector and the invariants ledger
// allocate on their own account, so the figures are the plain build's.
func TestForkAllocs(t *testing.T) {
	if budget.Race || invariant.Enabled {
		t.Skip("measured in the plain build")
	}
	type cost struct{ allocs, bytes uint64 }
	for _, tc := range []struct {
		name            string
		spec            topology.Spec
		proto           Protocol
		fresh, recycled cost
	}{
		{"2pod", topology.TwoPodSpec(), ProtoMRMTP, cost{802, 101168}, cost{28, 672}},
		{"2pod", topology.TwoPodSpec(), ProtoBGP, cost{1364, 130280}, cost{112, 2048}},
		{"2pod", topology.TwoPodSpec(), ProtoBGPBFD, cost{1695, 149104}, cost{156, 2752}},
		{"4pod", topology.FourPodSpec(), ProtoMRMTP, cost{1519, 189168}, cost{52, 1312}},
		{"4pod", topology.FourPodSpec(), ProtoBGP, cost{3004, 262696}, cost{208, 3840}},
		{"4pod", topology.FourPodSpec(), ProtoBGPBFD, cost{3640, 304912}, cost{292, 5184}},
	} {
		snap, err := bringUp(DefaultOptions(tc.spec, tc.proto, 1))
		if err != nil {
			t.Fatal(err)
		}
		var fresh cost
		fresh.allocs, fresh.bytes = budget.PerRun(20, func() {
			if _, err := snap.fork(nil); err != nil {
				t.Fatal(err)
			}
		})
		if fresh != tc.fresh {
			t.Errorf("%s/%s: a fork allocates %d objects and %d B, want %d and %d", tc.name, tc.proto, fresh.allocs, fresh.bytes, tc.fresh.allocs, tc.fresh.bytes)
		}

		// Into a released fabric: one that ran into a failure, then, turn
		// about, forks of two snapshots of other seeds.
		other, err := bringUp(DefaultOptions(tc.spec, tc.proto, 2))
		if err != nil {
			t.Fatal(err)
		}
		g, err := snap.fork(nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.Fail(topology.TC1); err != nil {
			t.Fatal(err)
		}
		g.Sim.RunFor(SettleTime)
		srcs := [2]*Fabric{other, snap}
		i := 0
		var recycled cost
		recycled.allocs, recycled.bytes = budget.PerRun(20, func() {
			i++
			if _, err := srcs[i%2].fork(g); err != nil {
				t.Fatal(err)
			}
		})
		if recycled != tc.recycled {
			t.Errorf("%s/%s: a fork into a released fabric allocates %d objects and %d B, want %d and %d", tc.name, tc.proto, recycled.allocs, recycled.bytes, tc.recycled.allocs, tc.recycled.bytes)
		}
		if 20*recycled.bytes > fresh.bytes {
			t.Errorf("%s/%s: a fork into a released fabric allocates %d B, over 5 %% of a fork into new memory (%d B)", tc.name, tc.proto, recycled.bytes, fresh.bytes)
		}
	}
}

// TestInjectionForksMatchColdOracles holds the memo's injection instants to
// the cold oracles: every pooled failure and loss trial (both directions) of
// TC1–TC4 equals unpooled RunFailure and coldRunLoss at the trial's seed,
// and every pooled trial of the other Run* — two chaos scenarios, the S-1-1
// crash, a flap storm, a trace scenario and a keep-alive capture — its
// unpooled run, in any order they are asked in: bench's (failure, near,
// far per case, then the others), all of it reversed, and TC2 asked twice
// with the others in between. Each trial runs on a fork of a kept fabric
// written into the fabric an earlier trial, of any kind, released.
func TestInjectionForksMatchColdOracles(t *testing.T) {
	const n = 2
	// A request is a failure or loss trial of one case, or, when other is
	// set, the trial of that name in others.
	type request struct {
		lead  leadIn
		tc    topology.FailureCase
		other string
	}
	crash := chaos.Fault{Kind: chaos.Down, Nodes: []string{"S-1-1"}}
	others := map[string]func(Options) (any, error){
		"chaos flap-burst": func(o Options) (any, error) { return RunChaos(o, catalogSpec(t, "flap-burst")) },
		"chaos gray-spine": func(o Options) (any, error) { return RunChaos(o, catalogSpec(t, "gray-spine")) },
		"crash S-1-1":      func(o Options) (any, error) { return RunFault(o, crash) },
		"flap":             func(o Options) (any, error) { return RunFlap(o, 8, 150*time.Millisecond, 120*time.Millisecond) },
		"trace":            func(o Options) (any, error) { return RunTrace(o, TraceCatalog()[0]) },
		"keep-alive":       func(o Options) (any, error) { return RunKeepAlive(o, time.Second) },
	}
	var other []request
	for _, name := range []string{"chaos flap-burst", "chaos gray-spine", "crash S-1-1", "flap", "trace", "keep-alive"} {
		other = append(other, request{other: name})
	}
	sweep := func(leads []leadIn, tcs ...topology.FailureCase) []request {
		var rs []request
		for _, tc := range tcs {
			for _, lead := range leads {
				rs = append(rs, request{lead: lead, tc: tc})
			}
		}
		return rs
	}
	forward := []leadIn{phaseLeadIn, nearLeadIn, farLeadIn}
	bench := append(sweep(forward, topology.AllFailureCases()...), other...)
	reversed := slices.Clone(bench)
	slices.Reverse(reversed)
	tc2Twice := slices.Concat(sweep(forward, topology.TC2), other[:3], sweep(forward, topology.TC1, topology.TC2),
		other[3:], sweep(forward, topology.TC3, topology.TC4))
	orders := []struct {
		name     string
		requests []request
	}{{"bench", bench}, {"reversed", reversed}, {"TC2 twice", tc2Twice}}
	// trial runs one trial of r the way closlab and bench do; cold is its
	// unpooled oracle.
	trial := func(o Options, r request, loss func(Options, topology.FailureCase, bool) (trafficgen.Report, error)) (any, error) {
		switch {
		case r.other != "":
			return others[r.other](o)
		case r.lead == phaseLeadIn:
			return RunFailure(o, r.tc)
		}
		return loss(o, r.tc, r.lead == farLeadIn)
	}
	fabrics := []Options{
		DefaultOptions(topology.TwoPodSpec(), ProtoMRMTP, 17),
		DefaultOptions(topology.TwoPodSpec(), ProtoBGP, 17),
		DefaultOptions(topology.TwoPodSpec(), ProtoBGPBFD, 17),
		DefaultOptions(topology.FourPodSpec(), ProtoMRMTP, 17),
	}
	for _, opts := range fabrics {
		name := fmt.Sprintf("%dpod/%s", opts.Spec.Pods, opts.Protocol)
		// The trace row runs on the 2-pod fabrics only: on four pods its
		// prober fleet would cost more than the rest of the table.
		skip := func(r request) bool { return r.other == "trace" && opts.Spec.Pods > 2 }
		oracle := make(map[request][]any)
		for _, r := range bench {
			if skip(r) {
				continue
			}
			for i := range n {
				o := opts
				o.Seed = TrialSeed(opts.Seed, i)
				want, err := trial(o, r, coldRunLoss)
				if err != nil {
					t.Fatalf("%s %+v: %v", name, r, err)
				}
				oracle[r] = append(oracle[r], want)
			}
		}
		for _, order := range orders {
			for _, r := range order.requests {
				if skip(r) {
					continue
				}
				got, err := runTrials(opts, n, func(o Options) (any, error) { return trial(o, r, RunLoss) })
				if err != nil {
					t.Fatalf("%s %s %+v: %v", name, order.name, r, err)
				}
				if !reflect.DeepEqual(got, oracle[r]) {
					t.Errorf("%s %s: %+v: pooled %+v, cold %+v", name, order.name, r, got, oracle[r])
				}
			}
		}
	}
}

// sourceRunsOnOracles holds TestForkSourceRunsOn's cold runs, made once per
// test binary, so that -count repeats only the runs on the source and its
// forks.
var sourceRunsOnOracles struct {
	once sync.Once
	fps  map[Protocol][]fingerprint
	err  error
}

// TestForkSourceRunsOn takes K−1 forks of a lead-in fabric, then runs the
// source on beside them, each on its own goroutine: each run must match a
// cold one of its case. Under -race this is the check that a fork shares
// nothing its source writes when it runs on.
func TestForkSourceRunsOn(t *testing.T) {
	cases := topology.AllFailureCases()
	protos := []Protocol{ProtoMRMTP, ProtoBGPBFD}
	opts := func(proto Protocol) Options { return DefaultOptions(topology.TwoPodSpec(), proto, 13) }
	// run fails tc on f, lets it settle, drains the probe, and tallies f.
	run := func(f *Fabric, tc topology.FailureCase) (fingerprint, error) {
		var cap capture.Capture
		cap.TapAll(f.Sim)
		if _, err := f.Fail(tc); err != nil {
			return fingerprint{}, err
		}
		f.Sim.RunFor(2 * time.Second)
		f.probe.sender.Stop()
		f.Sim.RunFor(time.Second)
		fp := fingerprintOf(f, &cap)
		fp.probe = fmt.Sprintf("%+v", f.probe.receiver.Report(f.probe.sender))
		return fp, nil
	}
	o := &sourceRunsOnOracles
	o.once.Do(func() {
		o.fps = make(map[Protocol][]fingerprint)
		for _, proto := range protos {
			for _, tc := range cases {
				cold, err := atInjection(opts(proto), nearLeadIn)
				if err != nil {
					o.err = err
					return
				}
				want, err := run(cold, tc)
				if err != nil {
					o.err = err
					return
				}
				o.fps[proto] = append(o.fps[proto], want)
			}
		}
	})
	if o.err != nil {
		t.Fatal(o.err)
	}
	for _, proto := range protos {
		src, err := atInjection(opts(proto), nearLeadIn)
		if err != nil {
			t.Fatal(err)
		}
		fabrics := []*Fabric{src}
		for range cases[1:] {
			g, err := src.fork(nil)
			if err != nil {
				t.Fatal(err)
			}
			fabrics = append(fabrics, g)
		}
		fps := make([]fingerprint, len(cases))
		var wg sync.WaitGroup
		for i, f := range fabrics {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var err error
				if fps[i], err = run(f, cases[i]); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		for i, tc := range cases {
			what := fmt.Sprintf("%s %v on the source", proto, tc)
			if i > 0 {
				what = fmt.Sprintf("%s %v on fork %d", proto, tc, i)
			}
			compareFingerprints(t, what, fps[i], o.fps[proto][i])
		}
	}
}

// sessionStates renders every BGP and BFD session's state, a BGP session's
// output queue included, in node order.
func sessionStates(f *Fabric) string {
	var b strings.Builder
	for _, n := range f.Sim.Nodes() {
		if sp := f.Speakers[n.Name]; sp != nil {
			for _, p := range sp.Peers() {
				fmt.Fprintf(&b, "%s bgp %s %v queued %d\n", n.Name, p.Neighbor, p.State, p.Queued())
			}
		}
		if mgr := f.BFDs[n.Name]; mgr != nil {
			for _, s := range mgr.Sessions() {
				fmt.Fprintf(&b, "%s bfd %v\n", n.Name, s.State())
			}
		}
	}
	return b.String()
}

// dirtyForks holds TestForkIntoDirtyMatchesFresh's lead-in fabrics, made
// once per test binary and only ever forked, so that -count repeats only
// the forks and their runs.
var dirtyForks dirtyForkSet

type dirtyForkSet struct {
	once    sync.Once
	fabrics []dirtyFabric
	err     error
}

// dirtyFabric is one configuration of the test: the lead-in fabric every
// fork is made of, and one of another seed and lead-in, whose fork runs into
// a different case before the recycled fork is written into it.
type dirtyFabric struct {
	name       string
	src, other *Fabric
}

// add makes the lead-in fabrics of opts, and of opts at the next seed: the
// probe flow near and far where the fabric has the racks for it, else the
// timer phase for both.
func (d *dirtyForkSet) add(name string, opts Options) {
	if d.err != nil {
		return
	}
	lead, otherLead := nearLeadIn, farLeadIn
	if opts.Spec.Zones != 0 {
		lead, otherLead = phaseLeadIn, phaseLeadIn
	}
	src, err := atInjection(opts, lead)
	if err != nil {
		d.err = err
		return
	}
	opts.Seed++
	other, err := atInjection(opts, otherLead)
	if err != nil {
		d.err = err
		return
	}
	d.fabrics = append(d.fabrics, dirtyFabric{fmt.Sprintf("%s/%s", name, opts.Protocol), src, other})
}

// dirtyLikeTrials runs f into the state the pooled trials hand fabrics
// back in, all at once: TC3 failed (RunFailure), gray loss, an impairment
// and a drained node still in force (RunChaos, RunFault), the prober fleet
// ticking with its ICMP listeners registered (RunTrace) and a capture tap
// on the TC1 link (RunKeepAlive), 3.5 s into the failure — past plain BGP's
// hold time. It returns the capture, which a fork written into f must leave
// behind with the rest of f.
func dirtyLikeTrials(t *testing.T, f *Fabric) *capture.Capture {
	t.Helper()
	link := func(tc topology.FailureCase) chaos.LinkRef {
		l, err := f.caseLink(tc)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	long := chaos.Duration(time.Minute)
	faults := []chaos.Fault{
		{Kind: chaos.Down, Link: link(topology.TC3)},
		{Kind: chaos.GrayLoss, Link: link(topology.TC2), Duration: long, LossRate: 0.3},
		{Kind: chaos.LinkImpair, Link: link(topology.TC4), Duration: long,
			CorruptRate: 0.25, ExtraLatency: chaos.Duration(30 * time.Millisecond), Jitter: chaos.Duration(30 * time.Millisecond)},
		{Kind: chaos.Drain, Nodes: []string{f.Topo.Leaves[len(f.Topo.Leaves)-1].Name}, Duration: long},
	}
	for _, fault := range faults {
		if _, err := f.Inject(fault); err != nil {
			t.Fatal(err)
		}
	}
	newTraceRun(f, 1).start()
	var cap capture.Capture
	fp, err := f.Topo.FailurePoint(topology.TC1)
	if err != nil {
		t.Fatal(err)
	}
	cap.Tap(f.Sim.Node(fp.Device).Port(fp.Port).Link)
	f.Sim.RunFor(3500 * time.Millisecond)
	return &cap
}

// TestForkIntoDirtyMatchesFresh holds a fork written into a released fabric
// to a fork into new memory: the fabric it is written into ran another
// seed's lead-in — the probe flow the other way round where the fabric has
// the racks for one, so that its stacks hold listeners the source's lack —
// and then into every state a pooled trial hands a fabric back in
// (dirtyLikeTrials): timers armed, bare closures pending, frames on the
// wire, links impaired, ports down, a link tapped and, on the fabric with
// an MRAI, an announcement queued. Both forks, made of the
// same lead-in fabric on two goroutines, then fail TC1 and settle; they must
// agree on the wire trace, the event log, the dispatch count, every routing
// and VID table, every session's state, the frame pool, the next draw of
// every stream and the probe flow's report. The capture tapped on the
// released fabric must see no frame of the fork written into it: a fork
// rebuilds every link, taps included.
func TestForkIntoDirtyMatchesFresh(t *testing.T) {
	d := &dirtyForks
	d.once.Do(func() {
		specs := []struct {
			name string
			spec topology.Spec
		}{
			{"2pod", topology.TwoPodSpec()},
			{"4pod", topology.FourPodSpec()},
			{"4tier", fourTier()},
		}
		for _, sp := range specs {
			for _, proto := range []Protocol{ProtoMRMTP, ProtoBGP, ProtoBGPBFD} {
				d.add(sp.name, DefaultOptions(sp.spec, proto, 21))
			}
		}
		mrai := DefaultOptions(topology.TwoPodSpec(), ProtoBGP, 21)
		mrai.BGPTimers.MRAI = 2 * time.Second
		d.add("2pod-mrai", mrai)
	})
	if d.err != nil {
		t.Fatal(d.err)
	}
	// run fails TC1 on f, lets it settle, drains the probe if there is one,
	// and tallies f.
	run := func(f *Fabric) fingerprint {
		forked := sessionStates(f)
		var cap capture.Capture
		cap.TapAll(f.Sim)
		if _, err := f.Fail(topology.TC1); err != nil {
			t.Error(err)
			return fingerprint{}
		}
		f.Sim.RunFor(4 * time.Second)
		report := ""
		if f.probe != nil {
			f.probe.sender.Stop()
			f.Sim.RunFor(time.Second)
			report = fmt.Sprintf("%+v", f.probe.receiver.Report(f.probe.sender))
		}
		fp := fingerprintOf(f, &cap)
		fp.probe, fp.sessions = report, "at the fork:\n"+forked+"settled:\n"+sessionStates(f)
		return fp
	}
	for _, df := range d.fabrics {
		dirty, err := df.other.fork(nil)
		if err != nil {
			t.Fatal(err)
		}
		tapped := dirtyLikeTrials(t, dirty)
		dirty.Sim.Release()
		seen := tapped.Count()
		if seen == 0 {
			t.Fatalf("%s: the tap on the released fabric saw no frame; the rig no longer taps a live link", df.name)
		}
		var recycled, fresh fingerprint
		var wg sync.WaitGroup
		wg.Add(2)
		for _, into := range []*Fabric{dirty, nil} {
			go func() {
				defer wg.Done()
				g, err := df.src.fork(into)
				if err != nil {
					t.Error(err)
					return
				}
				if into != nil {
					recycled = run(g)
				} else {
					fresh = run(g)
				}
			}()
		}
		wg.Wait()
		if n := tapped.Count(); n != seen {
			t.Errorf("%s: the capture tapped on the released fabric saw %d frames of the fork written into it", df.name, n-seen)
		}
		if !t.Failed() {
			compareFingerprints(t, df.name+" fork into a released fabric", recycled, fresh)
		}
	}
}
