package harness

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/capture"
	"repro/internal/metrics"
	"repro/internal/topology"
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
					// memo's snapshot.
					pooled := opts
					pooled.pooled = true
					compareFingerprints(t, name, oracleRun(t, pooled), oracleRun(t, opts))
				})
			}
		}
	}
}

// oracleRun warms opts and runs the oracle's script on it. On a three-tier
// fabric the warm-up is the loss path's, warmWithProbe: the probe flow from
// VID 11 to VID 14 and its lead-in, a random timer phase included. The
// four-tier fabric has no such racks and waits out the phase alone.
func oracleRun(t *testing.T, opts Options) fingerprint {
	t.Helper()
	if opts.Spec.Zones != 0 {
		f, err := warm(opts)
		if err != nil {
			t.Fatal(err)
		}
		f.Sim.RunFor(f.drawPhase())
		return failScript(t, f, nil)
	}
	f, probe, err := warmWithProbe(opts, false)
	if err != nil {
		t.Fatal(err)
	}
	return failScript(t, f, probe)
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
			g, err := snap.fork()
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
				g, err := snap.fork()
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
