package harness

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/topology"
)

func catalogSpec(t *testing.T, name string) chaos.Spec {
	t.Helper()
	for _, s := range ChaosCatalog() {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("no catalog scenario %q", name)
	return chaos.Spec{}
}

func runChaosCell(t *testing.T, name string, proto Protocol) ChaosResult {
	t.Helper()
	r, err := runChaosChecked(t, DefaultOptions(topology.TwoPodSpec(), proto, 42), catalogSpec(t, name))
	if err != nil {
		t.Fatalf("%s %s: %v", name, proto, err)
	}
	return r
}

func TestChaosCatalogValidatesAndApplies(t *testing.T) {
	specs := ChaosCatalog()
	if len(specs) < 6 {
		t.Fatalf("catalog has %d scenarios, want one per scenario class", len(specs))
	}
	seen := map[string]bool{}
	f, err := Build(DefaultOptions(topology.TwoPodSpec(), ProtoMRMTP, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range specs {
		if spec.Name == "" || seen[spec.Name] {
			t.Errorf("scenario name %q empty or duplicated", spec.Name)
		}
		seen[spec.Name] = true
		if err := spec.Validate(); err != nil {
			t.Errorf("%s: %v", spec.Name, err)
		}
		if spec.Horizon() <= 0 {
			t.Errorf("%s: non-positive horizon", spec.Name)
		}
		// Every catalog target must resolve on the standard fabric.
		if _, err := chaos.Apply(f.Sim, spec, f.Log); err != nil {
			t.Errorf("%s does not apply to TwoPodSpec: %v", spec.Name, err)
		}
	}
}

// TestChaosFlapStormDampening is the dampening acceptance claim: under a
// slow flap storm MR-MTP performs at most one reconvergence wave per
// accepted up-transition, while BGP+BFD resets a session on every flap.
func TestChaosFlapStormDampening(t *testing.T) {
	spec := catalogSpec(t, "flap-storm")
	flaps := spec.Faults[0].Flaps

	mr := runChaosCell(t, "flap-storm", ProtoMRMTP)
	if mr.NeighborsAccepted == 0 {
		t.Fatal("storm produced no accepted up-transitions")
	}
	if uint64(mr.Waves) > mr.NeighborsAccepted {
		t.Errorf("MR-MTP reconverged %d times for %d accepted up-transitions (want ≤1 per accept)",
			mr.Waves, mr.NeighborsAccepted)
	}
	if mr.HellosDampened == 0 {
		t.Error("Slow-to-Accept dampened no hellos during the storm")
	}

	bgp := runChaosCell(t, "flap-storm", ProtoBGPBFD)
	if bgp.SessionResets < uint64(flaps) {
		t.Errorf("BGP reset %d sessions over %d flaps, want per-flap churn (≥%d)",
			bgp.SessionResets, flaps, flaps)
	}
	// Both protocols ride out a slow storm without touching the probe:
	// the faulted leaf uplink is one of two equal-cost paths.
	if mr.BlackholeTime != 0 || bgp.BlackholeTime != 0 {
		t.Errorf("slow storm blackholed traffic: mrmtp=%v bgp=%v", mr.BlackholeTime, bgp.BlackholeTime)
	}
}

// TestChaosFlapBurstDampening: when the up-windows are shorter than the
// Slow-to-Accept window, MR-MTP keeps the adjacency out for the whole storm
// instead of chasing each flap.
func TestChaosFlapBurstDampening(t *testing.T) {
	spec := catalogSpec(t, "flap-burst")
	flaps := uint64(spec.Faults[0].Flaps)

	mr := runChaosCell(t, "flap-burst", ProtoMRMTP)
	if mr.NeighborsAccepted >= flaps {
		t.Errorf("MR-MTP accepted %d up-transitions over %d burst flaps, want dampening", mr.NeighborsAccepted, flaps)
	}
	if uint64(mr.Waves) > mr.NeighborsAccepted+1 {
		t.Errorf("MR-MTP reconverged %d times for %d accepts", mr.Waves, mr.NeighborsAccepted)
	}
	if mr.HellosDampened < flaps {
		t.Errorf("only %d hellos dampened over %d flaps", mr.HellosDampened, flaps)
	}

	bgp := runChaosCell(t, "flap-burst", ProtoBGPBFD)
	if mr.RouteEvents >= bgp.RouteEvents {
		t.Errorf("MR-MTP churned %d route updates vs BGP's %d, want fewer", mr.RouteEvents, bgp.RouteEvents)
	}
}

// TestChaosOneWayFault: a one-way fiber cut is the scenario hello-based
// QDSA cannot heal — the victim tears its adjacency but the unaffected
// direction keeps refreshing the peer's dead timer, so the peer hashes
// flows into the dark receiver for the whole fault. BFD's three-way state
// signaling closes the loop and reroutes in milliseconds.
func TestChaosOneWayFault(t *testing.T) {
	spec := catalogSpec(t, "oneway-top")
	faultLen := spec.Faults[0].Duration.D()

	mr := runChaosCell(t, "oneway-top", ProtoMRMTP)
	if mr.BlackholeTime < faultLen-500*time.Millisecond {
		t.Errorf("MR-MTP blackhole %v under a %v one-way fault, expected near-total loss", mr.BlackholeTime, faultLen)
	}
	bgp := runChaosCell(t, "oneway-top", ProtoBGPBFD)
	if bgp.BlackholeTime > 100*time.Millisecond {
		t.Errorf("BGP+BFD blackhole %v, want BFD to heal a one-way fault in ms", bgp.BlackholeTime)
	}
}

// TestChaosCorrelatedWithdrawal: losing both plane uplinks of one spine
// leaves it unable to name any remote root — the DefaultRoot withdrawal
// must still get the leaves off it within milliseconds.
func TestChaosCorrelatedWithdrawal(t *testing.T) {
	mr := runChaosCell(t, "correlated-uplinks", ProtoMRMTP)
	if mr.BlackholeTime > 100*time.Millisecond {
		t.Errorf("MR-MTP blackhole %v after correlated uplink loss, want ms-scale via DefaultRoot withdrawal", mr.BlackholeTime)
	}
	bgp := runChaosCell(t, "correlated-uplinks", ProtoBGPBFD)
	if mr.RouteEvents >= bgp.RouteEvents {
		t.Errorf("MR-MTP route updates %d vs BGP %d, want cheaper convergence", mr.RouteEvents, bgp.RouteEvents)
	}
}

func TestChaosGrayLossHitsBothProtocols(t *testing.T) {
	// Neither protocol detects 30% one-way loss (hellos and keepalives
	// mostly survive): the campaign must show comparable probe damage and
	// zero reconvergence — the honest gray-failure result.
	for _, proto := range []Protocol{ProtoMRMTP, ProtoBGPBFD} {
		r := runChaosCell(t, "gray-spine", proto)
		if r.BlackholeTime < 500*time.Millisecond {
			t.Errorf("%s: gray loss cost only %v of probe traffic", proto, r.BlackholeTime)
		}
		if r.MaxOutage > 200*time.Millisecond {
			t.Errorf("%s: gray loss produced a hard outage (%v), expected scattered drops", proto, r.MaxOutage)
		}
	}
}

func TestChaosResultDeterminism(t *testing.T) {
	spec := catalogSpec(t, "flap-burst")
	opts := DefaultOptions(topology.TwoPodSpec(), ProtoMRMTP, 7)
	a, err := runChaosChecked(t, opts, spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runChaosChecked(t, opts, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Events) == 0 || len(a.Events) != len(b.Events) {
		t.Fatalf("injector logs differ in length: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a.Events[i], b.Events[i])
		}
	}
	a.Events, b.Events = nil, nil
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same-seed results differ:\n%+v\n%+v", a, b)
	}
}

func TestChaosParallelMatchesSequential(t *testing.T) {
	spec := catalogSpec(t, "flap-burst")
	opts := DefaultOptions(topology.TwoPodSpec(), ProtoMRMTP, 3)

	old := Workers
	defer func() { Workers = old }()

	trial := func(o Options) (ChaosResult, error) { return runChaosChecked(t, o, spec) }
	Workers = 1
	seq, err := RunCell(opts, 4, trial, SummarizeChaos)
	if err != nil {
		t.Fatal(err)
	}
	Workers = 4
	par, err := RunCell(opts, 4, trial, SummarizeChaos)
	if err != nil {
		t.Fatal(err)
	}
	// ChaosSummary is flat and comparable by design, so bit-identity is
	// a single ==.
	if seq.Summary != par.Summary {
		t.Errorf("parallel summary differs from sequential:\nseq: %+v\npar: %+v", seq.Summary, par.Summary)
	}
	if len(seq.Trials) != len(par.Trials) {
		t.Fatalf("trial counts differ: %d vs %d", len(seq.Trials), len(par.Trials))
	}
}

func TestChaosArtifactsByteIdentical(t *testing.T) {
	spec := catalogSpec(t, "correlated-uplinks")
	render := func() ([]byte, []byte) {
		var cells []Cell[ChaosSummary, ChaosResult]
		for _, proto := range []Protocol{ProtoMRMTP, ProtoBGPBFD} {
			c, err := RunCell(DefaultOptions(topology.TwoPodSpec(), proto, 11), 2,
				func(o Options) (ChaosResult, error) { return runChaosChecked(t, o, spec) }, SummarizeChaos)
			if err != nil {
				t.Fatal(err)
			}
			cells = append(cells, c)
		}
		csv := RenderTimelineCSV(cells)
		js, err := RenderSummaryJSON(cells)
		if err != nil {
			t.Fatal(err)
		}
		return csv, js
	}
	csv1, js1 := render()
	csv2, js2 := render()
	if !bytes.Equal(csv1, csv2) {
		t.Error("same-seed timeline CSVs differ")
	}
	if !bytes.Equal(js1, js2) {
		t.Error("same-seed summary JSONs differ")
	}
	if !strings.HasPrefix(string(csv1), "protocol,pods,scenario,trial,t_us,kind,action,target,detail,accused_link\n") {
		t.Errorf("unexpected CSV header: %q", strings.SplitN(string(csv1), "\n", 2)[0])
	}
	if !strings.Contains(string(js1), `"reconvergences_per_up_transition"`) {
		t.Error("summary JSON lacks the dampening ratio")
	}
	// The timeline must contain each trial's injector rows.
	if got := bytes.Count(csv1, []byte("\n")); got < 1+2*2*4 {
		t.Errorf("timeline CSV has %d rows, want ≥ header + 4 actions × 2 trials × 2 protocols", got)
	}
}
