package chaos

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/simnet"
)

// handler records port events with timestamps.
type handler struct {
	sim   *simnet.Sim
	downs []time.Duration
	ups   []time.Duration
	rx    int
}

func (h *handler) Start()                           {}
func (h *handler) PortDown(*simnet.Port)            { h.downs = append(h.downs, h.sim.Now()) }
func (h *handler) PortUp(*simnet.Port)              { h.ups = append(h.ups, h.sim.Now()) }
func (h *handler) HandleFrame(*simnet.Port, []byte) { h.rx++ }

// fabric builds a tiny three-node line a—b—c for target resolution tests.
func fabric(t *testing.T) (*simnet.Sim, map[string]*handler) {
	t.Helper()
	s := simnet.New(1)
	hs := map[string]*handler{}
	for _, name := range []string{"a", "b", "c"} {
		n := s.AddNode(name)
		h := &handler{sim: s}
		n.Handler = h
		hs[name] = h
	}
	s.Connect(s.Node("a").AddPort(), s.Node("b").AddPort())
	s.Connect(s.Node("b").AddPort(), s.Node("c").AddPort())
	return s, hs
}

func TestSpecJSONRoundTrip(t *testing.T) {
	spec := Spec{
		Name: "kitchen-sink",
		Faults: []Fault{
			{Kind: FlapStorm, Link: LinkRef{"a", "b"}, Start: Duration(time.Second),
				Flaps: 5, Period: Duration(400 * time.Millisecond), Duty: 0.25},
			{Kind: GrayLoss, Link: LinkRef{"b", "c"}, Start: Duration(2 * time.Second),
				Duration: Duration(3 * time.Second), LossRate: 0.3},
			{Kind: LinkImpair, Link: LinkRef{"a", "b"}, Start: 0,
				Duration: Duration(time.Second), CorruptRate: 0.25,
				ExtraLatency: Duration(30 * time.Millisecond), Jitter: Duration(10 * time.Millisecond)},
			{Kind: OneWay, Link: LinkRef{"c", "b"}, Start: Duration(time.Second),
				Duration: Duration(2 * time.Second)},
			{Kind: Correlated, Links: []LinkRef{{"a", "b"}, {"b", "c"}}, Start: 0,
				Duration: Duration(time.Second), Stagger: Duration(5 * time.Millisecond)},
			{Kind: Drain, Nodes: []string{"b", "c"}, Start: 0,
				Duration: Duration(time.Second), Stagger: Duration(3 * time.Second)},
		},
	}
	data, err := spec.Render()
	if err != nil {
		t.Fatalf("Render: %v", err)
	}
	got, err := ParseSpec(data)
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if !reflect.DeepEqual(spec, got) {
		t.Errorf("round trip changed spec:\nsent %+v\ngot  %+v", spec, got)
	}
	if !strings.Contains(string(data), `"400ms"`) {
		t.Errorf("durations should render human-readable, got:\n%s", data)
	}
}

func TestDurationUnmarshalForms(t *testing.T) {
	var d Duration
	if err := d.UnmarshalJSON([]byte(`"150ms"`)); err != nil || d.D() != 150*time.Millisecond {
		t.Errorf(`"150ms" -> %v, %v`, d.D(), err)
	}
	if err := d.UnmarshalJSON([]byte(`1000000`)); err != nil || d.D() != time.Millisecond {
		t.Errorf(`1000000 -> %v, %v`, d.D(), err)
	}
	if err := d.UnmarshalJSON([]byte(`"not-a-duration"`)); err == nil {
		t.Error("bad duration string accepted")
	}
}

func TestValidateRejectsBadFaults(t *testing.T) {
	cases := []struct {
		name string
		f    Fault
	}{
		{"unknown kind", Fault{Kind: "meteor-strike"}},
		{"missing link", Fault{Kind: FlapStorm, Flaps: 1, Period: Duration(time.Second), Duty: 0.5}},
		{"zero flaps", Fault{Kind: FlapStorm, Link: LinkRef{"a", "b"}, Period: Duration(time.Second), Duty: 0.5}},
		{"duty one", Fault{Kind: FlapStorm, Link: LinkRef{"a", "b"}, Flaps: 1, Period: Duration(time.Second), Duty: 1}},
		{"zero loss", Fault{Kind: GrayLoss, Link: LinkRef{"a", "b"}, Duration: Duration(time.Second)}},
		{"no duration", Fault{Kind: OneWay, Link: LinkRef{"a", "b"}}},
		{"empty profile", Fault{Kind: LinkImpair, Link: LinkRef{"a", "b"}, Duration: Duration(time.Second)}},
		{"one link correlated", Fault{Kind: Correlated, Links: []LinkRef{{"a", "b"}}, Duration: Duration(time.Second)}},
		{"no nodes", Fault{Kind: Drain, Duration: Duration(time.Second)}},
		{"negative start", Fault{Kind: OneWay, Link: LinkRef{"a", "b"}, Start: Duration(-time.Second), Duration: Duration(time.Second)}},
		// A frame on a:eth1 would be due before it was sent: simnet panics.
		{"negative latency", Fault{Kind: LinkImpair, Link: LinkRef{"a", "b"}, Duration: Duration(time.Second), ExtraLatency: Duration(-50 * time.Millisecond)}},
		// simnet draws jitter only when it is positive: ignored, silently.
		{"negative jitter", Fault{Kind: LinkImpair, Link: LinkRef{"a", "b"}, Duration: Duration(time.Second), LossRate: 0.1, Jitter: Duration(-time.Millisecond)}},
		// Four periods of 2562047h pass the largest time.Duration: Horizon
		// read 0 and Apply scheduled in the past.
		{"overflowing end", Fault{Kind: FlapStorm, Link: LinkRef{"a", "b"}, Flaps: 4, Period: Duration(2562047 * time.Hour), Duty: 0.5}},
		{"overflowing stagger", Fault{Kind: Drain, Nodes: []string{"a", "b"}, Duration: Duration(time.Second), Stagger: Duration(math.MaxInt64)}},
		{"down without target", Fault{Kind: Down}},
		{"down on a link and nodes", Fault{Kind: Down, Link: LinkRef{"a", "b"}, Nodes: []string{"c"}}},
		{"down on half a link", Fault{Kind: Down, Link: LinkRef{Device: "a"}}},
		{"down with a duration", Fault{Kind: Down, Link: LinkRef{"a", "b"}, Duration: Duration(time.Second)}},
	}
	for _, c := range cases {
		if err := c.f.Validate(); err == nil {
			t.Errorf("%s: validated, want error", c.name)
		}
	}
}

// TestApplyRejectsEndPastMaxDuration: a spec whose end fits a
// time.Duration may still not fit once it is offset from the instant it is
// applied at.
func TestApplyRejectsEndPastMaxDuration(t *testing.T) {
	s, _ := fabric(t)
	s.RunFor(time.Second)
	spec := Spec{Name: "late", Faults: []Fault{{Kind: Down, Link: LinkRef{"a", "b"}, Start: Duration(math.MaxInt64 - time.Millisecond)}}}
	if _, err := Apply(s, spec, nil); err == nil {
		t.Error("applied a fault due past the largest time.Duration")
	}
}

func TestHorizon(t *testing.T) {
	spec := Spec{Name: "h", Faults: []Fault{
		{Kind: FlapStorm, Link: LinkRef{"a", "b"}, Start: Duration(time.Second),
			Flaps: 4, Period: Duration(500 * time.Millisecond), Duty: 0.5},
		{Kind: Drain, Nodes: []string{"a", "b", "c"}, Start: 0,
			Duration: Duration(time.Second), Stagger: Duration(2 * time.Second)},
	}}
	// Flap storm ends at 1s + 4·500ms = 3s; drain at 2·2s + 1s = 5s.
	if got, want := spec.Horizon(), 5*time.Second; got != want {
		t.Errorf("Horizon = %v, want %v", got, want)
	}
}

func TestApplyRejectsUnresolvableTargets(t *testing.T) {
	s, _ := fabric(t)
	for _, spec := range []Spec{
		{Name: "no-node", Faults: []Fault{{Kind: OneWay, Link: LinkRef{"zz", "b"}, Duration: Duration(time.Second)}}},
		{Name: "no-link", Faults: []Fault{{Kind: OneWay, Link: LinkRef{"a", "c"}, Duration: Duration(time.Second)}}},
		{Name: "no-drain-node", Faults: []Fault{{Kind: Drain, Nodes: []string{"zz"}, Duration: Duration(time.Second)}}},
	} {
		if _, err := Apply(s, spec, nil); err == nil {
			t.Errorf("%s: applied, want resolution error", spec.Name)
		}
	}
}

func TestFlapStormSchedule(t *testing.T) {
	s, hs := fabric(t)
	spec := Spec{Name: "storm", Faults: []Fault{{
		Kind: FlapStorm, Link: LinkRef{"a", "b"}, Start: Duration(10 * time.Millisecond),
		Flaps: 3, Period: Duration(100 * time.Millisecond), Duty: 0.4,
	}}}
	log := &metrics.Log{}
	in, err := Apply(s, spec, log)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	s.Start()
	s.RunFor(spec.Horizon() + 50*time.Millisecond)

	// Each cycle: down at start, up after (1-0.4)·100ms = 60ms.
	h := hs["a"]
	detect := simnet.LocalDetectDelay
	wantDowns := []time.Duration{10 * time.Millisecond, 110 * time.Millisecond, 210 * time.Millisecond}
	wantUps := []time.Duration{70 * time.Millisecond, 170 * time.Millisecond, 270 * time.Millisecond}
	if len(h.downs) != 3 || len(h.ups) != 3 {
		t.Fatalf("a saw %d downs / %d ups, want 3/3 (downs=%v ups=%v)", len(h.downs), len(h.ups), h.downs, h.ups)
	}
	for i := range wantDowns {
		if h.downs[i] != wantDowns[i]+detect {
			t.Errorf("down %d at %v, want %v", i, h.downs[i], wantDowns[i]+detect)
		}
		if h.ups[i] != wantUps[i]+detect {
			t.Errorf("up %d at %v, want %v", i, h.ups[i], wantUps[i]+detect)
		}
	}
	// The peer sees nothing at the physical layer.
	if len(hs["b"].downs) != 0 {
		t.Errorf("peer saw %v downs, want none", hs["b"].downs)
	}
	// The port ends the storm up.
	if !s.Node("a").Port(1).Up() {
		t.Error("port still down after the storm")
	}
	// Six actions logged, alternating fail/restore, in time order.
	evs := in.Events
	if len(evs) != 6 {
		t.Fatalf("injector logged %d events, want 6: %+v", len(evs), evs)
	}
	for i, ev := range evs {
		wantAction := "fail"
		if i%2 == 1 {
			wantAction = "restore"
		}
		if ev.Action != wantAction || ev.Target != "a:eth1" || ev.Kind != FlapStorm {
			t.Errorf("event %d = %+v, want %s on a:eth1", i, ev, wantAction)
		}
		if i > 0 && ev.At < evs[i-1].At {
			t.Errorf("events out of order: %v after %v", ev.At, evs[i-1].At)
		}
	}
	// Each fail action is a failure in the Log at its instant, and the
	// journal renders and parses it back.
	wantLog := failures("a", 1, wantDowns...)
	if !reflect.DeepEqual(log.Events, wantLog) {
		t.Errorf("Log = %+v, want %+v", log.Events, wantLog)
	}
	if parsed, err := metrics.Parse(metrics.Render(log.Events)); err != nil || !reflect.DeepEqual(parsed, wantLog) {
		t.Errorf("journal round trip = %+v, %v, want %+v", parsed, err, wantLog)
	}
}

// The harness catalog's two storms restore each flap exactly Period·(1−Duty)
// after its fail. flap-storm's (1−0.8)·1 s is 199 999 999.99999997 ns in
// floating point, so truncating the product restored it 1 ns early.
func TestFlapStormDownTimeIsExact(t *testing.T) {
	for _, c := range []struct {
		name   string
		flaps  int
		period time.Duration
		duty   float64
		down   time.Duration
	}{
		{"flap-storm", 6, time.Second, 0.8, 200 * time.Millisecond},
		{"flap-burst", 8, 250 * time.Millisecond, 0.4, 150 * time.Millisecond},
	} {
		s, _ := fabric(t)
		spec := Spec{Name: c.name, Faults: []Fault{{
			Kind: FlapStorm, Link: LinkRef{"a", "b"}, Start: Duration(500 * time.Millisecond),
			Flaps: c.flaps, Period: Duration(c.period), Duty: c.duty,
		}}}
		in, err := Apply(s, spec, nil)
		if err != nil {
			t.Fatalf("%s: Apply: %v", c.name, err)
		}
		s.Start()
		s.RunFor(spec.Horizon())
		evs := in.Events
		if len(evs) != 2*c.flaps {
			t.Fatalf("%s: injector logged %d events, want %d", c.name, len(evs), 2*c.flaps)
		}
		for i := 0; i < len(evs); i += 2 {
			fail, restore := evs[i], evs[i+1]
			if fail.Action != "fail" || restore.Action != "restore" {
				t.Fatalf("%s: events %d-%d are %s/%s, want fail/restore", c.name, i, i+1, fail.Action, restore.Action)
			}
			if got := restore.At - fail.At; got != c.down {
				t.Errorf("%s: flap %d restores %v after its fail at %v, want %v", c.name, i/2+1, got, fail.At, c.down)
			}
		}
	}
}

// failures is the Log of node's interface eth<port> failed at each instant.
func failures(node string, port int, at ...time.Duration) []metrics.Event {
	out := make([]metrics.Event, len(at))
	for i, a := range at {
		out[i] = metrics.Event{At: a, Node: node, Kind: metrics.KindFailure, N: port}
	}
	return out
}

func TestGrayLossWindow(t *testing.T) {
	s, hs := fabric(t)
	spec := Spec{Name: "gray", Faults: []Fault{{
		Kind: GrayLoss, Link: LinkRef{"a", "b"}, Start: Duration(10 * time.Millisecond),
		Duration: Duration(100 * time.Millisecond), LossRate: 1,
	}}}
	if _, err := Apply(s, spec, nil); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	a := s.Node("a").Port(1)
	// One frame before, one during, one after the loss window; the
	// reverse direction sends during the window and must get through.
	s.At(5*time.Millisecond, func() { a.Send([]byte("before")) })
	s.At(50*time.Millisecond, func() { a.Send([]byte("during")) })
	s.At(50*time.Millisecond, func() { s.Node("b").Port(1).Send([]byte("reverse")) })
	s.At(150*time.Millisecond, func() { a.Send([]byte("after")) })
	s.Start()
	s.RunFor(200 * time.Millisecond)

	if hs["b"].rx != 2 {
		t.Errorf("b received %d frames, want 2 (before+after)", hs["b"].rx)
	}
	if hs["a"].rx != 1 {
		t.Errorf("a received %d frames, want 1 (reverse direction clean)", hs["a"].rx)
	}
	if got := a.Link.Stats(a).Lost; got != 1 {
		t.Errorf("a->b Lost = %d, want 1", got)
	}
	if got := a.Link.Impaired(a); got != (simnet.Impairment{}) {
		t.Errorf("impairment still installed after window: %+v", got)
	}
}

func TestOneWayCarrierFault(t *testing.T) {
	s, hs := fabric(t)
	spec := Spec{Name: "oneway", Faults: []Fault{{
		Kind: OneWay, Link: LinkRef{"b", "c"}, Start: Duration(10 * time.Millisecond),
		Duration: Duration(100 * time.Millisecond),
	}}}
	in, err := Apply(s, spec, nil)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	// During the fault: c->b blackholes, b->c still delivers.
	s.At(50*time.Millisecond, func() { s.Node("c").Port(1).Send([]byte("to-victim")) })
	s.At(50*time.Millisecond, func() { s.Node("b").Port(2).Send([]byte("from-victim")) })
	s.Start()
	s.RunFor(300 * time.Millisecond)

	// Only the victim hears carrier events; the peer hears nothing.
	if len(hs["b"].downs) != 1 || len(hs["b"].ups) != 1 {
		t.Errorf("victim downs=%v ups=%v, want one each", hs["b"].downs, hs["b"].ups)
	}
	if len(hs["c"].downs)+len(hs["c"].ups) != 0 {
		t.Errorf("peer saw carrier events: downs=%v ups=%v", hs["c"].downs, hs["c"].ups)
	}
	if hs["b"].rx != 0 {
		t.Errorf("victim received %d frames during one-way cut, want 0", hs["b"].rx)
	}
	if hs["c"].rx != 1 {
		t.Errorf("peer received %d frames, want 1 (victim TX unaffected)", hs["c"].rx)
	}
	evs := in.Events
	if len(evs) != 2 || evs[0].Action != "carrier-fault" || evs[1].Action != "carrier-restore" {
		t.Errorf("injector log = %+v, want carrier-fault then carrier-restore", evs)
	}
}

func TestCorrelatedStagger(t *testing.T) {
	s, hs := fabric(t)
	spec := Spec{Name: "corr", Faults: []Fault{{
		Kind: Correlated, Links: []LinkRef{{"b", "a"}, {"b", "c"}},
		Start: Duration(10 * time.Millisecond), Duration: Duration(100 * time.Millisecond),
		Stagger: Duration(5 * time.Millisecond),
	}}}
	log := &metrics.Log{}
	if _, err := Apply(s, spec, log); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	s.Start()
	s.RunFor(spec.Horizon() + 50*time.Millisecond)

	h := hs["b"]
	detect := simnet.LocalDetectDelay
	if len(h.downs) != 2 || len(h.ups) != 2 {
		t.Fatalf("b saw %d downs / %d ups, want 2/2", len(h.downs), len(h.ups))
	}
	if got, want := h.downs[1]-h.downs[0], 5*time.Millisecond; got != want {
		t.Errorf("stagger between failures = %v, want %v", got, want)
	}
	if got, want := h.ups[0], 110*time.Millisecond+detect; got != want {
		t.Errorf("first restore at %v, want %v", got, want)
	}
	want := append(failures("b", 1, 10*time.Millisecond), failures("b", 2, 15*time.Millisecond)...)
	if !reflect.DeepEqual(log.Events, want) {
		t.Errorf("Log = %+v, want %+v", log.Events, want)
	}
}

func TestDrainRollsThroughNodes(t *testing.T) {
	s, hs := fabric(t)
	spec := Spec{Name: "drain", Faults: []Fault{{
		Kind: Drain, Nodes: []string{"a", "c"}, Start: Duration(10 * time.Millisecond),
		Duration: Duration(50 * time.Millisecond), Stagger: Duration(200 * time.Millisecond),
	}}}
	log := &metrics.Log{}
	in, err := Apply(s, spec, log)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	s.Start()
	s.RunFor(spec.Horizon() + 50*time.Millisecond)

	// a (1 port) drains at 10ms, c (1 port) at 210ms; never overlapping.
	if len(hs["a"].downs) != 1 || len(hs["a"].ups) != 1 {
		t.Errorf("a downs=%v ups=%v, want one each", hs["a"].downs, hs["a"].ups)
	}
	if len(hs["c"].downs) != 1 || len(hs["c"].ups) != 1 {
		t.Errorf("c downs=%v ups=%v, want one each", hs["c"].downs, hs["c"].ups)
	}
	if len(hs["a"].ups) == 1 && len(hs["c"].downs) == 1 && hs["c"].downs[0] < hs["a"].ups[0] {
		t.Errorf("drains overlap: c down at %v before a up at %v", hs["c"].downs[0], hs["a"].ups[0])
	}
	evs := in.Events
	if len(evs) != 4 {
		t.Fatalf("injector logged %d events, want 4: %+v", len(evs), evs)
	}
	if evs[0].Action != "drain" || evs[0].Target != "a" || evs[1].Action != "undrain" {
		t.Errorf("unexpected log order: %+v", evs)
	}
	want := append(failures("a", 1, 10*time.Millisecond), failures("c", 1, 210*time.Millisecond)...)
	if !reflect.DeepEqual(log.Events, want) {
		t.Errorf("Log = %+v, want %+v", log.Events, want)
	}
}

// TestInjectorLogDeterminism applies the same multi-fault spec twice on
// fresh simulations with the same seed and requires identical logs.
func TestInjectorLogDeterminism(t *testing.T) {
	spec := Spec{Name: "combo", Faults: []Fault{
		{Kind: FlapStorm, Link: LinkRef{"a", "b"}, Start: Duration(5 * time.Millisecond),
			Flaps: 4, Period: Duration(40 * time.Millisecond), Duty: 0.5},
		{Kind: LinkImpair, Link: LinkRef{"b", "c"}, Start: 0,
			Duration: Duration(120 * time.Millisecond), CorruptRate: 0.5, Jitter: Duration(time.Millisecond)},
		{Kind: OneWay, Link: LinkRef{"c", "b"}, Start: Duration(20 * time.Millisecond),
			Duration: Duration(60 * time.Millisecond)},
	}}
	run := func() []Event {
		s, _ := fabric(t)
		in, err := Apply(s, spec, nil)
		if err != nil {
			t.Fatalf("Apply: %v", err)
		}
		s.Start()
		s.RunFor(spec.Horizon() + 50*time.Millisecond)
		return in.Events
	}
	first, second := run(), run()
	if !reflect.DeepEqual(first, second) {
		t.Errorf("injector logs diverged:\n%+v\n%+v", first, second)
	}
}

// TestDownActsAtOnce: a Down due at offset zero has failed its port, and
// logged the failure, before Apply returns — `ip link set down` acts when it
// is typed, with no simulator event in between. One due later, here a crash
// of b, waits for its instant and fails every port in port order. Nothing
// comes back up.
func TestDownActsAtOnce(t *testing.T) {
	s, hs := fabric(t)
	s.Start()
	s.RunFor(5 * time.Millisecond)
	log := &metrics.Log{}
	now := Spec{Name: "now", Faults: []Fault{{Kind: Down, Link: LinkRef{"a", "b"}}}}
	later := Spec{Name: "later", Faults: []Fault{{Kind: Down, Nodes: []string{"b"}, Start: Duration(time.Millisecond)}}}
	in, err := Apply(s, now, log)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if s.Node("a").Port(1).Up() {
		t.Error("a:eth1 still up after Apply of a Down at offset 0")
	}
	if want := failures("a", 1, 5*time.Millisecond); !reflect.DeepEqual(log.Events, want) {
		t.Errorf("Log after Apply = %+v, want %+v", log.Events, want)
	}
	if len(in.Events) != 1 || in.Events[0].Action != "fail" || in.Events[0].Target != "a:eth1" {
		t.Errorf("injector log = %+v, want one fail of a:eth1", in.Events)
	}
	if _, err := Apply(s, later, log); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if !s.Node("b").Port(1).Up() {
		t.Error("b:eth1 down before its 1ms offset")
	}
	s.RunFor(time.Second)
	for _, p := range []*simnet.Port{s.Node("a").Port(1), s.Node("b").Port(1), s.Node("b").Port(2)} {
		if p.Up() {
			t.Errorf("%s came back up", p.Name())
		}
	}
	want := failures("a", 1, 5*time.Millisecond)
	want = append(want, failures("b", 1, 6*time.Millisecond)...)
	want = append(want, failures("b", 2, 6*time.Millisecond)...)
	if !reflect.DeepEqual(log.Events, want) {
		t.Errorf("Log = %+v, want %+v", log.Events, want)
	}
	if len(hs["a"].downs) != 1 || len(hs["a"].ups) != 0 {
		t.Errorf("a saw downs=%v ups=%v, want one down", hs["a"].downs, hs["a"].ups)
	}
}
