// Package chaos is the simulator's one fault injector: every failure an
// experiment injects, from the paper's single `ip link set down` to a
// campaign, is a Spec — a named list of composable fault primitives
// (interfaces or whole nodes going down, flap storms, gray (one-way) loss,
// hello corruption/delay, one-way carrier faults, correlated multi-link
// failures, and rolling maintenance drains), each due at a virtual-time
// offset from the moment the spec is applied. Specs round-trip through JSON
// so campaigns can be checked in, diffed, and replayed; Apply resolves every
// target eagerly, performs the actions due at offset zero at once and
// schedules the rest as simulator events, and returns an Injector whose log
// records every action at the virtual time it fired.
//
// Everything is seed-reproducible: the package draws no randomness of its
// own (probabilistic behavior lives in simnet's impairment layer, which
// uses the simulation RNG), so the same spec on the same seed produces a
// byte-identical injector log and byte-identical protocol behavior.
package chaos

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"time"
)

// Kind names a fault primitive.
type Kind string

// The scenario primitives.
const (
	// FlapStorm bounces one interface down/up repeatedly: Flaps cycles of
	// Period each, spending Duty of every period up. The interface ends
	// the storm up.
	FlapStorm Kind = "flap-storm"
	// GrayLoss drops a fraction (LossRate) of frames on the Device→Peer
	// direction of a link for Duration, leaving the reverse direction
	// clean — the asymmetric gray failure BFD and hello protocols
	// experience very differently.
	GrayLoss Kind = "gray-loss"
	// LinkImpair applies a compound impairment profile (LossRate,
	// CorruptRate, ExtraLatency, Jitter) to the Device→Peer direction for
	// Duration — corrupted and delayed hellos.
	LinkImpair Kind = "impair"
	// OneWay is a one-way fiber cut seen only by Device: frames from Peer
	// to Device blackhole and Device's optics raise a carrier alarm,
	// while Device's own transmitter keeps working and Peer sees nothing.
	OneWay Kind = "oneway"
	// Correlated fails the Device-side interface of every link in Links,
	// Stagger apart, restoring each Duration after it failed — a shared
	// risk group (power feed, line card) taking several links at once.
	Correlated Kind = "correlated"
	// Drain takes every interface of each node in Nodes down for
	// Duration, rolling through the list Stagger apart — the maintenance
	// workflow that reboots one switch at a time.
	Drain Kind = "drain"
	// Down is the paper's failure: the Device-side interface of Link, or
	// every interface of each node in Nodes (a crash), goes down at Start
	// and stays down. It takes no Duration.
	Down Kind = "down"
)

// validKind reports whether k names a primitive. A switch rather than a
// package-level set keeps the package free of shared mutable state (the
// sharedstate lint rule).
func validKind(k Kind) bool {
	switch k {
	case FlapStorm, GrayLoss, LinkImpair, OneWay, Correlated, Drain, Down:
		return true
	}
	return false
}

// Duration is a time.Duration that marshals to JSON as a human-readable
// string ("150ms") and unmarshals from either that form or integer
// nanoseconds.
type Duration time.Duration

// D converts to the standard library type.
func (d Duration) D() time.Duration { return time.Duration(d) }

// MarshalJSON renders the duration as a string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "150ms" or integer nanoseconds.
func (d *Duration) UnmarshalJSON(data []byte) error {
	if len(data) > 0 && data[0] == '"' {
		var s string
		if err := json.Unmarshal(data, &s); err != nil {
			return err
		}
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("chaos: bad duration %q: %v", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var n int64
	if err := json.Unmarshal(data, &n); err != nil {
		return err
	}
	*d = Duration(n)
	return nil
}

// LinkRef names one direction-carrying endpoint of a link: the interface
// on Device that connects to Peer. For directional faults the impairment
// rides the Device→Peer transmit direction; for interface faults Device is
// the node executing the `ip link set down`.
type LinkRef struct {
	Device string `json:"device"`
	Peer   string `json:"peer"`
}

func (r LinkRef) String() string { return r.Device + "->" + r.Peer }

// Fault is one scheduled primitive. Kind selects the shape; the other
// fields parameterize it (see the Kind constants for which apply). Start
// is relative to the moment the spec is applied.
type Fault struct {
	Kind Kind `json:"kind"`

	// Link targets single-link kinds (flap-storm, gray-loss, impair,
	// oneway, down); Links targets correlated; Nodes targets drain and
	// down.
	Link  LinkRef   `json:"link,omitempty"`
	Links []LinkRef `json:"links,omitempty"`
	Nodes []string  `json:"nodes,omitempty"`

	Start    Duration `json:"start"`
	Duration Duration `json:"duration,omitempty"`

	// Flap-storm shape: Flaps cycles of Period, up for Duty of each.
	Flaps  int      `json:"flaps,omitempty"`
	Period Duration `json:"period,omitempty"`
	Duty   float64  `json:"duty,omitempty"`

	// Impairment profile (gray-loss uses LossRate; impair uses all four).
	LossRate     float64  `json:"loss_rate,omitempty"`
	CorruptRate  float64  `json:"corrupt_rate,omitempty"`
	ExtraLatency Duration `json:"extra_latency,omitempty"`
	Jitter       Duration `json:"jitter,omitempty"`

	// Stagger spaces the elements of Links (correlated) or Nodes (drain).
	Stagger Duration `json:"stagger,omitempty"`
}

// End returns the fault's last scheduled action time (relative to apply).
func (f Fault) End() time.Duration {
	end, _ := f.end()
	return end
}

// end is End, and false when the last action lies past the largest
// time.Duration. It assumes the offsets Validate checks are non-negative.
func (f Fault) end() (time.Duration, bool) {
	switch f.Kind {
	case FlapStorm:
		return addMul(f.Start.D(), f.Flaps, f.Period.D())
	case Correlated, Drain:
		n := len(f.Links)
		if f.Kind == Drain {
			n = len(f.Nodes)
		}
		if n == 0 {
			return f.Start.D(), true
		}
		last, ok := addMul(f.Start.D(), n-1, f.Stagger.D())
		if !ok {
			return last, false
		}
		return addMul(last, 1, f.Duration.D())
	default:
		return addMul(f.Start.D(), 1, f.Duration.D())
	}
}

// addMul returns a + n·b, and false when the sum overflows. a, n and b are
// non-negative.
func addMul(a time.Duration, n int, b time.Duration) (time.Duration, bool) {
	if n > 0 && b > (math.MaxInt64-a)/time.Duration(n) {
		return a + time.Duration(n)*b, false
	}
	return a + time.Duration(n)*b, true
}

// Validate checks one fault's shape.
func (f Fault) Validate() error {
	if !validKind(f.Kind) {
		return fmt.Errorf("chaos: unknown fault kind %q", f.Kind)
	}
	if f.Start < 0 {
		return fmt.Errorf("chaos: %s: negative start %v", f.Kind, f.Start.D())
	}
	// A frame cannot arrive before it was sent, and simnet draws jitter
	// only when it is positive.
	if f.ExtraLatency < 0 || f.Jitter < 0 {
		return fmt.Errorf("chaos: %s: negative extra_latency %v or jitter %v", f.Kind, f.ExtraLatency.D(), f.Jitter.D())
	}
	needLink := func() error {
		if f.Link.Device == "" || f.Link.Peer == "" {
			return fmt.Errorf("chaos: %s: link needs both device and peer", f.Kind)
		}
		return nil
	}
	needDuration := func() error {
		if f.Duration <= 0 {
			return fmt.Errorf("chaos: %s: duration must be positive", f.Kind)
		}
		return nil
	}
	rate := func(name string, v float64) error {
		if v < 0 || v > 1 {
			return fmt.Errorf("chaos: %s: %s %v outside [0,1]", f.Kind, name, v)
		}
		return nil
	}
	switch f.Kind {
	case FlapStorm:
		if err := needLink(); err != nil {
			return err
		}
		if f.Flaps < 1 {
			return fmt.Errorf("chaos: flap-storm needs at least one flap")
		}
		if f.Period <= 0 {
			return fmt.Errorf("chaos: flap-storm period must be positive")
		}
		if f.Duty <= 0 || f.Duty >= 1 {
			return fmt.Errorf("chaos: flap-storm duty %v outside (0,1)", f.Duty)
		}
	case GrayLoss:
		if err := needLink(); err != nil {
			return err
		}
		if err := needDuration(); err != nil {
			return err
		}
		if f.LossRate <= 0 || f.LossRate > 1 {
			return fmt.Errorf("chaos: gray-loss rate %v outside (0,1]", f.LossRate)
		}
	case LinkImpair:
		if err := needLink(); err != nil {
			return err
		}
		if err := needDuration(); err != nil {
			return err
		}
		if err := rate("loss_rate", f.LossRate); err != nil {
			return err
		}
		if err := rate("corrupt_rate", f.CorruptRate); err != nil {
			return err
		}
		if f.LossRate == 0 && f.CorruptRate == 0 && f.ExtraLatency == 0 && f.Jitter == 0 {
			return fmt.Errorf("chaos: impair fault has an empty profile")
		}
	case OneWay:
		if err := needLink(); err != nil {
			return err
		}
		if err := needDuration(); err != nil {
			return err
		}
	case Correlated:
		if len(f.Links) < 2 {
			return fmt.Errorf("chaos: correlated needs at least two links, got %d", len(f.Links))
		}
		for _, l := range f.Links {
			if l.Device == "" || l.Peer == "" {
				return fmt.Errorf("chaos: correlated link needs both device and peer")
			}
		}
		if err := needDuration(); err != nil {
			return err
		}
		if f.Stagger < 0 {
			return fmt.Errorf("chaos: correlated stagger must be non-negative")
		}
	case Drain:
		if len(f.Nodes) < 1 {
			return fmt.Errorf("chaos: drain needs at least one node")
		}
		if slices.Contains(f.Nodes, "") {
			return fmt.Errorf("chaos: drain node name empty")
		}
		if err := needDuration(); err != nil {
			return err
		}
		if f.Stagger < 0 {
			return fmt.Errorf("chaos: drain stagger must be non-negative")
		}
	case Down:
		if (f.Link == LinkRef{}) == (len(f.Nodes) == 0) {
			return fmt.Errorf("chaos: down needs a link or nodes, not both")
		}
		if len(f.Nodes) == 0 {
			if err := needLink(); err != nil {
				return err
			}
		}
		if slices.Contains(f.Nodes, "") {
			return fmt.Errorf("chaos: down node name empty")
		}
		if f.Duration != 0 {
			return fmt.Errorf("chaos: down takes no duration: it stays down")
		}
	}
	if _, ok := f.end(); !ok {
		return fmt.Errorf("chaos: %s: last action overflows time.Duration", f.Kind)
	}
	return nil
}

// Spec is a named fault campaign.
type Spec struct {
	Name   string  `json:"name"`
	Faults []Fault `json:"faults"`
}

// Validate checks every fault.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("chaos: spec needs a name")
	}
	if len(s.Faults) == 0 {
		return fmt.Errorf("chaos: spec %q has no faults", s.Name)
	}
	for i, f := range s.Faults {
		if err := f.Validate(); err != nil {
			return fmt.Errorf("%v (fault %d)", err, i)
		}
	}
	return nil
}

// Horizon returns the time of the campaign's last scheduled action,
// relative to the moment the spec is applied. Experiments typically run
// until Horizon plus a settle period.
func (s Spec) Horizon() time.Duration {
	var h time.Duration
	for _, f := range s.Faults {
		if end := f.End(); end > h {
			h = end
		}
	}
	return h
}

// Render produces the canonical JSON form of the spec.
func (s Spec) Render() ([]byte, error) {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// ParseSpec decodes and validates a JSON campaign.
func ParseSpec(data []byte) (Spec, error) {
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return Spec{}, fmt.Errorf("chaos: parsing spec: %v", err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}
