package chaos

import (
	"fmt"
	"math"
	"time"

	"repro/internal/metrics"
	"repro/internal/simnet"
)

// Event is one injector action, logged at the virtual time it fired.
type Event struct {
	At     time.Duration `json:"at"`
	Kind   Kind          `json:"kind"`
	Action string        `json:"action"`
	Target string        `json:"target"`
	Detail string        `json:"detail,omitempty"`
}

// Injector is a spec applied to a simulation: it owns the log of every
// fault action actually executed. Because actions run when they are due —
// at apply time or as simulator events — the log is in virtual-time order
// and, for a given spec and seed, identical run to run.
type Injector struct {
	// Events is the log. A campaign may append its own rows (the trace
	// campaign's verdicts) from simulator events, which keeps the order.
	Events []Event

	sim *simnet.Sim
	log *metrics.Log
	// now holds the actions due at offset zero until every fault has resolved.
	now []func()
}

// at runs fn offset after the spec was applied: as a simulator event, or,
// at offset zero, before Apply returns, as `ip link set down` acts when it
// is typed. An injection at the current instant thus adds no event.
func (in *Injector) at(offset time.Duration, fn func()) {
	if offset == 0 {
		in.now = append(in.now, fn)
		return
	}
	in.sim.Schedule(offset, fn)
}

// fail fails a port and records the failure in the Log at this instant.
func (in *Injector) fail(p *simnet.Port) {
	p.Fail()
	in.log.FailureInjected(in.sim.Now(), p.Node.Name, p.Index)
}

func (in *Injector) record(k Kind, action, target, detail string) {
	in.Events = append(in.Events, Event{
		At: in.sim.Now(), Kind: k, Action: action, Target: target, Detail: detail,
	})
}

// resolvePort finds the interface on ref.Device wired to ref.Peer. Node
// port slices are in insertion order, so resolution is deterministic even
// when parallel links exist (the first is chosen).
func resolvePort(sim *simnet.Sim, ref LinkRef) (*simnet.Port, error) {
	node := sim.Node(ref.Device)
	if node == nil {
		return nil, fmt.Errorf("chaos: no node %q", ref.Device)
	}
	for _, p := range node.Ports[1:] {
		if p.Link != nil && p.Peer().Node.Name == ref.Peer {
			return p, nil
		}
	}
	return nil, fmt.Errorf("chaos: %s has no link to %s", ref.Device, ref.Peer)
}

// Apply validates the spec, resolves every target against the simulation,
// and runs every fault action at its offset from the current virtual time:
// those due at offset zero before it returns, the rest as simulator events.
// Resolution is eager: a spec naming a missing device or link fails here,
// before any action at offset zero has run. The returned Injector
// accumulates the action log as the simulation runs the campaign; every
// port a fault action fails is also a failure event in log (nil records
// nothing).
func Apply(sim *simnet.Sim, spec Spec, log *metrics.Log) (*Injector, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Horizon() > math.MaxInt64-sim.Now() {
		return nil, fmt.Errorf("chaos: %s ends past the largest time.Duration", spec.Name)
	}
	in := &Injector{sim: sim, log: log}
	for i := range spec.Faults {
		f := spec.Faults[i]
		var err error
		switch f.Kind {
		case FlapStorm:
			err = in.applyFlapStorm(f)
		case GrayLoss, LinkImpair:
			err = in.applyImpair(f)
		case OneWay:
			err = in.applyOneWay(f)
		case Correlated:
			err = in.applyCorrelated(f)
		case Drain:
			err = in.applyDrain(f)
		case Down:
			err = in.applyDown(f)
		}
		if err != nil {
			return nil, fmt.Errorf("%v (fault %d)", err, i)
		}
	}
	for _, fn := range in.now {
		fn()
	}
	in.now = nil
	return in, nil
}

func (in *Injector) applyFlapStorm(f Fault) error {
	port, err := resolvePort(in.sim, f.Link)
	if err != nil {
		return err
	}
	// Each cycle: down first, for the period less its up time Duty·Period.
	// The product is rounded, as Duty is a binary fraction and can miss the
	// whole nanosecond meant by a hair. Duty < 1 keeps it inside
	// time.Duration however long the period, but near 2^63 ns it can pass
	// Period by a nanosecond, so down stops at zero.
	down := max(f.Period.D()-time.Duration(math.Round(f.Duty*float64(f.Period.D()))), 0)
	for i := 0; i < f.Flaps; i++ {
		at := f.Start.D() + time.Duration(i)*f.Period.D()
		flap := i + 1
		in.at(at, func() {
			in.fail(port)
			in.record(FlapStorm, "fail", port.Name(), fmt.Sprintf("flap %d/%d", flap, f.Flaps))
		})
		in.at(at+down, func() {
			port.Restore()
			in.record(FlapStorm, "restore", port.Name(), fmt.Sprintf("flap %d/%d", flap, f.Flaps))
		})
	}
	return nil
}

// applyImpair covers both gray-loss and the compound impair profile: the
// difference is only which profile fields are populated.
func (in *Injector) applyImpair(f Fault) error {
	port, err := resolvePort(in.sim, f.Link)
	if err != nil {
		return err
	}
	imp := simnet.Impairment{
		LossRate:     f.LossRate,
		CorruptRate:  f.CorruptRate,
		ExtraLatency: f.ExtraLatency.D(),
		Jitter:       f.Jitter.D(),
	}
	detail := fmt.Sprintf("loss=%v corrupt=%v latency=%v jitter=%v",
		f.LossRate, f.CorruptRate, f.ExtraLatency.D(), f.Jitter.D())
	in.at(f.Start.D(), func() {
		port.Link.Impair(port, imp)
		in.record(f.Kind, "impair", port.Name(), detail)
	})
	in.at(f.Start.D()+f.Duration.D(), func() {
		port.Link.Impair(port, simnet.Impairment{})
		in.record(f.Kind, "clear", port.Name(), "")
	})
	return nil
}

func (in *Injector) applyOneWay(f Fault) error {
	// f.Link.Device is the victim: its receiver goes dark (frames from
	// Peer blackhole, its optics alarm) while its transmitter keeps
	// talking and the peer's interface stays clean.
	port, err := resolvePort(in.sim, f.Link)
	if err != nil {
		return err
	}
	peer := port.Peer()
	in.at(f.Start.D(), func() {
		peer.Link.Impair(peer, simnet.Impairment{Down: true})
		port.CarrierFault()
		in.record(OneWay, "carrier-fault", port.Name(), "rx direction blackholed")
	})
	in.at(f.Start.D()+f.Duration.D(), func() {
		peer.Link.Impair(peer, simnet.Impairment{})
		port.CarrierRestore()
		in.record(OneWay, "carrier-restore", port.Name(), "")
	})
	return nil
}

func (in *Injector) applyCorrelated(f Fault) error {
	ports := make([]*simnet.Port, len(f.Links))
	for i, ref := range f.Links {
		p, err := resolvePort(in.sim, ref)
		if err != nil {
			return err
		}
		ports[i] = p
	}
	for i, p := range ports {
		port := p
		at := f.Start.D() + time.Duration(i)*f.Stagger.D()
		in.at(at, func() {
			in.fail(port)
			in.record(Correlated, "fail", port.Name(), "")
		})
		in.at(at+f.Duration.D(), func() {
			port.Restore()
			in.record(Correlated, "restore", port.Name(), "")
		})
	}
	return nil
}

// resolveNodes finds every node named, in order.
func resolveNodes(sim *simnet.Sim, names []string) ([]*simnet.Node, error) {
	nodes := make([]*simnet.Node, len(names))
	for i, name := range names {
		if nodes[i] = sim.Node(name); nodes[i] == nil {
			return nil, fmt.Errorf("chaos: no node %q", name)
		}
	}
	return nodes, nil
}

func (in *Injector) applyDrain(f Fault) error {
	nodes, err := resolveNodes(in.sim, f.Nodes)
	if err != nil {
		return err
	}
	for i, n := range nodes {
		node := n
		at := f.Start.D() + time.Duration(i)*f.Stagger.D()
		in.at(at, func() {
			for _, p := range node.Ports[1:] {
				in.fail(p)
			}
			in.record(Drain, "drain", node.Name, fmt.Sprintf("%d ports", len(node.Ports)-1))
		})
		in.at(at+f.Duration.D(), func() {
			for _, p := range node.Ports[1:] {
				p.Restore()
			}
			in.record(Drain, "undrain", node.Name, fmt.Sprintf("%d ports", len(node.Ports)-1))
		})
	}
	return nil
}

func (in *Injector) applyDown(f Fault) error {
	nodes, err := resolveNodes(in.sim, f.Nodes)
	if err != nil {
		return err
	}
	var ports []*simnet.Port
	for _, n := range nodes {
		ports = append(ports, n.Ports[1:]...)
	}
	if len(nodes) == 0 {
		port, err := resolvePort(in.sim, f.Link)
		if err != nil {
			return err
		}
		ports = append(ports, port)
	}
	in.at(f.Start.D(), func() {
		for _, p := range ports {
			in.fail(p)
			in.record(Down, "fail", p.Name(), "")
		}
	})
	return nil
}
