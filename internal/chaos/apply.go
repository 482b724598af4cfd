package chaos

import (
	"fmt"
	"time"

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
// fault action actually executed. Because actions are simulator events,
// the log is in virtual-time order and — for a given spec and seed —
// identical run to run.
type Injector struct {
	// Events is the log. A campaign may append its own rows (the trace
	// campaign's verdicts) from simulator events, which keeps the order.
	Events []Event

	sim *simnet.Sim
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
// and schedules all fault actions relative to the current virtual time.
// Resolution is eager: a spec naming a missing device or link fails here,
// before anything is scheduled. The returned Injector accumulates the
// action log as the simulation runs the campaign.
func Apply(sim *simnet.Sim, spec Spec) (*Injector, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	in := &Injector{sim: sim}
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
		}
		if err != nil {
			return nil, fmt.Errorf("%v (fault %d)", err, i)
		}
	}
	return in, nil
}

func (in *Injector) applyFlapStorm(f Fault) error {
	port, err := resolvePort(in.sim, f.Link)
	if err != nil {
		return err
	}
	// Each cycle: down for (1-Duty)·Period, then up for the rest.
	down := time.Duration((1 - f.Duty) * float64(f.Period.D()))
	for i := 0; i < f.Flaps; i++ {
		at := f.Start.D() + time.Duration(i)*f.Period.D()
		flap := i + 1
		in.sim.Schedule(at, func() {
			port.Fail()
			in.record(FlapStorm, "fail", port.Name(), fmt.Sprintf("flap %d/%d", flap, f.Flaps))
		})
		in.sim.Schedule(at+down, func() {
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
	in.sim.Schedule(f.Start.D(), func() {
		port.Link.Impair(port, imp)
		in.record(f.Kind, "impair", port.Name(), detail)
	})
	in.sim.Schedule(f.Start.D()+f.Duration.D(), func() {
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
	in.sim.Schedule(f.Start.D(), func() {
		peer.Link.Impair(peer, simnet.Impairment{Down: true})
		port.CarrierFault()
		in.record(OneWay, "carrier-fault", port.Name(), "rx direction blackholed")
	})
	in.sim.Schedule(f.Start.D()+f.Duration.D(), func() {
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
		in.sim.Schedule(at, func() {
			port.Fail()
			in.record(Correlated, "fail", port.Name(), "")
		})
		in.sim.Schedule(at+f.Duration.D(), func() {
			port.Restore()
			in.record(Correlated, "restore", port.Name(), "")
		})
	}
	return nil
}

func (in *Injector) applyDrain(f Fault) error {
	nodes := make([]*simnet.Node, len(f.Nodes))
	for i, name := range f.Nodes {
		n := in.sim.Node(name)
		if n == nil {
			return fmt.Errorf("chaos: no node %q", name)
		}
		nodes[i] = n
	}
	for i, n := range nodes {
		node := n
		at := f.Start.D() + time.Duration(i)*f.Stagger.D()
		in.sim.Schedule(at, func() {
			for _, p := range node.Ports[1:] {
				p.Fail()
			}
			in.record(Drain, "drain", node.Name, fmt.Sprintf("%d ports", len(node.Ports)-1))
		})
		in.sim.Schedule(at+f.Duration.D(), func() {
			for _, p := range node.Ports[1:] {
				p.Restore()
			}
			in.record(Drain, "undrain", node.Name, fmt.Sprintf("%d ports", len(node.Ports)-1))
		})
	}
	return nil
}
