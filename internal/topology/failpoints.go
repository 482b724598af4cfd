package topology

import "fmt"

// FailureCase identifies one of the paper's four interface-failure test
// points (Fig. 3). All four sit on the fabric's first column — L-1-1 / S-1-1
// / T-1 in the paper's fabrics: TC1/TC2 are the two ends of the first leaf's
// first uplink and TC3/TC4 the two ends of that spine's first uplink. The
// *end* matters: the device owning the failed interface detects it
// immediately, the other end only via protocol timers.
type FailureCase int

// The paper's failure test cases.
const (
	TC1 FailureCase = iota + 1 // L-1-1's uplink interface to S-1-1
	TC2                        // S-1-1's downlink interface to L-1-1
	TC3                        // S-1-1's uplink interface to T-1 (to A-1-1 under a zone tier)
	TC4                        // the downlink interface at the other end of TC3's link
)

func (c FailureCase) String() string {
	if c < TC1 || c > TC4 {
		return fmt.Sprintf("FailureCase(%d)", int(c))
	}
	return fmt.Sprintf("TC%d", int(c))
}

// AllFailureCases lists TC1..TC4 in order.
func AllFailureCases() []FailureCase { return []FailureCase{TC1, TC2, TC3, TC4} }

// FailurePoint names the interface a test case brings down.
type FailurePoint struct {
	Device string // node executing the `ip link set down`
	Port   int    // 1-based interface index on that node
}

// FailurePoint resolves a test case against this fabric.
func (t *Topology) FailurePoint(c FailureCase) (FailurePoint, error) {
	leafUp := t.Leaves[0].Ports[1]
	spineUp := leafUp.Peer.Device.Ports[1]
	var p *Port
	switch c {
	case TC1:
		p = leafUp
	case TC2:
		p = leafUp.Peer
	case TC3:
		p = spineUp
	case TC4:
		p = spineUp.Peer
	default:
		return FailurePoint{}, fmt.Errorf("topology: unknown failure case %d", int(c))
	}
	return FailurePoint{p.Device.Name, p.Index}, nil
}
