package bgp

import (
	"slices"

	"repro/internal/invariant"
	"repro/internal/ipstack"
)

// checkFIB validates the FIB entry decide just recomputed for the row's
// prefix. Callers guard with invariant.Enabled. The invariants:
//
//   - a prefix with no remaining paths keeps no BGP route (withdrawals
//     must not strand forwarding state);
//   - a prefix with paths has a BGP route whose next hops each carry a
//     non-nil interface, appear at most once, and correspond to a path
//     some peer actually advertised.
func (s *Speaker) checkFIB(rt *route) {
	prefix := rt.prefix
	if slices.Contains(s.Cfg.Networks, prefix) {
		return
	}
	name := s.Stack.Node.Name
	route := s.Stack.FIB.Get(prefix, ipstack.ProtoBGP)
	if !rt.hasPaths() {
		invariant.Assertf(route == nil,
			"bgp %s: %s has no paths but keeps a BGP FIB entry", name, prefix)
		return
	}
	invariant.Assertf(route != nil,
		"bgp %s: %s has paths but no BGP FIB entry", name, prefix)
	if route == nil {
		return
	}
	invariant.Assertf(len(route.NextHops) > 0,
		"bgp %s: BGP route for %s has no next hops", name, prefix)
	for i, nh := range route.NextHops {
		invariant.Assertf(nh.Iface != nil,
			"bgp %s: next hop %s for %s has a nil interface", name, nh.Via, prefix)
		for _, prev := range route.NextHops[:i] {
			invariant.Assertf(prev.Via != nh.Via,
				"bgp %s: next hop %s appears twice for %s", name, nh.Via, prefix)
		}
		found := false
		for j, path := range rt.paths {
			if path != nil && s.peers[j].Neighbor == nh.Via {
				found = true
				break
			}
		}
		invariant.Assertf(found,
			"bgp %s: next hop %s for %s matches no advertised path", name, nh.Via, prefix)
	}
}
