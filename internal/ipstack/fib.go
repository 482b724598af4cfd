// Package ipstack is the host/router IP stack of the BGP baseline: Ethernet
// demux, ARP resolution, IPv4 forwarding with an ECMP-capable FIB, and
// UDP/TCP delivery. It plays the role of the Linux kernel networking that
// the paper's FRR routers sat on, including the behaviour the experiments
// depend on: when a local interface dies, next hops through it become
// unusable immediately (the kernel's dead-nexthop handling), which is why
// BGP packet loss is small when the failure is adjacent to the traffic
// source (Fig. 7, TC1/TC3).
package ipstack

import (
	"fmt"
	"maps"
	"math/bits"
	"slices"
	"sort"
	"strings"

	"repro/internal/flowhash"
	"repro/internal/netaddr"
	"repro/internal/simnet"
)

// Route protocol tags, mirroring `ip route` output (Listing 3).
const (
	ProtoKernel = "kernel"
	ProtoBGP    = "bgp"
	ProtoStatic = "static"
)

// NextHop is one way out of the router for a route.
type NextHop struct {
	Via   netaddr.IPv4 // gateway; zero for directly connected routes
	Iface *Iface
}

// Route is a FIB entry. Multiple next hops form an ECMP group.
type Route struct {
	Prefix   netaddr.Prefix
	NextHops []NextHop
	Proto    string
	Metric   int
}

// FIB is a longest-prefix-match forwarding table. The zero value is an
// empty table ready for use.
//
// routes keeps installation order: Len, Render and the equal-metric
// tie-break of Lookup read it. Beside it sits an exact-match index, one
// probe per prefix length present, instead of a trie: a fabric router's
// routes are all /24s (links and racks alike, as in the paper's Listing 3)
// and a server has its rack and the default, so a lookup is one or two hash
// probes however many racks the fabric has.
type FIB struct {
	routes []Route
	// head maps a prefix (fibKey) to the position in routes of its
	// earliest-installed route; next[i] is the position of the next route
	// with the same prefix (another Proto), or -1. Positions along a chain
	// ascend.
	head map[uint64]int32
	next []int32
	lens uint64    // bit b set: some route has a /b prefix
	live []NextHop // Lookup's scratch: reused so per-packet lookups do not allocate
	// node is the stack's node: Replace and Remove, the only mutators, move
	// its forwarding-state clock. With the carrier of its interfaces, which
	// the same clock records, that is everything Lookup reads. A zero-value
	// FIB has none and records nothing.
	node *simnet.Node
}

// changed records a table edit on the node's forwarding-state clock.
func (f *FIB) changed() {
	if f.node != nil {
		f.node.ForwardingChanged()
	}
}

// canonical is the form every prefix takes inside the FIB: Bits clamped to
// 0..32 and the address masked down to it, so that a route is always
// matchable by the destinations its prefix names.
func canonical(p netaddr.Prefix) netaddr.Prefix {
	return netaddr.MakePrefix(p.IP, max(0, min(p.Bits, 32)))
}

// fibKey packs a canonical prefix (network address as a uint32, length)
// into the index key.
func fibKey(network uint32, bits int) uint64 { return uint64(bits)<<32 | uint64(network) }

// find returns the position of the route for a canonical prefix installed
// by proto, or -1.
func (f *FIB) find(prefix netaddr.Prefix, proto string) int {
	i, ok := f.head[fibKey(prefix.IP.Uint32(), prefix.Bits)]
	if !ok {
		return -1
	}
	for ; i >= 0; i = f.next[i] {
		if f.routes[i].Proto == proto {
			return int(i)
		}
	}
	return -1
}

// index enters routes[i], the highest position so far, at the tail of its
// prefix's chain.
func (f *FIB) index(i int) {
	p := f.routes[i].Prefix
	k := fibKey(p.IP.Uint32(), p.Bits)
	f.next = append(f.next, -1)
	if j, ok := f.head[k]; ok {
		for f.next[j] >= 0 {
			j = f.next[j]
		}
		f.next[j] = int32(i)
		return
	}
	if f.head == nil {
		f.head = make(map[uint64]int32)
	}
	f.head[k] = int32(i)
	f.lens |= 1 << p.Bits
}

// Replace installs a route, replacing any same-prefix route from the same
// protocol. The prefix is stored in canonical form — host bits cleared, Bits
// clamped to 0..32 — rather than refused: Get and Remove canonicalise their
// argument the same way, so every spelling of a prefix names one route.
func (f *FIB) Replace(r Route) {
	r.Prefix = canonical(r.Prefix)
	f.changed()
	if i := f.find(r.Prefix, r.Proto); i >= 0 {
		f.routes[i] = r
		return
	}
	f.routes = append(f.routes, r)
	f.index(len(f.routes) - 1)
}

// Remove deletes the route for prefix installed by proto. It reports
// whether a route was removed. Every later route moves down one position,
// so the index is rebuilt; removal happens on withdrawal only.
func (f *FIB) Remove(prefix netaddr.Prefix, proto string) bool {
	i := f.find(canonical(prefix), proto)
	if i < 0 {
		return false
	}
	f.changed()
	f.routes = append(f.routes[:i], f.routes[i+1:]...)
	clear(f.head)
	f.next = f.next[:0]
	f.lens = 0
	for i := range f.routes {
		f.index(i)
	}
	return true
}

// Get returns the route for an exact prefix+proto, or nil. The pointer
// aims into the FIB's own storage: it is valid until the next Replace that
// installs a new route, or any Remove; callers read it at once.
func (f *FIB) Get(prefix netaddr.Prefix, proto string) *Route {
	if i := f.find(canonical(prefix), proto); i >= 0 {
		return &f.routes[i]
	}
	return nil
}

// Len returns the number of routes: the "routing table size" metric of the
// paper's §VII.H comparison.
func (f *FIB) Len() int { return len(f.routes) }

// Lookup performs longest-prefix-match for dst, preferring more-specific
// prefixes, then lower metrics, then the earliest-installed route. Next hops
// whose interface is down are filtered out (kernel dead-nexthop behaviour);
// a route with no usable next hops is skipped entirely, so a dead
// more-specific route falls through to the next shorter prefix.
//
// The returned route's NextHops slice is scratch space owned by the FIB: it
// is valid until the next Lookup call. Per-packet callers (routeOut) consume
// it immediately; anyone who needs to keep it must copy.
func (f *FIB) Lookup(dst netaddr.IPv4) (Route, bool) {
	d := dst.Uint32()
	for lens := f.lens; lens != 0; {
		b := bits.Len64(lens) - 1 // longest length not yet probed
		lens &^= 1 << b
		// Masked here rather than through netaddr.MakePrefix: the round
		// trip through a byte array doubles the cost of a lookup.
		i, ok := f.head[fibKey(d&uint32(^uint64(0)<<(32-b)), b)]
		if !ok {
			continue
		}
		best := -1
		for ; i >= 0; i = f.next[i] {
			if f.routes[i].usable() && (best < 0 || f.routes[i].Metric < f.routes[best].Metric) {
				best = int(i)
			}
		}
		if best < 0 {
			continue
		}
		r := f.routes[best]
		live := f.live[:0]
		for _, nh := range r.NextHops {
			if nh.Iface.Usable() {
				live = append(live, nh)
			}
		}
		f.live = live
		r.NextHops = live
		return r, true
	}
	return Route{}, false
}

func (r *Route) usable() bool {
	for _, nh := range r.NextHops {
		if nh.Iface.Usable() {
			return true
		}
	}
	return false
}

// FlowKey is the 5-tuple ECMP hashes on. It is shared with MR-MTP's uplink
// load balancing (paper §III.C mentions "a hash algorithm to load balance
// traffic from a downstream router to upstream routers") via flowhash. A
// flow takes the live next hop at Hash() modulo their count (Stack.send).
type FlowKey = flowhash.Key

// Render prints the FIB in `ip route` style, matching the paper's
// Listing 3 (kernel routing table at a tier-2 spine).
func (f *FIB) Render() string {
	routes := append([]Route(nil), f.routes...)
	sort.Slice(routes, func(i, j int) bool {
		if routes[i].Prefix.IP != routes[j].Prefix.IP {
			return routes[i].Prefix.IP.Uint32() < routes[j].Prefix.IP.Uint32()
		}
		return routes[i].Prefix.Bits < routes[j].Prefix.Bits
	})
	var b strings.Builder
	for _, r := range routes {
		switch {
		case r.Proto == ProtoKernel:
			fmt.Fprintf(&b, "%s dev eth%d proto kernel scope link src %s\n",
				r.Prefix, r.NextHops[0].Iface.Port.Index, r.NextHops[0].Iface.IP)
		case len(r.NextHops) == 1:
			fmt.Fprintf(&b, "%s via %s dev eth%d proto %s metric %d\n",
				r.Prefix, r.NextHops[0].Via, r.NextHops[0].Iface.Port.Index, r.Proto, r.Metric)
		default:
			fmt.Fprintf(&b, "%s proto %s metric %d\n", r.Prefix, r.Proto, r.Metric)
			for _, nh := range r.NextHops {
				fmt.Fprintf(&b, "\tnexthop via %s dev eth%d weight 1\n", nh.Via, nh.Iface.Port.Index)
			}
		}
	}
	return b.String()
}

// fork copies the table for a forked stack, each next hop's interface
// replaced by its copy. The copy has no node: the stack gives it its own.
func (f *FIB) fork(iface func(*Iface) *Iface) FIB {
	c := FIB{
		routes: make([]Route, len(f.routes), cap(f.routes)),
		head:   maps.Clone(f.head),
		next:   slices.Clone(f.next),
		lens:   f.lens,
	}
	for i, r := range f.routes {
		nhs := make([]NextHop, len(r.NextHops))
		for j, nh := range r.NextHops {
			nhs[j] = NextHop{Via: nh.Via, Iface: iface(nh.Iface)}
		}
		r.NextHops = nhs
		c.routes[i] = r
	}
	return c
}
