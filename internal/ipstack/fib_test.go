package ipstack

import (
	"math/rand"
	"testing"

	"repro/internal/budget"
	"repro/internal/netaddr"
	"repro/internal/simnet"
)

// linearFIB is the table as it was before the index: plain appends and one
// scan per operation. It is the oracle the differential tests hold FIB to.
type linearFIB struct{ routes []Route }

func (f *linearFIB) replace(r Route) {
	for i := range f.routes {
		if f.routes[i].Prefix == r.Prefix && f.routes[i].Proto == r.Proto {
			f.routes[i] = r
			return
		}
	}
	f.routes = append(f.routes, r)
}

func (f *linearFIB) remove(prefix netaddr.Prefix, proto string) bool {
	for i := range f.routes {
		if f.routes[i].Prefix == prefix && f.routes[i].Proto == proto {
			f.routes = append(f.routes[:i], f.routes[i+1:]...)
			return true
		}
	}
	return false
}

func (f *linearFIB) get(prefix netaddr.Prefix, proto string) *Route {
	for i := range f.routes {
		if f.routes[i].Prefix == prefix && f.routes[i].Proto == proto {
			return &f.routes[i]
		}
	}
	return nil
}

// lookupLinear is FIB.Lookup as it stood at b663e43: one pass over every
// route, longest usable prefix, then lowest metric, then first installed.
func lookupLinear(routes []Route, dst netaddr.IPv4) (Route, bool) {
	best := -1
	for i, r := range routes {
		if !r.Prefix.Contains(dst) {
			continue
		}
		if !r.usable() {
			continue
		}
		if best < 0 ||
			r.Prefix.Bits > routes[best].Prefix.Bits ||
			(r.Prefix.Bits == routes[best].Prefix.Bits && r.Metric < routes[best].Metric) {
			best = i
		}
	}
	if best < 0 {
		return Route{}, false
	}
	r := routes[best]
	var live []NextHop
	for _, nh := range r.NextHops {
		if nh.Iface.Usable() {
			live = append(live, nh)
		}
	}
	r.NextHops = live
	return r, true
}

// The differential's vocabulary. The bases nest inside one another at the
// lengths below, so longer prefixes shadow shorter ones and a dead specific
// route has something to fall through to.
var (
	diffLens   = []int{0, 8, 16, 24, 30, 31, 32}
	diffProtos = []string{ProtoKernel, ProtoBGP, ProtoStatic}
	diffBases  = []netaddr.IPv4{
		netaddr.MakeIPv4(10, 0, 0, 0), netaddr.MakeIPv4(10, 1, 0, 0), netaddr.MakeIPv4(10, 1, 1, 0),
		netaddr.MakeIPv4(10, 1, 1, 4), netaddr.MakeIPv4(10, 1, 1, 5), netaddr.MakeIPv4(10, 1, 1, 6),
		netaddr.MakeIPv4(10, 1, 2, 129), netaddr.MakeIPv4(172, 16, 0, 1), netaddr.MakeIPv4(192, 168, 3, 0),
		netaddr.MakeIPv4(192, 168, 3, 255),
	}
)

const diffIfaces = 6

// runFIBDifferential interprets ops, four bytes per operation, as Replace /
// Remove / port Fail / port Restore against a FIB and the linear oracle, and
// compares the two after every operation: Lookup on every interesting
// destination field by field, and Get, Len and Render.
func runFIBDifferential(t *testing.T, ops []byte) {
	sim := simnet.New(1)
	node := sim.AddNode("x")
	var ifaces [diffIfaces]*Iface
	for i := range ifaces {
		ifaces[i] = &Iface{Port: node.AddPort(), IP: netaddr.MakeIPv4(172, 31, byte(i), 1)}
	}
	var dsts []netaddr.IPv4
	for _, b := range diffBases {
		u := b.Uint32()
		dsts = append(dsts, b, netaddr.IPv4FromUint32(u+1), netaddr.IPv4FromUint32(u^3), netaddr.IPv4FromUint32(u|0xff))
	}
	dsts = append(dsts, netaddr.MakeIPv4(8, 8, 8, 8), netaddr.IPv4{}, netaddr.MakeIPv4(255, 255, 255, 255))

	var f FIB
	var oracle linearFIB
	for step := 0; len(ops) >= 4; step, ops = step+1, ops[4:] {
		op, a, b, c := ops[0], ops[1], ops[2], ops[3]
		prefix := netaddr.MakePrefix(diffBases[int(b)%len(diffBases)], diffLens[int(a)%len(diffLens)])
		proto := diffProtos[int(c)%len(diffProtos)]
		switch op % 8 {
		case 0, 1, 2, 3: // Replace: ECMP group from the bits of a and c, never empty
			var nhs []NextHop
			for i, mask := 0, a>>3|c>>3; i < diffIfaces; i++ {
				if mask&(1<<i) != 0 {
					nhs = append(nhs, NextHop{Via: netaddr.MakeIPv4(172, 31, byte(i), 2), Iface: ifaces[i]})
				}
			}
			if len(nhs) == 0 {
				nhs = []NextHop{{Iface: ifaces[int(a)%diffIfaces]}}
			}
			r := Route{Prefix: prefix, NextHops: nhs, Proto: proto, Metric: int(op>>3) % 3 * 10}
			f.Replace(r)
			oracle.replace(r)
		case 4, 5:
			if got, want := f.Remove(prefix, proto), oracle.remove(prefix, proto); got != want {
				t.Fatalf("step %d: Remove(%v, %s) = %v, oracle %v", step, prefix, proto, got, want)
			}
		case 6:
			ifaces[int(a)%diffIfaces].Port.Fail()
		case 7:
			ifaces[int(a)%diffIfaces].Port.Restore()
		}

		if f.Len() != len(oracle.routes) {
			t.Fatalf("step %d: Len = %d, oracle %d", step, f.Len(), len(oracle.routes))
		}
		for _, dst := range dsts {
			got, gotOK := f.Lookup(dst)
			want, wantOK := lookupLinear(oracle.routes, dst)
			if gotOK != wantOK || !sameRoute(got, want) {
				t.Fatalf("step %d: Lookup(%v) = %+v %v, linear scan %+v %v", step, dst, got, gotOK, want, wantOK)
			}
		}
		for _, base := range diffBases {
			for _, bits := range diffLens {
				for _, proto := range diffProtos {
					p := netaddr.MakePrefix(base, bits)
					got, want := f.Get(p, proto), oracle.get(p, proto)
					if (got == nil) != (want == nil) || got != nil && !sameRoute(*got, *want) {
						t.Fatalf("step %d: Get(%v, %s) = %+v, oracle %+v", step, p, proto, got, want)
					}
				}
			}
		}
		if got, want := f.Render(), (&FIB{routes: oracle.routes}).Render(); got != want {
			t.Fatalf("step %d: Render differs from a FIB built by plain appends:\n%s\nwant:\n%s", step, got, want)
		}
	}
}

func sameRoute(a, b Route) bool {
	if a.Prefix != b.Prefix || a.Proto != b.Proto || a.Metric != b.Metric || len(a.NextHops) != len(b.NextHops) {
		return false
	}
	for i := range a.NextHops {
		if a.NextHops[i] != b.NextHops[i] {
			return false
		}
	}
	return true
}

// TestFIBMatchesLinearScan holds the indexed FIB to the scan it replaced
// over seeded random operation sequences.
func TestFIBMatchesLinearScan(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		ops := make([]byte, 4*150)
		rand.New(rand.NewSource(seed)).Read(ops)
		runFIBDifferential(t, ops)
	}
}

// FuzzFIBLookup is the same differential with the fuzzer choosing the
// operations.
func FuzzFIBLookup(f *testing.F) {
	f.Add([]byte{0, 3, 2, 1, 0, 24, 2, 9, 6, 0, 0, 0, 4, 3, 2, 1})
	f.Add([]byte{8, 0, 0, 2, 16, 4, 3, 17, 0, 5, 3, 1, 6, 1, 0, 0, 6, 0, 0, 0, 7, 1, 0, 0})
	seeded := make([]byte, 4*40)
	rand.New(rand.NewSource(19)).Read(seeded)
	f.Add(seeded)
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4*200 {
			ops = ops[:4*200]
		}
		runFIBDifferential(t, ops)
	})
}

// fabricFIB builds a spine-shaped table: links point-to-point /31s and racks
// ECMP /24s over two uplinks.
func fabricFIB(t *testing.T, links, racks int) (*FIB, netaddr.IPv4) {
	t.Helper()
	sim := simnet.New(1)
	node := sim.AddNode("x")
	var f FIB
	var ifaces []*Iface
	for i := 0; i < links; i++ {
		sub := netaddr.MakePrefix(netaddr.MakeIPv4(172, 16, byte(i), 0), 31)
		ifc := &Iface{Port: node.AddPort(), IP: sub.Host(0), Subnet: sub}
		ifaces = append(ifaces, ifc)
		f.Replace(Route{Prefix: sub, NextHops: []NextHop{{Iface: ifc}}, Proto: ProtoKernel})
	}
	var last netaddr.Prefix
	for i := 0; i < racks; i++ {
		last = netaddr.MakePrefix(netaddr.MakeIPv4(192, 168, byte(i), 0), 24)
		f.Replace(Route{Prefix: last, Proto: ProtoBGP, Metric: 20, NextHops: []NextHop{
			{Via: ifaces[0].Subnet.Host(1), Iface: ifaces[0]},
			{Via: ifaces[1].Subnet.Host(1), Iface: ifaces[1]},
		}})
	}
	return &f, last.Host(1)
}

// TestFIBLookupAllocs pins the per-packet budget: the index is probed and the
// live next hops land in the FIB's scratch, so a lookup allocates nothing.
func TestFIBLookupAllocs(t *testing.T) {
	f, dst := fabricFIB(t, 24, 100)
	if r, ok := f.Lookup(dst); !ok || len(r.NextHops) != 2 {
		t.Fatalf("Lookup(%v) = %+v %v, want the two-way ECMP rack route", dst, r, ok)
	}
	for _, d := range []netaddr.IPv4{dst, netaddr.MakeIPv4(172, 16, 7, 1), netaddr.MakeIPv4(8, 8, 8, 8)} {
		if allocs, bytes := budget.PerRun(200, func() { f.Lookup(d) }); allocs != 0 || bytes != 0 {
			t.Errorf("Lookup(%v) allocates %d objects and %d B per op, want 0 and 0", d, allocs, bytes)
		}
	}
}

// TestFIBZeroValue: Stack embeds a FIB by value and never initialises it.
func TestFIBZeroValue(t *testing.T) {
	var f FIB
	p := netaddr.MakePrefix(netaddr.MakeIPv4(10, 0, 0, 0), 8)
	if _, ok := f.Lookup(p.Host(1)); ok {
		t.Error("empty FIB resolved a destination")
	}
	if f.Get(p, ProtoBGP) != nil || f.Remove(p, ProtoBGP) || f.Len() != 0 || f.Render() != "" {
		t.Error("empty FIB is not empty")
	}
	ifc := &Iface{Port: simnet.New(1).AddNode("x").AddPort()}
	f.Replace(Route{Prefix: p, NextHops: []NextHop{{Iface: ifc}}, Proto: ProtoBGP})
	if r, ok := f.Lookup(p.Host(1)); !ok || r.Prefix != p {
		t.Errorf("Lookup after the first Replace = %+v %v", r, ok)
	}
}

// TestFIBCanonicalPrefix: a prefix with host bits set or a length outside
// 0..32 is stored masked and clamped, and every spelling names the one route.
func TestFIBCanonicalPrefix(t *testing.T) {
	ifc := &Iface{Port: simnet.New(1).AddNode("x").AddPort()}
	nhs := []NextHop{{Iface: ifc}}
	var f FIB
	sloppy := netaddr.Prefix{IP: netaddr.MakeIPv4(10, 0, 0, 1), Bits: 24}
	clean := netaddr.MakePrefix(sloppy.IP, 24)
	f.Replace(Route{Prefix: sloppy, NextHops: nhs, Proto: ProtoBGP})
	if r, ok := f.Lookup(netaddr.MakeIPv4(10, 0, 0, 77)); !ok || r.Prefix != clean {
		t.Fatalf("Lookup inside %v = %+v %v, want the route, stored as %v", sloppy, r, ok, clean)
	}
	if f.Get(sloppy, ProtoBGP) == nil || f.Get(clean, ProtoBGP) == nil {
		t.Error("Get does not find the route under both spellings")
	}
	f.Replace(Route{Prefix: netaddr.Prefix{IP: netaddr.MakeIPv4(10, 0, 0, 2), Bits: 24}, NextHops: nhs, Proto: ProtoBGP})
	if f.Len() != 1 {
		t.Errorf("a second spelling of the prefix installed a second route: Len = %d", f.Len())
	}
	if !f.Remove(netaddr.Prefix{IP: netaddr.MakeIPv4(10, 0, 0, 200), Bits: 24}, ProtoBGP) || f.Len() != 0 {
		t.Error("Remove under a third spelling did not remove the route")
	}

	host := netaddr.MakeIPv4(10, 9, 8, 7)
	f.Replace(Route{Prefix: netaddr.Prefix{IP: host, Bits: 40}, NextHops: nhs, Proto: ProtoStatic})
	f.Replace(Route{Prefix: netaddr.Prefix{IP: host, Bits: -3}, NextHops: nhs, Proto: ProtoStatic})
	if r, ok := f.Lookup(host); !ok || r.Prefix != netaddr.MakePrefix(host, 32) {
		t.Errorf("Bits 40 was not clamped to a /32: Lookup = %+v %v", r, ok)
	}
	if r, ok := f.Lookup(netaddr.MakeIPv4(8, 8, 8, 8)); !ok || r.Prefix != (netaddr.Prefix{}) {
		t.Errorf("Bits -3 was not clamped to the default route: Lookup = %+v %v", r, ok)
	}
}

// TestFIBForkOwnsItsRoutes: a forked table names the copies of its
// interfaces, and neither table's later writes reach the other.
func TestFIBForkOwnsItsRoutes(t *testing.T) {
	f, dst := fabricFIB(t, 4, 8)
	before := f.Render()
	copies := make(map[*Iface]*Iface)
	c := f.fork(func(ifc *Iface) *Iface {
		if copies[ifc] == nil {
			cp := *ifc
			copies[ifc] = &cp
		}
		return copies[ifc]
	}, FIB{})
	for _, r := range f.routes {
		for _, nh := range r.NextHops {
			if copies[nh.Iface] == nil {
				t.Fatalf("the source's route %s names a copied interface", r.Prefix)
			}
		}
	}
	for _, r := range c.routes {
		for _, nh := range r.NextHops {
			if copies[nh.Iface] != nil {
				t.Fatalf("the fork's route %s names a source interface", r.Prefix)
			}
		}
	}
	r, _ := c.Lookup(dst)
	c.Replace(Route{Prefix: r.Prefix, Proto: ProtoBGP, Metric: 20, NextHops: r.NextHops[:1]})
	c.Remove(netaddr.MakePrefix(netaddr.MakeIPv4(192, 168, 0, 0), 24), ProtoBGP)
	if got := f.Render(); got != before {
		t.Errorf("writes to the fork changed the source:\n%s\nwas\n%s", got, before)
	}
}
