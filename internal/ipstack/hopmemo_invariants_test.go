//go:build invariants

package ipstack

import (
	"strings"
	"testing"

	"repro/internal/netaddr"
)

// TestNextHopMemoCheckDetectsCorruption edits a router's memo entry by hand,
// its stamp left current, and expects the re-derivation every hit gets under
// this tag to panic: next hops reordered, one dropped, a neighbour's MAC or
// egress changed, and the local flag flipped.
func TestNextHopMemoCheckDetectsCorruption(t *testing.T) {
	g := newMemoRig(1, false)
	r := g.r
	dst := memoDsts[0]
	ifcs := r.ifaceList
	r.FIB.Replace(Route{Prefix: memoPrefixes[1], Proto: ProtoBGP, NextHops: []NextHop{
		{Via: ifcs[0].Subnet.Host(2), Iface: ifcs[0]},
		{Via: ifcs[1].Subnet.Host(2), Iface: ifcs[1]},
	}})
	for _, ifc := range ifcs[:2] {
		r.arpTable[ifc.Subnet.Host(2)] = arpEntry{mac: netaddr.MAC{2, 0xee, 0, 0, 0, byte(ifc.Port.Index)}, ifc: ifc}
		r.Node.ForwardingChanged()
	}
	send := func() { r.SendUDP(ifcs[0].IP, dst, 1000, 7, nil) }
	send()
	send() // a hit, re-derived
	e := r.route(dst)
	if len(e.hops) != 2 || e.hops[0].port == nil || e.hops[1].port == nil {
		t.Fatalf("memo entry toward %s is %+v, want two resolved next hops", dst, *e)
	}
	good := *e
	good.hops = append([]memoHop(nil), e.hops...)
	for _, c := range []struct {
		name    string
		corrupt func()
	}{
		{"reordered", func() { e.hops[0], e.hops[1] = e.hops[1], e.hops[0] }},
		{"dropped", func() { e.hops = e.hops[:1] }},
		{"mac", func() { e.hops[1].mac[5] ^= 1 }},
		{"egress", func() { e.hops[0].port = ifcs[2].Port }},
		{"local", func() { e.local = true }},
	} {
		c.corrupt()
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "memoised decision") {
					t.Errorf("%s: panic %q, want one naming the memoised decision", c.name, msg)
				}
			}()
			send()
		}()
		*e = good
		e.hops = append(e.hops[:0:0], good.hops...)
	}
	send()
}
