package harness

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/flowhash"
	"repro/internal/fluid"
	"repro/internal/invariant"
	"repro/internal/ipv4"
	"repro/internal/simnet"
	"repro/internal/topology"
	"repro/internal/workload"
)

// resolveRig is a warm 4-PoD fabric, a path resolver over it and a thousand
// random flows.
type resolveRig struct {
	f        *Fabric
	resolver *pathResolver
	flows    []workload.Flow
}

func newResolveRig(tb testing.TB, proto Protocol) *resolveRig {
	f, err := bringUp(DefaultOptions(topology.FourPodSpec(), proto, 1))
	if err != nil {
		tb.Fatal(err)
	}
	plan, err := f.buildFluidPlan(DefaultWorkloadConfig().LinkBps)
	if err != nil {
		tb.Fatal(err)
	}
	return &resolveRig{
		f: f, resolver: f.newPathResolver(plan, 49000),
		flows: seededFlows(24, 1000, 1, len(f.Topo.Servers)),
	}
}

// flip invalidates every memoised hop: it moves every router's
// forwarding-state clock, as a fault does to the routers it reaches, and
// changes no table.
func (r *resolveRig) flip() {
	for _, dev := range r.f.Topo.Routers() {
		r.f.bound[dev.Ordinal].node.ForwardingChanged()
	}
}

func (r *resolveRig) resolveAll(tb testing.TB) {
	for i := range r.flows {
		if _, _, ok := r.resolver.resolve(&r.flows[i]); !ok {
			tb.Fatalf("flow %d does not resolve on a healthy fabric", i)
		}
	}
}

// allocated counts the heap objects and bytes one call of fn allocates, on
// one P as budget.PerRun measures, so that no other goroutine allocates
// meanwhile. The cold and refilled memos are one-shot states, which
// PerRun's warm-up call would use up.
func allocated(fn func()) (objects, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// TestPathResolveAllocs pins what the two memos cost in heap objects. Cold,
// a thousand flows cost the hop memo's table of rows, one row per device
// their walks cross and one candidate list per (device, leaf) pair they ask
// about, and the whole-path memo's two tables (hash prefixes and paths, whose
// entries are filled in place) — counted from the memos themselves, so the
// budget is their size and not a number to retune; no row exists for a
// device no walk crossed. Warm, they cost nothing, not a byte. After a flip
// every entry is refilled where it is: nothing again.
func TestPathResolveAllocs(t *testing.T) {
	if invariant.Enabled {
		t.Skip("under -tags invariants every hit is re-derived into a fresh list")
	}
	for _, proto := range []Protocol{ProtoMRMTP, ProtoBGPBFD} {
		r := newResolveRig(t, proto)
		// The planes' own scratch (uplinks, eligible set, live next hops)
		// grows on first use whoever asks; it is grown here, outside the count.
		var buf []uint16
		for _, dev := range r.f.Topo.Routers() {
			for _, leaf := range r.f.Topo.Leaves {
				buf = r.f.bound[dev.Ordinal].hopCandidates(byte(leaf.VID), leaf.ServerSubnet.Host(1), buf[:0])
			}
		}
		cold, _ := allocated(func() { r.resolveAll(t) })
		rows, lists := 0, 0
		for _, dev := range r.f.Topo.Devices {
			hops := r.f.hops[dev.Ordinal]
			if hops == nil {
				continue
			}
			if dev.Tier == topology.TierServer {
				t.Errorf("%s: %s, a server, has a memo row", proto, dev.Name)
			}
			rows++
			for _, e := range hops {
				if e.stamp != 0 {
					lists++
				}
			}
		}
		if routers := len(r.f.Topo.Routers()); rows == 0 || rows > routers || lists > rows*len(r.f.Topo.Leaves) {
			t.Errorf("%s: %d rows and %d filled entries for %d routers and %d leaves", proto, rows, lists, routers, len(r.f.Topo.Leaves))
		}
		res := r.resolver
		if res.residues != 12 || len(res.prefix) != len(r.f.Topo.Servers)*len(r.f.Topo.Servers) || len(res.paths) != len(res.prefix)*12 {
			t.Fatalf("%s: %d residues, %d prefixes and %d memo paths for %d servers, want 12, servers² and servers² × 12",
				proto, res.residues, len(res.prefix), len(res.paths), len(r.f.Topo.Servers))
		}
		tables := 0
		if res.prefix != nil {
			tables++
		}
		if res.paths != nil {
			tables++
		}
		if cold != uint64(1+rows+lists+tables) {
			t.Errorf("%s: resolving 1 000 flows cold allocates %d objects, want the table + %d rows + %d candidate lists + the whole-path memo's %d tables", proto, cold, rows, lists, tables)
		}
		if objects, bytes := allocated(func() { r.resolveAll(t) }); objects != 0 || bytes != 0 {
			t.Errorf("%s: resolving 1 000 flows on a warm memo allocates %d objects and %d B, want 0 and 0", proto, objects, bytes)
		}
		r.flip()
		if objects, bytes := allocated(func() { r.resolveAll(t) }); objects != 0 || bytes != 0 {
			t.Errorf("%s: refilling the memo after a port flip allocates %d objects and %d B, want 0 and 0", proto, objects, bytes)
		}
	}
}

// TestFlipRefillsOnlyItsNode fails one port of a pod spine on a warm 4-PoD
// fabric whose memos a thousand flows have filled, and looks at the instant
// after, before any protocol has heard of it. Only the spine's own decisions
// read that port's carrier, so only its clock moves: every other router's hop
// entries are still current, and so is every whole-path entry that no spine
// decision made. The spine's entries refill, to what its tables say now, none
// through the dead port.
func TestFlipRefillsOnlyItsNode(t *testing.T) {
	for _, proto := range []Protocol{ProtoMRMTP, ProtoBGPBFD} {
		r := newResolveRig(t, proto)
		r.resolveAll(t)
		f, res := r.f, r.resolver
		spine := f.Topo.Spines[0]
		crosses := func(e *memoPath) bool { return slices.Contains(e.devs[:e.hops], int32(spine.Ordinal)) }
		var before []*memoPath
		for i := range res.paths {
			if e := &res.paths[i]; res.current(e) {
				before = append(before, e)
			}
		}
		port := f.bound[spine.Ordinal].node.Port(1)
		port.Fail()

		// Paths that avoid the spine and are current or stale; paths that
		// cross it and are stale or current.
		var kept, lost, through, held int
		for _, e := range before {
			switch current := res.current(e); {
			case !crosses(e) && current:
				kept++
			case !crosses(e):
				lost++
			case current:
				held++
			default:
				through++
			}
		}
		if lost > 0 || held > 0 {
			t.Errorf("%s: failing %s made %d of %d memoised paths that avoid %s stale, and left %d of %d that cross it current",
				proto, port.Name(), lost, kept+lost, spine.Name, held, through+held)
		}
		if kept+lost == 0 || through+held == 0 {
			t.Errorf("%s: %d memoised paths avoid %s and %d cross it, want some of each", proto, kept+lost, spine.Name, through+held)
		}
		others, stale := 0, 0
		for _, dev := range f.Topo.Routers() {
			b, row := &f.bound[dev.Ordinal], f.hops[dev.Ordinal]
			for _, leaf := range f.Topo.Leaves {
				root, ip := byte(leaf.VID), leaf.ServerSubnet.Host(1)
				if row == nil || row[root].stamp == 0 {
					continue
				}
				e := &row[root]
				if dev != spine {
					others++
					if e.stamp != f.hopStamp(b) {
						stale++
					}
					continue
				}
				if e.stamp == f.hopStamp(b) {
					t.Errorf("%s: %s's hop toward %s is still current after %s failed", proto, dev.Name, leaf.Name, port.Name())
				}
				f.nextHopPort(dev, root, ip, 0)
				if live := b.hopCandidates(root, ip, nil); e.stamp != f.hopStamp(b) || !slices.Equal(e.cands, live) || slices.Contains(e.cands, uint16(port.Index)) {
					t.Errorf("%s: %s's hop toward %s refilled to %v, its tables say %v and %s is down", proto, dev.Name, leaf.Name, e.cands, live, port.Name())
				}
			}
		}
		if stale > 0 {
			t.Errorf("%s: failing %s made %d of the other routers' %d memoised hops stale", proto, port.Name(), stale, others)
		}
	}
}

// BenchmarkPathResolve times one flow's resolution onto solver links: on a
// memo that stays warm, with a flip (every entry stale) every thousand flows
// — far more often than any run flips a port — and with a flip before every
// flow, where the memo never hits and is pure overhead. The flip is part of
// the timed loop.
func BenchmarkPathResolve(b *testing.B) {
	for _, proto := range []Protocol{ProtoMRMTP, ProtoBGPBFD} {
		for _, v := range []struct {
			name  string
			every int
		}{{"warm", 0}, {"flip-per-1000", 1000}, {"flip-per-flow", 1}} {
			b.Run(proto.String()+"/"+v.name, func(b *testing.B) {
				r := newResolveRig(b, proto)
				r.resolveAll(b)
				var sink []fluid.LinkID
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if v.every > 0 && i%v.every == 0 {
						r.flip()
					}
					sink, _, _ = r.resolver.resolve(&r.flows[i%len(r.flows)])
				}
				_ = sink
			})
		}
	}
}

// TestPathMemoMatchesWalk holds every resolution to a walk made at once with
// the flow's whole 5-tuple hash: on the 4-PoD and four-tier fabrics, on a
// 2-PoD fabric with four spines per pod, whose leaves hash across four
// uplinks — the fabric where a residue too coarse for a hop's candidate
// count would hand one flow another's path — and on one with eight, too
// wide for the memo (lcm(1..9) residues for 16 pairs), where every flow is
// walked. One resolver per fabric is held from cold through warm, and across
// the fail and restore of TC2 from the instant after each to a second on.
// Where the memo is kept some resolutions must be hits, or it is not under
// test.
func TestPathMemoMatchesWalk(t *testing.T) {
	wide := topology.Spec{Pods: 2, LeavesPerPod: 2, SpinesPerPod: 4, UplinksPerSpine: 2, ServersPerLeaf: 1}
	wider := wide
	wider.SpinesPerPod = 8
	for _, c := range []struct {
		name     string
		opts     Options
		residues uint32
	}{
		{"4-pod MR-MTP", DefaultOptions(topology.FourPodSpec(), ProtoMRMTP, 1), 12},
		{"4-pod BGP/ECMP/BFD", DefaultOptions(topology.FourPodSpec(), ProtoBGPBFD, 1), 12},
		{"4-tier MR-MTP", fourTierOptions(ProtoMRMTP), 12},
		{"4 spines per pod MR-MTP", DefaultOptions(wide, ProtoMRMTP, 1), 60},
		{"4 spines per pod BGP/ECMP/BFD", DefaultOptions(wide, ProtoBGPBFD, 1), 60},
		{"8 spines per pod MR-MTP", DefaultOptions(wider, ProtoMRMTP, 1), 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			f, err := bringUp(c.opts)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := f.buildFluidPlan(DefaultWorkloadConfig().LinkBps)
			if err != nil {
				t.Fatal(err)
			}
			r := f.newPathResolver(plan, walkDstPort)
			if r.residues != c.residues {
				t.Fatalf("the memo's key has %d residues, want %d", r.residues, c.residues)
			}
			servers := f.Topo.Servers
			flows := seededFlows(31, 2000, 0, len(servers))
			hits := 0
			check := func(state string) {
				for i := range flows {
					fl := &flows[i]
					key := flowhash.Key{Src: servers[fl.Src].IP, Dst: servers[fl.Dst].IP, Proto: ipv4.ProtoUDP, SrcPort: fl.SrcPort, DstPort: walkDstPort}
					hash := key.Hash()
					if r.paths != nil && r.current(r.entry(int(fl.Src), int(fl.Dst), hash)) {
						hits++
					}
					path, latency, ok := r.resolve(fl)
					got := slices.Clone(path)
					want, wantLatency, wantOK := r.walk(int(fl.Src), int(fl.Dst), hash)
					if ok != wantOK || !slices.Equal(got, want) || latency != wantLatency {
						t.Fatalf("%s: %s→%s:%d resolves onto %v (%v, %v), a walk with its hash onto %v (%v, %v)",
							state, servers[fl.Src].Name, servers[fl.Dst].Name, fl.SrcPort, got, latency, ok, want, wantLatency, wantOK)
					}
				}
			}
			check("cold")
			check("warm")
			fp, err := f.Topo.FailurePoint(topology.TC2)
			if err != nil {
				t.Fatal(err)
			}
			port := f.Sim.Node(fp.Device).Port(fp.Port)
			for _, inject := range []struct {
				name string
				do   func(*simnet.Port)
			}{{"fail", (*simnet.Port).Fail}, {"restore", (*simnet.Port).Restore}} {
				at := f.Sim.Now()
				inject.do(port)
				check("TC2 " + inject.name + ", the instant after")
				f.Sim.RunUntil(at + 60*time.Millisecond)
				check("TC2 " + inject.name + " +60 ms")
				f.Sim.RunUntil(at + time.Second)
				check("TC2 " + inject.name + " +1 s")
			}
			if c.opts.Protocol != ProtoMRMTP {
				lastHopEdit(t, f, r, flows)
				check("a FIB edit at the last deciding hop")
			}
			if (r.residues == 0 && r.paths != nil) || (r.residues > 0 && hits < len(flows)) {
				t.Errorf("%d whole-path hits in %d resolutions, %d memo entries", hits, 8*len(flows), len(r.paths))
			}
		})
	}
}

// lastHopEdit changes the forwarding state of one device alone — no port
// flip, no other device told: the last device to decide a memoised path
// routes the path's destination rack the way it routes the flow's source.
// Only that device's stamp can tell the path is stale.
func lastHopEdit(t *testing.T, f *Fabric, r *pathResolver, flows []workload.Flow) {
	t.Helper()
	servers := f.Topo.Servers
	for i := range flows {
		fl := &flows[i]
		key := flowhash.Key{Src: servers[fl.Src].IP, Dst: servers[fl.Dst].IP, Proto: ipv4.ProtoUDP, SrcPort: fl.SrcPort, DstPort: walkDstPort}
		e := r.entry(int(fl.Src), int(fl.Dst), key.Hash())
		if !r.current(e) || e.hops < 2 {
			continue
		}
		fib := &f.bound[e.devs[e.hops-1]].stack.FIB
		back, _ := fib.Lookup(servers[fl.Src].IP)
		hops := slices.Clone(back.NextHops)
		route, ok := fib.Lookup(servers[fl.Dst].IP)
		if !ok {
			t.Fatalf("%s has no route to %s", f.bound[e.devs[e.hops-1]].node.Name, servers[fl.Dst].Name)
		}
		route.NextHops = hops
		fib.Replace(route)
		return
	}
	t.Fatal("no memoised path crosses two deciding hops")
}
