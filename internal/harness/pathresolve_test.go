package harness

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/fluid"
	"repro/internal/invariant"
	"repro/internal/simnet"
	"repro/internal/topology"
	"repro/internal/workload"
)

// resolveRig is a warm 4-PoD fabric, a path resolver over it, a thousand
// random flows and a port whose flapping moves nothing but the simulator's
// flip count: a server's, which no forwarding decision reads.
type resolveRig struct {
	f       *Fabric
	resolve workload.PathFunc
	flows   []workload.Flow
	spare   *simnet.Port
}

func newResolveRig(tb testing.TB, proto Protocol) *resolveRig {
	f, err := warm(DefaultOptions(topology.FourPodSpec(), proto, 1))
	if err != nil {
		tb.Fatal(err)
	}
	plan, err := f.buildFluidPlan(DefaultWorkloadConfig().LinkBps)
	if err != nil {
		tb.Fatal(err)
	}
	servers := f.Topo.Servers
	return &resolveRig{
		f: f, resolve: f.pathFunc(plan, 49000),
		flows: seededFlows(24, 1000, 1, len(servers)), // server 0 keeps out of it: its port is the one that flaps
		spare: f.Sim.Node(servers[0].Name).Port(1),
	}
}

// flip invalidates every memoised hop the way a fault does.
func (r *resolveRig) flip() {
	r.spare.Fail()
	r.spare.Restore()
}

func (r *resolveRig) resolveAll(tb testing.TB) {
	for i := range r.flows {
		if _, _, ok := r.resolve(&r.flows[i]); !ok {
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

// TestPathResolveAllocs pins what the hop memo costs in heap objects. Cold,
// a thousand flows cost the table of rows, one row per device their walks
// cross and one candidate list per (device, leaf) pair they ask about —
// counted from the memo itself, so the budget is the memo's size and not a
// number to retune; no row exists for a device no walk crossed. Warm, they
// cost nothing, not a byte. After a flip every entry is refilled in the list
// it already has: nothing again.
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
		if cold != uint64(1+rows+lists) {
			t.Errorf("%s: resolving 1 000 flows cold allocates %d objects, want the table + %d rows + %d candidate lists", proto, cold, rows, lists)
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

// BenchmarkPathResolve times one flow's resolution onto solver links: on a
// memo that stays warm, with a port flip (every entry stale) every thousand
// flows — far more often than any run flips one — and with a flip before
// every flow, where the memo never hits and is pure overhead. The flip is
// part of the timed loop; the events it schedules are drained outside it.
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
				flips := 0
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if v.every > 0 && i%v.every == 0 {
						r.flip()
						if flips++; flips%1000 == 0 {
							b.StopTimer()
							r.f.Sim.RunFor(2 * time.Millisecond)
							b.StartTimer()
						}
					}
					sink, _, _ = r.resolve(&r.flows[i%len(r.flows)])
				}
				_ = sink
			})
		}
	}
}
