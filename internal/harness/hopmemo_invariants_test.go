//go:build invariants

package harness

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/topology"
	"repro/internal/workload"
)

// TestHopMemoCheckDetectsCorruption edits a row of the hop memo by hand, its
// stamp left current, and expects the re-derivation every hit gets under
// this tag to panic — for both planes, and for an entry emptied as well as
// one reordered.
func TestHopMemoCheckDetectsCorruption(t *testing.T) {
	for _, proto := range []Protocol{ProtoMRMTP, ProtoBGPBFD} {
		f, err := bringUp(DefaultOptions(topology.FourPodSpec(), proto, 1))
		if err != nil {
			t.Fatal(err)
		}
		plan, err := f.buildFluidPlan(DefaultWorkloadConfig().LinkBps)
		if err != nil {
			t.Fatal(err)
		}
		resolve := f.newPathResolver(plan, 49000).resolve
		servers := f.Topo.Servers
		fl := workload.Flow{Src: 0, Dst: uint16(len(servers) - 1), SrcPort: 20000}
		if _, _, ok := resolve(&fl); !ok {
			t.Fatalf("%s: a healthy fabric refuses the flow", proto)
		}
		if _, _, ok := resolve(&fl); !ok { // every hop a hit, every hit re-derived
			t.Fatalf("%s: the warm memo refuses the flow", proto)
		}
		leaf := servers[fl.Src].Ports[1].Peer.Device
		e := &f.hops[leaf.Ordinal][servers[fl.Dst].Ports[1].Peer.Device.VID]
		if len(e.cands) < 2 {
			t.Fatalf("%s: %s hashes across %v, want at least two uplinks", proto, leaf.Name, e.cands)
		}
		good := append([]uint16(nil), e.cands...)
		for _, corrupt := range []func(){
			func() { e.cands[0], e.cands[1] = e.cands[1], e.cands[0] },
			func() { e.cands = e.cands[:1] },
			func() { e.cands = e.cands[:0] },
		} {
			corrupt()
			mustPanic(t, "memoised hop", func() { resolve(&fl) })
			e.cands = append(e.cands[:0], good...)
		}
		if _, _, ok := resolve(&fl); !ok {
			t.Fatalf("%s: the restored memo refuses the flow", proto)
		}
	}
}

// TestPathMemoCheckDetectsCorruption edits a whole-path memo entry by hand,
// its stamps left current, and expects the walk every hit gets under this tag
// to panic: for both planes, with two links swapped and with the latency
// moved.
func TestPathMemoCheckDetectsCorruption(t *testing.T) {
	for _, proto := range []Protocol{ProtoMRMTP, ProtoBGPBFD} {
		f, err := bringUp(DefaultOptions(topology.FourPodSpec(), proto, 1))
		if err != nil {
			t.Fatal(err)
		}
		plan, err := f.buildFluidPlan(DefaultWorkloadConfig().LinkBps)
		if err != nil {
			t.Fatal(err)
		}
		r := f.newPathResolver(plan, 49000)
		fl := workload.Flow{Src: 0, Dst: uint16(len(f.Topo.Servers) - 1), SrcPort: 20000}
		path, _, ok := r.resolve(&fl)
		if !ok {
			t.Fatalf("%s: a healthy fabric refuses the flow", proto)
		}
		var e *memoPath
		for i := range r.paths {
			if r.paths[i].links > 0 {
				e = &r.paths[i]
			}
		}
		if e == nil || !r.current(e) || !slices.Equal(e.ids[:e.links], path) {
			t.Fatalf("%s: the flow's path %v was not filed", proto, path)
		}
		for _, corrupt := range []func(){
			func() { e.ids[1], e.ids[2] = e.ids[2], e.ids[1] },
			func() { e.latency++ },
		} {
			good := *e
			corrupt()
			mustPanic(t, "memoised path", func() { r.resolve(&fl) })
			*e = good
		}
		if _, _, ok := r.resolve(&fl); !ok {
			t.Fatalf("%s: the restored memo refuses the flow", proto)
		}
	}
}

func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if msg, _ := r.(string); r == nil || !strings.Contains(msg, want) {
			t.Fatalf("panic %v, want one naming %q", r, want)
		}
	}()
	fn()
}
