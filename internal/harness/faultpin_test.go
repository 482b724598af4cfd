package harness

import (
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/metrics"
	"repro/internal/topology"
)

// TestFaultPathsPinned pins every way the fault experiments break a fabric:
// RunFailure's TC1–TC4, RunLoss across the same four, the S-1-1 crash, and
// the two RunFlap shapes closlab prints (5 × 500 ms down / 4 s up, and the
// Slow-to-Accept ablation's 8 × 150 ms / 120 ms). For each it hashes the
// result and, where the run keeps one, the rendered journal of its log, on
// both paper fabrics × three protocols × two seeds. The hashes were recorded
// on c437891, where the harness failed interfaces itself (FailPoint,
// FailNode and RunFlap's own loop), before every fault became a chaos.Fault.
func TestFaultPathsPinned(t *testing.T) {
	want := map[string]uint64{
		"2-pod/MR-MTP/1":       0x6b902b1973c81f23,
		"2-pod/MR-MTP/2":       0x286fae66b9c6840d,
		"2-pod/BGP/ECMP/1":     0x8caba28636b39476,
		"2-pod/BGP/ECMP/2":     0xe3f8affd4b23c30d,
		"2-pod/BGP/ECMP/BFD/1": 0x71f103563de574c3,
		"2-pod/BGP/ECMP/BFD/2": 0x78b861a6d4291f2b,
		"4-pod/MR-MTP/1":       0x3791ecada0cd49c0,
		"4-pod/MR-MTP/2":       0x89086984b8686bf4,
		"4-pod/BGP/ECMP/1":     0xada7960251188657,
		"4-pod/BGP/ECMP/2":     0x17397df32311ec30,
		"4-pod/BGP/ECMP/BFD/1": 0x2c8cab621066c6c2,
		"4-pod/BGP/ECMP/BFD/2": 0xa71b339a84282ddf,
	}
	crash := chaos.Fault{Kind: chaos.Down, Nodes: []string{"S-1-1"}}
	for _, spec := range []topology.Spec{topology.TwoPodSpec(), topology.FourPodSpec()} {
		for _, proto := range []Protocol{ProtoMRMTP, ProtoBGP, ProtoBGPBFD} {
			for _, seed := range []int64{1, 2} {
				name := fmt.Sprintf("%d-pod/%v/%d", spec.Pods, proto, seed)
				h := fnv.New64a()
				journal := func(label string, result any, log *metrics.Log) {
					fmt.Fprintf(h, "%s %+v\n", label, result)
					if log != nil {
						fmt.Fprint(h, metrics.Render(log.Events))
					}
				}
				// One pooled trial: every run below forks the memo's fabrics
				// of one seed and hands its fork back.
				_, err := runTrials(DefaultOptions(spec, proto, seed), 1, func(o Options) (struct{}, error) {
					measure := func(label string, inject func(*Fabric) (time.Duration, error)) error {
						fab, err := atInjection(o, phaseLeadIn)
						if err != nil {
							return err
						}
						a, err := measureFailure(fab, inject)
						if err == nil {
							journal(label, a, fab.Log)
							done(fab)
						}
						return err
					}
					for _, tc := range topology.AllFailureCases() {
						if err := measure(tc.String(), func(f *Fabric) (time.Duration, error) { return f.Fail(tc) }); err != nil {
							return struct{}{}, err
						}
						r, err := RunLoss(o, tc, false)
						if err != nil {
							return struct{}{}, err
						}
						journal("loss "+tc.String(), r, nil)
					}
					if err := measure("crash", func(f *Fabric) (time.Duration, error) { return f.Inject(crash) }); err != nil {
						return struct{}{}, err
					}
					for _, shape := range []struct {
						flaps    int
						down, up time.Duration
					}{{5, 500 * time.Millisecond, 4 * time.Second}, {8, 150 * time.Millisecond, 120 * time.Millisecond}} {
						fab, err := atInjection(o, noLeadIn)
						if err != nil {
							return struct{}{}, err
						}
						r, err := measureFlap(fab, shape.flaps, shape.down, shape.up)
						if err != nil {
							return struct{}{}, err
						}
						journal(fmt.Sprintf("flap %+v", shape), r, fab.Log)
						done(fab)
					}
					return struct{}{}, nil
				})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got := h.Sum64(); got != want[name] {
					t.Errorf("%s: fault paths moved: hash %#x, pinned %#x", name, got, want[name])
				}
			}
		}
	}
}
