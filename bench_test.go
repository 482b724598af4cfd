// Package repro's root benchmark suite regenerates every figure and listing
// of the paper's evaluation (§VII). Each benchmark runs the corresponding
// experiment end-to-end in the simulator and reports the paper's metric via
// b.ReportMetric, so `go test -bench . -benchmem` prints the whole
// evaluation:
//
//	Fig. 4  BenchmarkFig4Convergence      -> ms_convergence
//	Fig. 5  BenchmarkFig5BlastRadius      -> routers_updated
//	Fig. 6  BenchmarkFig6ControlOverhead  -> bytes_control
//	Fig. 7  BenchmarkFig7PacketLossNear   -> packets_lost
//	Fig. 8  BenchmarkFig8PacketLossFar    -> packets_lost
//	Fig. 9  BenchmarkFig9KeepAliveBGPBFD  -> bytes_per_s and B/frame
//	Fig. 10 BenchmarkFig10KeepAliveMRMTP  -> bytes_per_s and B/frame
//	L. 1-2  BenchmarkListingConfigBurden  -> bytes_config
//	L. 3/5  BenchmarkListingTableSizes    -> table_entries
//
// The Ablation* benchmarks (hello interval, BFD multiplier, BGP timers,
// MRAI, Slow-to-Accept) cover the design choices called out in DESIGN.md
// §6, and the Scale*/Extended* benchmarks cover the paper's §IX future
// work (PoD scaling, a four-tier fabric, whole-router crashes).
package repro

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/capture"
	"repro/internal/harness"
	"repro/internal/topology"
)

var benchProtocols = []harness.Protocol{harness.ProtoMRMTP, harness.ProtoBGP, harness.ProtoBGPBFD}

func benchSpecs() []topology.Spec {
	return []topology.Spec{topology.TwoPodSpec(), topology.FourPodSpec()}
}

// forEachCell runs one sub-benchmark per (topology, protocol, failure case)
// cell of the paper's figure grids.
func forEachCell(b *testing.B, fn func(b *testing.B, spec topology.Spec, proto harness.Protocol, tc topology.FailureCase)) {
	for _, spec := range benchSpecs() {
		for _, proto := range benchProtocols {
			for _, tc := range topology.AllFailureCases() {
				name := fmt.Sprintf("%dpod/%s/%s", spec.Pods, proto, tc)
				spec, proto, tc := spec, proto, tc
				b.Run(name, func(b *testing.B) { fn(b, spec, proto, tc) })
			}
		}
	}
}

func runFailureCell(b *testing.B, spec topology.Spec, proto harness.Protocol, tc topology.FailureCase) harness.FailureSummary {
	b.Helper()
	s, err := harness.RunFailureTrials(harness.DefaultOptions(spec, proto, 1), tc, b.N)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func BenchmarkFig4Convergence(b *testing.B) {
	forEachCell(b, func(b *testing.B, spec topology.Spec, proto harness.Protocol, tc topology.FailureCase) {
		s := runFailureCell(b, spec, proto, tc)
		b.ReportMetric(float64(s.Convergence)/float64(time.Millisecond), "ms_convergence")
	})
}

func BenchmarkFig5BlastRadius(b *testing.B) {
	forEachCell(b, func(b *testing.B, spec topology.Spec, proto harness.Protocol, tc topology.FailureCase) {
		s := runFailureCell(b, spec, proto, tc)
		b.ReportMetric(s.BlastRadius, "routers_updated")
	})
}

func BenchmarkFig6ControlOverhead(b *testing.B) {
	forEachCell(b, func(b *testing.B, spec topology.Spec, proto harness.Protocol, tc topology.FailureCase) {
		s := runFailureCell(b, spec, proto, tc)
		b.ReportMetric(s.ControlBytes, "bytes_control")
	})
}

func benchLoss(b *testing.B, reverse bool) {
	forEachCell(b, func(b *testing.B, spec topology.Spec, proto harness.Protocol, tc topology.FailureCase) {
		avg, err := harness.RunLossTrials(harness.DefaultOptions(spec, proto, 1), tc, reverse, b.N)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(avg, "packets_lost")
	})
}

func BenchmarkFig7PacketLossNear(b *testing.B) { benchLoss(b, false) }

func BenchmarkFig8PacketLossFar(b *testing.B) { benchLoss(b, true) }

func benchKeepAlive(b *testing.B, proto harness.Protocol, classes []capture.Class) {
	window := 10 * time.Second
	var bytesTotal, frameCount float64
	for i := 0; i < b.N; i++ {
		r, err := harness.RunKeepAlive(harness.DefaultOptions(topology.TwoPodSpec(), proto, int64(i+1)), window)
		if err != nil {
			b.Fatal(err)
		}
		for _, cl := range classes {
			bytesTotal += float64(r.Summary[cl].Bytes)
			frameCount += float64(r.Summary[cl].Count)
		}
	}
	b.ReportMetric(bytesTotal/float64(b.N)/window.Seconds(), "bytes_per_s")
	if frameCount > 0 {
		b.ReportMetric(bytesTotal/frameCount, "B/frame")
	}
}

func BenchmarkFig9KeepAliveBGPBFD(b *testing.B) {
	b.Run("bfd", func(b *testing.B) {
		benchKeepAlive(b, harness.ProtoBGPBFD, []capture.Class{capture.ClassBFD})
	})
	b.Run("bgp-keepalive", func(b *testing.B) {
		benchKeepAlive(b, harness.ProtoBGPBFD, []capture.Class{capture.ClassBGPKeepalive})
	})
	b.Run("tcp-ack", func(b *testing.B) {
		benchKeepAlive(b, harness.ProtoBGPBFD, []capture.Class{capture.ClassTCPAck})
	})
}

func BenchmarkFig10KeepAliveMRMTP(b *testing.B) {
	b.Run("hello", func(b *testing.B) {
		benchKeepAlive(b, harness.ProtoMRMTP, []capture.Class{capture.ClassMTPHello})
	})
}

func BenchmarkListingConfigBurden(b *testing.B) {
	for _, spec := range benchSpecs() {
		b.Run(fmt.Sprintf("%dpod", spec.Pods), func(b *testing.B) {
			var bgpBytes, mtpBytes float64
			for i := 0; i < b.N; i++ {
				topo, err := topology.Build(spec)
				if err != nil {
					b.Fatal(err)
				}
				cs, err := topo.MeasureConfigs(true)
				if err != nil {
					b.Fatal(err)
				}
				bgpBytes = float64(cs.BGPBytes)
				mtpBytes = float64(cs.MRMTPBytes)
			}
			b.ReportMetric(bgpBytes, "bytes_bgp_config")
			b.ReportMetric(mtpBytes, "bytes_mrmtp_config")
		})
	}
}

func BenchmarkListingTableSizes(b *testing.B) {
	for _, proto := range []harness.Protocol{harness.ProtoMRMTP, harness.ProtoBGP} {
		b.Run(proto.String(), func(b *testing.B) {
			var spine, top float64
			for i := 0; i < b.N; i++ {
				f, err := harness.Build(harness.DefaultOptions(topology.FourPodSpec(), proto, 1))
				if err != nil {
					b.Fatal(err)
				}
				if err := f.WarmUp(harness.WarmupTime); err != nil {
					b.Fatal(err)
				}
				if proto == harness.ProtoMRMTP {
					spine = float64(f.Routers["S-1-1"].TableSize())
					top = float64(f.Routers["T-1"].TableSize())
				} else {
					spine = float64(f.Stacks["S-1-1"].FIB.Len())
					top = float64(f.Stacks["T-1"].FIB.Len())
				}
			}
			b.ReportMetric(spine, "spine_table_entries")
			b.ReportMetric(top, "top_table_entries")
		})
	}
}

// --- ablations (DESIGN.md §6) ----------------------------------------------

// runAblationCell runs one ablation configuration through the parallel
// trial runner and reports mean TC1 convergence.
func runAblationCell(b *testing.B, opts harness.Options) {
	b.Helper()
	s, err := harness.RunFailureTrials(opts, topology.TC1, b.N)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(s.Convergence)/float64(time.Millisecond), "ms_convergence")
}

// BenchmarkAblationHelloInterval sweeps MR-MTP's hello timer: faster hellos
// buy faster TC1 convergence at the cost of keep-alive traffic.
func BenchmarkAblationHelloInterval(b *testing.B) {
	for _, hello := range []time.Duration{25 * time.Millisecond, 50 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond} {
		b.Run(hello.String(), func(b *testing.B) {
			opts := harness.DefaultOptions(topology.TwoPodSpec(), harness.ProtoMRMTP, 1)
			opts.MTPHello = hello
			opts.MTPDead = 2 * hello
			runAblationCell(b, opts)
		})
	}
}

// BenchmarkAblationBFDMultiplier sweeps the BFD detect multiplier, trading
// false-positive robustness against detection latency (paper §VI.F).
func BenchmarkAblationBFDMultiplier(b *testing.B) {
	for _, mult := range []int{2, 3, 5} {
		b.Run(fmt.Sprintf("mult%d", mult), func(b *testing.B) {
			opts := harness.DefaultOptions(topology.TwoPodSpec(), harness.ProtoBGPBFD, 1)
			opts.BFD.DetectMult = mult
			runAblationCell(b, opts)
		})
	}
}

// BenchmarkAblationBGPTimers contrasts the paper's tuned `timers bgp 1 3`
// against FRR's untuned default (keepalive 60 s, hold 180 s — scaled to
// 3/9 here to keep runtime sane while preserving the 3x ratio).
func BenchmarkAblationBGPTimers(b *testing.B) {
	for _, timers := range []struct {
		name      string
		keepalive time.Duration
		hold      time.Duration
	}{
		{"paper-1s-3s", time.Second, 3 * time.Second},
		{"untuned-3s-9s", 3 * time.Second, 9 * time.Second},
	} {
		b.Run(timers.name, func(b *testing.B) {
			opts := harness.DefaultOptions(topology.TwoPodSpec(), harness.ProtoBGP, 1)
			opts.BGPTimers.Keepalive = timers.keepalive
			opts.BGPTimers.Hold = timers.hold
			runAblationCell(b, opts)
		})
	}
}

// BenchmarkAblationMRAI shows why RFC 7938 fabrics run MRAI=0: pacing
// update bursts delays reconvergence after the hold timer already fired.
func BenchmarkAblationMRAI(b *testing.B) {
	for _, mrai := range []time.Duration{0, 500 * time.Millisecond, 2 * time.Second} {
		b.Run(fmt.Sprintf("mrai-%v", mrai), func(b *testing.B) {
			opts := harness.DefaultOptions(topology.TwoPodSpec(), harness.ProtoBGP, 1)
			opts.BGPTimers.MRAI = mrai
			runAblationCell(b, opts)
		})
	}
}

// BenchmarkScalePods extends the evaluation along the paper's §IX axis:
// fabric size versus convergence and control overhead under MR-MTP.
func BenchmarkScalePods(b *testing.B) {
	for _, pods := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("%dpod", pods), func(b *testing.B) {
			spec := topology.Spec{Pods: pods, LeavesPerPod: 2, SpinesPerPod: 2, UplinksPerSpine: 2, ServersPerLeaf: 1}
			var conv, ctl float64
			for i := 0; i < b.N; i++ {
				r, err := harness.RunFailure(harness.DefaultOptions(spec, harness.ProtoMRMTP, int64(i+1)), topology.TC1)
				if err != nil {
					b.Fatal(err)
				}
				conv += float64(r.Convergence) / float64(time.Millisecond)
				ctl += float64(r.ControlBytes)
			}
			b.ReportMetric(conv/float64(b.N), "ms_convergence")
			b.ReportMetric(ctl/float64(b.N), "bytes_control")
		})
	}
}

// BenchmarkFabricBringUp measures simulator cost, not protocol behaviour:
// how long a full warm-up takes per configuration (useful when sizing
// larger sweeps).
func BenchmarkFabricBringUp(b *testing.B) {
	for _, proto := range benchProtocols {
		b.Run(proto.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f, err := harness.Build(harness.DefaultOptions(topology.FourPodSpec(), proto, int64(i+1)))
				if err != nil {
					b.Fatal(err)
				}
				if err := f.WarmUp(harness.WarmupTime); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScaleTiers extends along the paper's other §IX axis: a four-tier
// fabric (zones of pods under super spines). Convergence stays dead-timer
// bound even with an extra tier of meshed trees.
func BenchmarkScaleTiers(b *testing.B) {
	mt := topology.MultiTierSpec{
		Zones: 2, PodsPerZone: 2, LeavesPerPod: 2,
		SpinesPerPod: 2, UplinksPerSpine: 2, UplinksPerZone: 2,
		ServersPerLeaf: 1,
	}
	b.Run("4tier/MR-MTP", func(b *testing.B) {
		var conv float64
		for i := 0; i < b.N; i++ {
			opts := harness.DefaultOptions(topology.Spec{}, harness.ProtoMRMTP, int64(i+1))
			opts.MultiTier = &mt
			f, err := harness.Build(opts)
			if err != nil {
				b.Fatal(err)
			}
			if err := f.WarmUp(harness.WarmupTime); err != nil {
				b.Fatal(err)
			}
			f.Log.Reset()
			failAt := f.Sim.Now()
			f.Sim.Node("A-1-1").Port(1).Fail()
			f.Sim.RunFor(5 * time.Second)
			conv += float64(f.Log.Analyze(failAt).Convergence) / float64(time.Millisecond)
		}
		b.ReportMetric(conv/float64(b.N), "ms_convergence")
	})
}

// BenchmarkExtendedNodeFailure measures the whole-router-crash case
// (paper §IX "extended failure test cases").
func BenchmarkExtendedNodeFailure(b *testing.B) {
	for _, proto := range benchProtocols {
		b.Run(proto.String(), func(b *testing.B) {
			var conv, blast float64
			for i := 0; i < b.N; i++ {
				r, err := harness.RunNodeFailure(harness.DefaultOptions(topology.TwoPodSpec(), proto, int64(i+1)), "S-1-1")
				if err != nil {
					b.Fatal(err)
				}
				conv += float64(r.Convergence) / float64(time.Millisecond)
				blast += float64(r.BlastRadius)
			}
			b.ReportMetric(conv/float64(b.N), "ms_convergence")
			b.ReportMetric(blast/float64(b.N), "routers_updated")
		})
	}
}

// BenchmarkAblationSlowToAccept quantifies the dampening design choice:
// control churn under a flapping interface with and without the
// three-consecutive-hellos rule.
func BenchmarkAblationSlowToAccept(b *testing.B) {
	for _, accept := range []int{1, 3} {
		b.Run(fmt.Sprintf("acceptAfter%d", accept), func(b *testing.B) {
			opts := harness.DefaultOptions(topology.TwoPodSpec(), harness.ProtoMRMTP, 1)
			opts.MTPAccept = accept
			c, err := harness.RunCell(opts, b.N, func(o harness.Options) (harness.FlapResult, error) {
				return harness.RunFlap(o, 8, 150*time.Millisecond, 120*time.Millisecond)
			}, harness.SummarizeFlaps)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(c.Summary.ControlBytes, "bytes_churn")
		})
	}
}

// BenchmarkCongestionGoodput oversubscribes rate-limited fabric links
// (8 Mb/s each, 32 flows ≈ 21 Mb/s offered from one rack) and reports the
// delivered fraction — how well each protocol's flow hashing exploits the
// fabric's parallel planes.
func BenchmarkCongestionGoodput(b *testing.B) {
	for _, proto := range []harness.Protocol{harness.ProtoMRMTP, harness.ProtoBGP} {
		b.Run(proto.String(), func(b *testing.B) {
			var delivered, offered float64
			for i := 0; i < b.N; i++ {
				r, err := harness.RunCongestion(
					harness.DefaultOptions(topology.TwoPodSpec(), proto, int64(i+1)),
					32, 8_000_000, 3*time.Second)
				if err != nil {
					b.Fatal(err)
				}
				delivered += float64(r.Delivered)
				offered += float64(r.Offered)
			}
			b.ReportMetric(delivered/float64(b.N), "packets_delivered")
			b.ReportMetric(delivered/offered*100, "pct_goodput")
		})
	}
}
