package harness

import (
	"time"

	"repro/internal/trafficgen"
)

// CongestionResult summarizes an oversubscription run: many flows from one
// rack offered into rate-limited fabric links.
type CongestionResult struct {
	Protocol  Protocol
	Flows     int
	Offered   uint64 // packets sent
	Delivered uint64 // packets received
	Overflow  uint64 // frames tail-dropped at fabric queues
}

// RunCongestion drives `flows` parallel flows from the rack at VID 11 to
// the rack at VID 14 for the duration, with every fabric link limited to
// linkBps (64-frame queues). Each flow offers one 1000-byte packet per
// 1.2 ms (≈ 6.7 Mb/s; 32 flows ≈ 213 Mb/s). Once the offer exceeds the
// uplinks' rate, Delivered is the capacity of the uplinks the hash uses:
// more than one link's worth shows the load balancing spreading flows — the
// purpose the paper assigns to MR-MTP's hash (§III.C) and to ECMP — while
// Delivered/Offered is only capacity over offer, the same for any protocol.
func RunCongestion(opts Options, flows int, linkBps int64, duration time.Duration) (CongestionResult, error) {
	f, err := warm(opts)
	if err != nil {
		return CongestionResult{}, err
	}
	for _, link := range f.Sim.Links() {
		if link.A.Node.Meta["tier"] == "server" || link.B.Node.Meta["tier"] == "server" {
			continue
		}
		link.SetBandwidth(linkBps, 64)
	}
	src, srcDev, err := f.ServerStack(11, 1)
	if err != nil {
		return CongestionResult{}, err
	}
	dst, dstDev, err := f.ServerStack(14, 1)
	if err != nil {
		return CongestionResult{}, err
	}
	var senders []*trafficgen.Sender
	var receivers []*trafficgen.Receiver
	for i := 0; i < flows; i++ {
		cfg := trafficgen.DefaultConfig(srcDev.IP, dstDev.IP)
		cfg.SrcPort = 42000 + uint16(i)
		cfg.DstPort = 47000 + uint16(i)
		cfg.Interval = 1200 * time.Microsecond
		cfg.Size = 1000
		receivers = append(receivers, trafficgen.NewReceiver(dst, cfg.DstPort))
		s := trafficgen.NewSender(src, cfg)
		senders = append(senders, s)
		s.Start()
	}
	f.Sim.RunFor(duration)
	res := CongestionResult{Protocol: opts.Protocol, Flows: flows}
	for i, s := range senders {
		s.Stop()
		rep := receivers[i].Report(s)
		res.Offered += rep.Sent
		res.Delivered += rep.Received
	}
	for _, link := range f.Sim.Links() {
		res.Overflow += link.Overflowed()
	}
	return res, nil
}
