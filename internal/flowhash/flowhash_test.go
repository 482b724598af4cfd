package flowhash

import (
	"testing"
	"testing/quick"

	"repro/internal/ipv4"
	"repro/internal/netaddr"
	"repro/internal/udp"
)

func TestHashDeterministic(t *testing.T) {
	f := func(k Key) bool { return k.Hash() == k.Hash() }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHashSpreads(t *testing.T) {
	// Varying only the source port must produce a roughly even split
	// modulo 2 (two uplinks) — this is what both ECMP and MR-MTP rely on.
	counts := [2]int{}
	k := Key{
		Src:   netaddr.MakeIPv4(192, 168, 11, 1),
		Dst:   netaddr.MakeIPv4(192, 168, 14, 1),
		Proto: 17, DstPort: 47000,
	}
	for p := 0; p < 2000; p++ {
		k.SrcPort = uint16(p)
		counts[k.Hash()%2]++
	}
	if counts[0] < 700 || counts[1] < 700 {
		t.Errorf("hash imbalanced across uplinks: %v", counts)
	}
}

func TestHashUniformAcrossUplinks(t *testing.T) {
	// Guard on the avalanche finalizer: hash a realistic population of
	// 5-tuples (many servers, many ephemeral ports) across every uplink
	// fan-out the fabrics use and require the fullest bucket to stay
	// within a few percent of the mean. Raw FNV-1a without the fmix32
	// finisher fails this for k=2 (its low bit is the input parity).
	for _, k := range []int{2, 3, 4, 8} {
		buckets := make([]int, k)
		n := 0
		for srcHost := byte(11); srcHost < 19; srcHost++ {
			for dstHost := byte(11); dstHost < 19; dstHost++ {
				if srcHost == dstHost {
					continue
				}
				for port := 0; port < 500; port++ {
					key := Key{
						Src:     netaddr.MakeIPv4(192, 168, srcHost, 1),
						Dst:     netaddr.MakeIPv4(192, 168, dstHost, 1),
						Proto:   ipv4.ProtoUDP,
						SrcPort: uint16(20000 + port),
						DstPort: 49000,
					}
					buckets[int(key.Hash())%k]++
					n++
				}
			}
		}
		mean := float64(n) / float64(k)
		for b, c := range buckets {
			if ratio := float64(c) / mean; ratio > 1.05 {
				t.Errorf("k=%d: bucket %d holds %d of %d flows (max/mean %.3f > 1.05)", k, b, c, n, ratio)
			}
		}
	}
}

func TestFromIPPacketUDP(t *testing.T) {
	src := netaddr.MakeIPv4(192, 168, 11, 1)
	dst := netaddr.MakeIPv4(192, 168, 14, 1)
	dg := udp.Datagram{SrcPort: 40001, DstPort: 47000, Payload: []byte("x")}
	pkt := ipv4.Packet{
		Header:  ipv4.Header{Protocol: ipv4.ProtoUDP, Src: src, Dst: dst, TTL: 64},
		Payload: dg.Marshal(src, dst),
	}
	k := FromIPPacket(pkt.Marshal())
	want := Key{Src: src, Dst: dst, Proto: ipv4.ProtoUDP, SrcPort: 40001, DstPort: 47000}
	if k != want {
		t.Errorf("FromIPPacket = %+v, want %+v", k, want)
	}
}

func TestFromIPPacketNonTransport(t *testing.T) {
	src := netaddr.MakeIPv4(10, 0, 0, 1)
	dst := netaddr.MakeIPv4(10, 0, 0, 2)
	pkt := ipv4.Packet{Header: ipv4.Header{Protocol: ipv4.ProtoICMP, Src: src, Dst: dst, TTL: 64}}
	k := FromIPPacket(pkt.Marshal())
	if k.SrcPort != 0 || k.DstPort != 0 || k.Src != src {
		t.Errorf("ICMP key = %+v", k)
	}
}

func TestFromIPPacketShort(t *testing.T) {
	if k := FromIPPacket([]byte{1, 2, 3}); k != (Key{}) {
		t.Errorf("short packet key = %+v, want zero", k)
	}
}

func TestSameFlowSameHashAcrossEncap(t *testing.T) {
	// A packet hashed at the leaf and re-hashed at the spine (after
	// MR-MTP encapsulation is stripped to the inner IP packet) must pick
	// the same plane. This is the invariant the harness uses to steer
	// probes across the monitored column.
	src := netaddr.MakeIPv4(192, 168, 11, 1)
	dst := netaddr.MakeIPv4(192, 168, 14, 1)
	dg := udp.Datagram{SrcPort: 40007, DstPort: 47000}
	pkt := ipv4.Packet{
		Header:  ipv4.Header{Protocol: ipv4.ProtoUDP, Src: src, Dst: dst, TTL: 64},
		Payload: dg.Marshal(src, dst),
	}
	wire := pkt.Marshal()
	h1 := FromIPPacket(wire).Hash()
	forwarded := append([]byte(nil), wire...)
	if err := ipv4.Forward(forwarded); err != nil {
		t.Fatal(err)
	}
	h2 := FromIPPacket(forwarded).Hash()
	if h1 != h2 {
		t.Error("flow hash changed after TTL decrement; ECMP would re-path mid-flight")
	}
}

// referenceHash is the hash as first written: FNV-1a fed one byte at a time
// over the whole 5-tuple, then fmix32.
func referenceHash(k Key) uint32 {
	h := uint32(2166136261)
	feed := func(b byte) { h = (h ^ uint32(b)) * 16777619 }
	for _, b := range k.Src {
		feed(b)
	}
	for _, b := range k.Dst {
		feed(b)
	}
	feed(k.Proto)
	feed(byte(k.SrcPort >> 8))
	feed(byte(k.SrcPort))
	feed(byte(k.DstPort >> 8))
	feed(byte(k.DstPort))
	h ^= h >> 16
	h *= 0x85ebca6b
	h ^= h >> 13
	h *= 0xc2b2ae35
	h ^= h >> 16
	return h
}

// FuzzHashSplit holds the split hash — a pair's Prefix, finished with a
// flow's ports — and Hash, which is defined by it, to the byte-at-a-time
// reference on any key.
func FuzzHashSplit(f *testing.F) {
	f.Add(uint32(0xc0a80b01), uint32(0xc0a80e01), byte(17), uint16(40001), uint16(47000))
	f.Add(uint32(0), uint32(0), byte(0), uint16(0), uint16(0))
	f.Add(^uint32(0), ^uint32(0), byte(255), ^uint16(0), ^uint16(0))
	f.Fuzz(func(t *testing.T, src, dst uint32, proto byte, srcPort, dstPort uint16) {
		k := Key{Src: netaddr.IPv4FromUint32(src), Dst: netaddr.IPv4FromUint32(dst), Proto: proto, SrcPort: srcPort, DstPort: dstPort}
		want := referenceHash(k)
		if got := k.Prefix().Finish(srcPort, dstPort); got != want {
			t.Fatalf("%+v: Prefix().Finish() = %#x, reference %#x", k, got, want)
		}
		if got := k.Hash(); got != want {
			t.Fatalf("%+v: Hash() = %#x, reference %#x", k, got, want)
		}
	})
}
