package bgp

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"repro/internal/ethernet"
	"repro/internal/ipv4"
	"repro/internal/netaddr"
	"repro/internal/simnet"
	"repro/internal/tcp"
)

// TestDecideOrderPinned pins the order in which the decision process emits
// UPDATEs. A three-tier fabric (2 tops, 3 PoDs x 2 spines x 2 leaves) is
// brought up, loses and regains a leaf uplink (fast failover), loses a whole
// rack to remote-side failures (hold timer, then fabric-wide withdrawal and
// FIB removal), and loses a spine-top link; every
// TCP segment whose payload starts with a BGP UPDATE is hashed at transmit
// time with its instant, its sending port and its stream bytes. The sequence
// is a function of best-path selection, the peer fan-out order, the dirty-
// prefix order and MRAI batching, none of which a change of cost may move:
// the hashes below were recorded on b663e43, before the FIB index and the
// UPDATE-path scratch of ISSUE 19, and both must leave them as they are.
func TestDecideOrderPinned(t *testing.T) {
	for _, tc := range []struct {
		mrai    time.Duration
		updates int
		hash    string
	}{
		{0, 218, "4b27d933b925458c5827008c64d9dd2b59442c721bedeb2156809a5ece5948e8"},
		{300 * time.Millisecond, 218, "576417a4e1e87a88f87e0d346fdf4f1b3050f5e78dbb3c0d945848e0e7f27252"},
	} {
		t.Run(fmt.Sprintf("mrai=%v", tc.mrai), func(t *testing.T) {
			updates, hash := runDecideOrder(tc.mrai)
			if updates != tc.updates || hash != tc.hash {
				t.Errorf("UPDATE emission moved: %d updates, hash %s; pinned %d, %s",
					updates, hash, tc.updates, tc.hash)
			}
		})
	}
}

func runDecideOrder(mrai time.Duration) (updates int, digest string) {
	tn := newTestNet()
	tn.sim = simnet.New(19)
	rack := func(n byte) netaddr.Prefix { return netaddr.MakePrefix(netaddr.MakeIPv4(192, 168, n, 0), 24) }
	tops := []*rtr{tn.router("T-1", 64512), tn.router("T-2", 64512)}
	var leaves, spines []*rtr
	for pod := byte(1); pod <= 3; pod++ {
		podSpines := []*rtr{
			tn.router(fmt.Sprintf("S-%d-1", pod), 64512+uint16(pod)),
			tn.router(fmt.Sprintf("S-%d-2", pod), 64512+uint16(pod)),
		}
		for i := byte(1); i <= 2; i++ {
			leaf := tn.router(fmt.Sprintf("L-%d-%d", pod, i), 64600+uint16(pod)*10+uint16(i), rack(pod*10+i))
			for _, s := range podSpines {
				tn.link(leaf, s)
			}
			leaves = append(leaves, leaf)
		}
		for _, s := range podSpines {
			for _, top := range tops {
				tn.link(s, top)
			}
		}
		spines = append(spines, podSpines...)
	}
	for _, r := range tn.routers {
		r.sp.Cfg.Timers.MRAI = mrai
	}

	h := sha256.New()
	for _, l := range tn.sim.Links() {
		l.Tap(func(at time.Duration, from *simnet.Port, frame []byte) {
			eth, err := ethernet.Unmarshal(frame)
			if err != nil || eth.EtherType != ethernet.TypeIPv4 {
				return
			}
			pkt, err := ipv4.Unmarshal(eth.Payload)
			if err != nil || pkt.Header.Protocol != ipv4.ProtoTCP {
				return
			}
			seg, err := tcp.Unmarshal(pkt.Header.Src, pkt.Header.Dst, pkt.Payload)
			if err != nil || len(seg.Payload) < HeaderLen || seg.Payload[HeaderLen-1] != TypeUpdate {
				return
			}
			updates++
			var stamp [8]byte
			binary.BigEndian.PutUint64(stamp[:], uint64(at))
			h.Write(stamp[:])
			h.Write([]byte(from.Name()))
			h.Write(seg.Payload)
		})
	}

	tn.sim.Start()
	tn.sim.RunFor(6 * time.Second)

	// Fast failover at the leaf and its recovery.
	l11 := leaves[0].stack.Node
	l11.Port(1).Fail()
	tn.sim.RunFor(2 * time.Second)
	l11.Port(1).Restore()
	tn.sim.RunFor(5 * time.Second)

	// L-2-2 loses both uplinks at the spine side: the spines see carrier
	// loss, the leaf's hold timers run out, and rack 22 is withdrawn from
	// every FIB in the fabric (FIB.Remove), then relearned.
	s21, s22 := spines[2].stack.Node, spines[3].stack.Node
	s21.Port(2).Fail()
	s22.Port(2).Fail()
	tn.sim.RunFor(5 * time.Second)
	s21.Port(2).Restore()
	s22.Port(2).Restore()
	tn.sim.RunFor(6 * time.Second)

	// A spine-top link, seen from the top.
	t1 := tops[0].stack.Node
	t1.Port(1).Fail()
	tn.sim.RunFor(4 * time.Second)
	t1.Port(1).Restore()
	tn.sim.RunFor(5 * time.Second)

	return updates, hex.EncodeToString(h.Sum(nil))
}
