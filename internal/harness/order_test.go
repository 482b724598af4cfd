package harness

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
	"time"

	"repro/internal/ethernet"
	"repro/internal/mrmtp"
	"repro/internal/simnet"
	"repro/internal/topology"
)

// TestControlOrderPinned pins the order in which MR-MTP routers emit control
// frames. A fabric is tapped on every link before bring-up, warmed up, and
// then loses and regains each failure point in turn; every MR-MTP frame that
// is not encapsulated data is hashed at transmit time with its instant, its
// sending port and its bytes. The sequence is a function of three orders the
// VID table must keep whatever it is stored in — per-root acquisition order
// (the downward choice takes the first live entry), lexicographic-by-bytes
// VID order in ADVERTISE, and ascending-root / ascending-port order of UPDATE
// emission — so a change of representation may not move the hashes below.
// They were recorded on b1829f9, before the one-table refactor of ISSUE 21.
func TestControlOrderPinned(t *testing.T) {
	for _, tc := range []struct {
		name   string
		opts   Options
		points []topology.FailurePoint // nil = TC1-TC4
		frames int
		hash   uint64
	}{
		{"two-pod", DefaultOptions(topology.TwoPodSpec(), ProtoMRMTP, 42), nil, 22448, 0x101e04defd877089},
		// The four-tier analogues of TC1-TC4, one tier further up: both ends
		// of L-1-1-1 / S-1-1-1, then the pod spine's and the zone spine's
		// uplinks, then the far end of the latter.
		{"four-tier", fourTierOptions(ProtoMRMTP), []topology.FailurePoint{
			{Device: "L-1-1-1", Port: 1},
			{Device: "S-1-1-1", Port: 3},
			{Device: "S-1-1-1", Port: 1},
			zoneSpineUplink,
			{Device: "T-1", Port: 1},
		}, 77447, 0xaef3552937188444},
	} {
		t.Run(tc.name, func(t *testing.T) {
			frames, hash := runControlOrder(t, tc.opts, tc.points)
			if frames != tc.frames || hash != tc.hash {
				t.Errorf("control-frame emission moved: %d frames, hash %#x; pinned %d, %#x",
					frames, hash, tc.frames, tc.hash)
			}
		})
	}
}

func runControlOrder(t *testing.T, opts Options, points []topology.FailurePoint) (frames int, digest uint64) {
	t.Helper()
	f, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for _, l := range f.Sim.Links() {
		l.Tap(func(at time.Duration, from *simnet.Port, frame []byte) {
			eth, err := ethernet.Unmarshal(frame)
			if err != nil || eth.EtherType != ethernet.TypeMRMTP ||
				len(eth.Payload) == 0 || eth.Payload[0] == mrmtp.TypeData {
				return
			}
			frames++
			var stamp [8]byte
			binary.BigEndian.PutUint64(stamp[:], uint64(at))
			h.Write(stamp[:])
			h.Write([]byte(from.Name()))
			h.Write(frame)
		})
	}
	if err := f.WarmUp(WarmupTime); err != nil {
		t.Fatal(err)
	}
	if points == nil {
		for _, tc := range topology.AllFailureCases() {
			fp, err := f.Topo.FailurePoint(tc)
			if err != nil {
				t.Fatal(err)
			}
			points = append(points, fp)
		}
	}
	for _, fp := range points {
		if _, err := f.FailPoint(fp); err != nil {
			t.Fatal(err)
		}
		f.Sim.RunFor(2 * time.Second)
		f.Sim.Node(fp.Device).Port(fp.Port).Restore()
		f.Sim.RunFor(3 * time.Second)
		if err := f.CheckConverged(); err != nil {
			t.Fatalf("after restoring %s eth%d: %v", fp.Device, fp.Port, err)
		}
	}
	return frames, h.Sum64()
}
