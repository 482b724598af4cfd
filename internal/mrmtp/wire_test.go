package mrmtp

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/budget"
	"repro/internal/ethernet"
	"repro/internal/netaddr"
)

// mustWire marshals a message the test knows is well-formed.
func mustWire(tb testing.TB, m Message) []byte {
	tb.Helper()
	b, err := m.Marshal()
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

func TestHelloIsOneByte(t *testing.T) {
	m := Message{Type: TypeHello}
	b := mustWire(t, m)
	if len(b) != 1 || b[0] != 0x06 {
		t.Fatalf("hello = % x, want the single byte 06 of Fig. 10", b)
	}
	// Full frame: 15 bytes at layer 2 with broadcast addressing (§VII.F:
	// a broadcast destination avoids ARP on the point-to-point links).
	f := ethernet.Frame{Dst: netaddr.Broadcast, Src: netaddr.MAC{0x6a},
		EtherType: ethernet.TypeMRMTP, Payload: b}
	fr := f.Marshal()
	if len(fr) != 15 {
		t.Errorf("hello frame = %d bytes, want 15", len(fr))
	}
	if fr[12] != 0x88 || fr[13] != 0x50 {
		t.Errorf("ethertype = %02x%02x, want 8850 (paper §VII.F)", fr[12], fr[13])
	}
	if !bytes.Equal(fr[0:6], netaddr.Broadcast[:]) {
		t.Error("hello frame not broadcast-addressed")
	}
}

func TestControlRoundTrips(t *testing.T) {
	vids := []VID{{11}, {11, 1}, {12, 2, 1}}
	msgs := []Message{
		{Type: TypeAdvertise, Tier: 2, VIDs: vids},
		{Type: TypeJoin, VIDs: vids[:1]},
		{Type: TypeOffer, VIDs: vids[1:]},
		{Type: TypeAccept, VIDs: vids},
		{Type: TypeAck, VIDs: vids},
		{Type: TypeUpdate, Sub: UpdateLost, Roots: []byte{11, 12}},
		{Type: TypeUpdate, Sub: UpdateFound, Roots: []byte{11}},
		{Type: TypeHello},
	}
	for _, in := range msgs {
		out, err := ParseMessage(mustWire(t, in))
		if err != nil {
			t.Fatalf("%#02x: %v", in.Type, err)
		}
		if out.Type != in.Type || out.Tier != in.Tier || out.Sub != in.Sub {
			t.Errorf("%#02x: header mismatch: %+v", in.Type, out)
		}
		if len(out.VIDs) != len(in.VIDs) {
			t.Fatalf("%#02x: VIDs %d != %d", in.Type, len(out.VIDs), len(in.VIDs))
		}
		for i := range in.VIDs {
			if !out.VIDs[i].Equal(in.VIDs[i]) {
				t.Errorf("%#02x: VID %d mismatch", in.Type, i)
			}
		}
		if !bytes.Equal(out.Roots, in.Roots) {
			t.Errorf("%#02x: roots %v != %v", in.Type, out.Roots, in.Roots)
		}
	}
}

func TestAdvertiseRoundTripProperty(t *testing.T) {
	f := func(tier uint8, raw [][]byte) bool {
		if len(raw) > 12 {
			raw = raw[:12]
		}
		var vids []VID
		for _, b := range raw {
			if len(b) == 0 || len(b) > 12 {
				continue
			}
			vids = append(vids, VID(b))
		}
		in := Message{Type: TypeAdvertise, Tier: int(tier), VIDs: vids}
		wire, err := in.Marshal()
		if err != nil {
			return false
		}
		out, err := ParseMessage(wire)
		if err != nil || out.Tier != int(tier) || len(out.VIDs) != len(vids) {
			return false
		}
		for i := range vids {
			if !out.VIDs[i].Equal(vids[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestParseAdvertiseAllocs pins what a periodic ADVERTISE costs its
// receiver: the []VID and one copy of the list's bytes, whether it carries
// one VID or the 24 a fabric-scale spine hears. The VIDs may be retained
// (adjacency.advertised does): they do not alias the frame, and appending
// to one cannot reach its neighbour.
func TestParseAdvertiseAllocs(t *testing.T) {
	for _, tc := range []struct {
		n                int
		bytes, raceBytes uint64
	}{
		// One VID's 3 bytes are a tiny object: part of a 16-byte block
		// shared with its neighbours, a whole block under the race detector.
		{1, 32, 40},
		{24, 736, 736},
	} {
		n, want := tc.n, tc.bytes
		if budget.Race {
			want = tc.raceBytes
		}
		in := Message{Type: TypeAdvertise, Tier: 2}
		for i := 0; i < n; i++ {
			in.VIDs = append(in.VIDs, VID{byte(11 + i), 1, 2})
		}
		wire := mustWire(t, in)
		var out Message
		if allocs, bytes := budget.PerRun(100, func() { out, _ = ParseMessage(wire) }); allocs != 2 || bytes != want {
			t.Errorf("parsing an ADVERTISE of %d VIDs allocates %d objects and %d B, want 2 and %d", n, allocs, bytes, want)
		}
		for i := range wire {
			wire[i] = 0xEE // the frame goes back to the pool
		}
		grown := append(out.VIDs[0], 9)
		for i, v := range out.VIDs {
			if !v.Equal(in.VIDs[i]) {
				t.Fatalf("VID %d of %d reads %v after the frame was recycled and its neighbour appended to, want %v", i, n, v, in.VIDs[i])
			}
		}
		if !grown.Equal(VID{11, 1, 2, 9}) {
			t.Errorf("appended VID = %v", grown)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := [][]byte{
		{},
		{0x99},                          // unknown type
		{TypeAdvertise},                 // missing tier
		{TypeJoin, 1},                   // count says 1, no VID
		{TypeJoin, 1, 0},                // zero-length VID
		{TypeJoin, 1, 5, 1},             // truncated VID
		{TypeUpdate, UpdateLost},        // missing count
		{TypeUpdate, UpdateLost, 2, 11}, // truncated roots
		{TypeUpdate, 9, 1, 11},          // unknown subtype
	}
	for _, b := range bad {
		if _, err := ParseMessage(b); err == nil {
			t.Errorf("ParseMessage(% x) succeeded, want error", b)
		}
	}
}

func TestMarshalUnknownType(t *testing.T) {
	// A type byte can arrive off the wire; encoding must reject what it
	// does not know instead of panicking (see panicpath in tools/analyzers).
	for _, typ := range []byte{0x00, 0x99, 0xff, TypeData} {
		m := Message{Type: typ}
		b, err := m.Marshal()
		if err == nil {
			t.Errorf("Marshal type %#02x = % x, want error", typ, b)
			continue
		}
		if !errors.Is(err, ErrMalformed) {
			t.Errorf("Marshal type %#02x error = %v, want ErrMalformed", typ, err)
		}
	}
}

func TestDataRoundTrip(t *testing.T) {
	ip := []byte{0x45, 0, 0, 20}
	b := MarshalData(11, 14, DataTTL, ip)
	if len(b) != DataHeaderLen+len(ip) {
		t.Fatalf("data payload = %d bytes", len(b))
	}
	h, got, err := ParseData(b)
	if err != nil {
		t.Fatal(err)
	}
	if h.SrcRoot != 11 || h.DstRoot != 14 || h.TTL != DataTTL {
		t.Errorf("header = %+v", h)
	}
	if !bytes.Equal(got, ip) {
		t.Error("payload corrupted")
	}
	if _, _, err := ParseData([]byte{TypeData}); err == nil {
		t.Error("truncated data accepted")
	}
	if _, _, err := ParseData(b[1:]); err == nil {
		t.Error("non-data payload accepted")
	}
}
