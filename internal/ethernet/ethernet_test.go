package ethernet

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/budget"
	"repro/internal/netaddr"
)

func TestRoundTrip(t *testing.T) {
	f := func(dst, src netaddr.MAC, et uint16, payload []byte) bool {
		in := Frame{Dst: dst, Src: src, EtherType: et, Payload: payload}
		out, err := Unmarshal(in.Marshal())
		return err == nil &&
			out.Dst == dst && out.Src == src && out.EtherType == et &&
			bytes.Equal(out.Payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnmarshalTruncated(t *testing.T) {
	for n := 0; n < HeaderLen; n++ {
		if _, err := Unmarshal(make([]byte, n)); err != ErrTruncated {
			t.Errorf("Unmarshal(%d bytes) err = %v, want ErrTruncated", n, err)
		}
	}
}

// TestCodecAllocs pins the codec's budget: Marshal allocates the frame it
// returns and nothing else, PutHeader and Unmarshal allocate nothing.
func TestCodecAllocs(t *testing.T) {
	f := Frame{Dst: netaddr.Broadcast, EtherType: TypeIPv4, Payload: make([]byte, 50)}
	var wire []byte
	if allocs, bytes := budget.PerRun(100, func() { wire = f.Marshal() }); allocs != 1 || bytes != 64 {
		t.Errorf("Marshal allocates %d objects and %d B per op, want 1 and 64 (the frame)", allocs, bytes)
	}
	if allocs, bytes := budget.PerRun(100, func() {
		PutHeader(wire, f.Dst, f.Src, f.EtherType)
		f, _ = Unmarshal(wire)
	}); allocs != 0 || bytes != 0 {
		t.Errorf("PutHeader and Unmarshal allocate %d objects and %d B per op, want 0 and 0", allocs, bytes)
	}
}

func TestMRMTPKeepAliveFrameSize(t *testing.T) {
	// Paper §VII.F / Fig. 10: an MR-MTP keep-alive is a broadcast frame
	// with ethertype 0x8850 and a single data byte — 15 bytes on the wire.
	f := Frame{Dst: netaddr.Broadcast, Src: netaddr.MAC{0x6a}, EtherType: TypeMRMTP, Payload: []byte{0x06}}
	if got := len(f.Marshal()); got != 15 {
		t.Errorf("MR-MTP keep-alive frame = %d bytes, want 15", got)
	}
}

func TestString(t *testing.T) {
	f := Frame{Dst: netaddr.Broadcast, EtherType: TypeMRMTP, Payload: []byte{0x06}}
	want := "00:00:00:00:00:00 > ff:ff:ff:ff:ff:ff MR-MTP len=15"
	if got := f.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	f.EtherType = 0x1234
	if got := f.String(); got != "00:00:00:00:00:00 > ff:ff:ff:ff:ff:ff 0x1234 len=15" {
		t.Errorf("String() = %q", got)
	}
}

func TestEtherTypeEncoding(t *testing.T) {
	f := Frame{EtherType: TypeMRMTP}
	b := f.Marshal()
	if b[12] != 0x88 || b[13] != 0x50 {
		t.Errorf("ethertype bytes = %02x%02x, want 8850", b[12], b[13])
	}
}
