package udp

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/budget"
	"repro/internal/netaddr"
)

var (
	srcIP = netaddr.MakeIPv4(172, 16, 0, 1)
	dstIP = netaddr.MakeIPv4(172, 16, 0, 2)
)

func TestRoundTrip(t *testing.T) {
	f := func(sp, dp uint16, payload []byte) bool {
		d := Datagram{SrcPort: sp, DstPort: dp, Payload: payload}
		out, err := Unmarshal(srcIP, dstIP, d.Marshal(srcIP, dstIP))
		return err == nil && out.SrcPort == sp && out.DstPort == dp &&
			bytes.Equal(out.Payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestCodecAllocs pins the codec's budget: Marshal allocates the datagram
// it returns and nothing else, PutHeader and Unmarshal (with the checksum
// over the pseudo-header) allocate nothing.
func TestCodecAllocs(t *testing.T) {
	d := Datagram{SrcPort: 49152, DstPort: PortBFDControl, Payload: make([]byte, 100)}
	var wire []byte
	if allocs, bytes := budget.PerRun(100, func() { wire = d.Marshal(srcIP, dstIP) }); allocs != 1 || bytes != 112 {
		t.Errorf("Marshal allocates %d objects and %d B per op, want 1 and 112 (the 108-byte datagram in its size class)", allocs, bytes)
	}
	var err error
	if allocs, bytes := budget.PerRun(100, func() {
		d.PutHeader(srcIP, dstIP, wire)
		d, err = Unmarshal(srcIP, dstIP, wire)
	}); allocs != 0 || bytes != 0 || err != nil {
		t.Errorf("PutHeader and Unmarshal allocate %d objects and %d B per op (err %v), want 0 and 0", allocs, bytes, err)
	}
}

func TestChecksumCoversAddresses(t *testing.T) {
	d := Datagram{SrcPort: 49152, DstPort: PortBFDControl, Payload: []byte("bfd")}
	b := d.Marshal(srcIP, dstIP)
	// Same bytes delivered between different addresses must fail: the
	// pseudo-header binds the datagram to its IP endpoints.
	if _, err := Unmarshal(srcIP, netaddr.MakeIPv4(172, 16, 0, 3), b); err != ErrBadChecksum {
		t.Errorf("err = %v, want ErrBadChecksum", err)
	}
}

func TestCorruptPayload(t *testing.T) {
	d := Datagram{SrcPort: 1, DstPort: 2, Payload: []byte("payload")}
	b := d.Marshal(srcIP, dstIP)
	b[len(b)-1] ^= 0x01
	if _, err := Unmarshal(srcIP, dstIP, b); err != ErrBadChecksum {
		t.Errorf("err = %v, want ErrBadChecksum", err)
	}
}

func TestTruncated(t *testing.T) {
	if _, err := Unmarshal(srcIP, dstIP, make([]byte, 4)); err != ErrTruncated {
		t.Errorf("err = %v, want ErrTruncated", err)
	}
	d := Datagram{SrcPort: 1, DstPort: 2, Payload: []byte("hello")}
	b := d.Marshal(srcIP, dstIP)
	if _, err := Unmarshal(srcIP, dstIP, b[:10]); err != ErrTruncated {
		t.Errorf("err = %v, want ErrTruncated", err)
	}
}

func TestBFDWireSize(t *testing.T) {
	// A 24-byte BFD control packet in UDP is 32 bytes; with IP (20) and
	// Ethernet (14) that is the 66-byte frame in the paper's Fig. 9.
	d := Datagram{SrcPort: 49152, DstPort: PortBFDControl, Payload: make([]byte, 24)}
	if got := len(d.Marshal(srcIP, dstIP)); got != 32 {
		t.Errorf("UDP datagram = %d bytes, want 32", got)
	}
}
