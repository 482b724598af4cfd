package capture

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/ethernet"
	"repro/internal/netaddr"
	"repro/internal/simnet"
)

func TestPCAPRoundTrip(t *testing.T) {
	sim := simnet.New(1)
	a, b := sim.AddNode("a"), sim.AddNode("b")
	link := sim.Connect(a.AddPort(), b.AddPort())
	var c Capture
	c.Tap(link)
	hello := ethFrame(ethernet.TypeMRMTP, []byte{0x06})
	sim.After(1500*time.Microsecond, func() { a.Port(1).Send(hello) })
	sim.After(3*time.Millisecond, func() { b.Port(1).Send(hello) })
	sim.RunFor(10 * time.Millisecond)
	if c.Count() != 2 {
		t.Fatalf("recorded %d frames, want 2", c.Count())
	}

	var buf bytes.Buffer
	if err := c.WritePCAP(&buf); err != nil {
		t.Fatal(err)
	}
	frames, err := ReadPCAP(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 2 {
		t.Fatalf("read %d frames, want 2", len(frames))
	}
	if !bytes.Equal(frames[0].Raw, hello) {
		t.Error("frame bytes corrupted through pcap")
	}
	if frames[0].At != 1500*time.Microsecond {
		t.Errorf("timestamp = %v, want 1.5ms", frames[0].At)
	}
	// The re-read frame still classifies.
	if got := Classify(frames[0].Raw); got != ClassMTPHello {
		t.Errorf("re-read frame classifies as %s", got)
	}
}

func TestPCAPHeaderShape(t *testing.T) {
	var c Capture
	var buf bytes.Buffer
	if err := c.WritePCAP(&buf); err != nil {
		t.Fatal(err)
	}
	hdr := buf.Bytes()
	if len(hdr) != 24 {
		t.Fatalf("empty capture header = %d bytes, want 24", len(hdr))
	}
	if hdr[0] != 0xd4 || hdr[1] != 0xc3 || hdr[2] != 0xb2 || hdr[3] != 0xa1 {
		t.Errorf("magic bytes % x, want d4c3b2a1 (little-endian)", hdr[:4])
	}
	if hdr[20] != 1 {
		t.Errorf("link type %d, want 1 (Ethernet)", hdr[20])
	}
}

func TestReadPCAPErrors(t *testing.T) {
	if _, err := ReadPCAP(bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Error("short header accepted")
	}
	bad := make([]byte, 24)
	if _, err := ReadPCAP(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic accepted")
	}
	// Valid header, truncated record.
	var c Capture
	var buf bytes.Buffer
	_ = c.WritePCAP(&buf)
	buf.Write([]byte{1, 2, 3}) // partial record header
	if _, err := ReadPCAP(&buf); err == nil {
		t.Error("truncated record accepted")
	}
}

func TestPCAPFromHarnessTraffic(t *testing.T) {
	// End to end: record a busy link, export, re-read, classify.
	sim := simnet.New(2)
	a, b := sim.AddNode("a"), sim.AddNode("b")
	link := sim.Connect(a.AddPort(), b.AddPort())
	var c Capture
	c.Tap(link)
	for i := 0; i < 20; i++ {
		i := i
		sim.After(time.Duration(i)*time.Millisecond, func() {
			f := ethernet.Frame{Dst: netaddr.Broadcast, Src: a.Port(1).MAC,
				EtherType: ethernet.TypeMRMTP, Payload: []byte{0x06}}
			a.Port(1).Send(f.Marshal())
		})
	}
	sim.RunFor(time.Second)
	var buf bytes.Buffer
	if err := c.WritePCAP(&buf); err != nil {
		t.Fatal(err)
	}
	frames, err := ReadPCAP(&buf)
	if err != nil || len(frames) != 20 {
		t.Fatalf("frames=%d err=%v", len(frames), err)
	}
	for i := 1; i < len(frames); i++ {
		if frames[i].At < frames[i-1].At {
			t.Fatal("pcap timestamps out of order")
		}
	}
}
