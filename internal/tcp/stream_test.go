package tcp

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/netaddr"
)

// streamByte is the byte at offset i of a test stream: a run of 251
// distinct values, so a byte out of place or delivered twice shows.
func streamByte(i int) byte { return byte(i % 251) }

// inFlight returns the bytes c has sent and not yet seen acknowledged, and
// those it holds unsent; sent counts the bytes handed to Send. Before the
// handshake completes the SYN is c's only sequence number in flight and
// every held byte is queued.
func inFlight(c *Conn, sent int) (flight, queued int) {
	if c.state != StateEstablished {
		return 0, sent
	}
	return int(c.sndNxt - c.sndUna), sent - int(c.sndNxt-(c.iss+1))
}

// checkHeld holds c's send stream to the bytes handed to Send: it holds
// exactly the bytes in flight plus the queued ones, and they are the tail
// of what was sent.
func checkHeld(t *testing.T, c *Conn, sent []byte) {
	t.Helper()
	flight, queued := inFlight(c, len(sent))
	if c.held != flight+queued {
		t.Fatalf("%v: the sender holds %d bytes, want %d in flight plus %d queued", c.state, c.held, flight, queued)
	}
	if c.head < 0 || c.head >= blockSize || (c.head+c.held+blockSize-1)/blockSize > len(c.blocks) {
		t.Fatalf("stream from %d, %d bytes, in %d blocks", c.head, c.held, len(c.blocks))
	}
	for off := 0; off < c.held; off++ {
		pos := c.head + off
		if got, want := c.blocks[pos/blockSize][pos%blockSize], sent[len(sent)-c.held+off]; got != want {
			t.Fatalf("held byte %d of %d is %#x, want %#x", off, c.held, got, want)
		}
	}
}

// FuzzConnStream drives one connection's send stream from the three places
// a send can come from — before the handshake, inside
// OnState(Established) before the handshake's own push, and after it while
// segments are in flight — with sizes from 0 to 3×MSS+1, while data
// segments and ACKs are dropped. The receiver must get exactly the
// concatenation sent, every delivery continuing the stream where the last
// one ended (nothing twice, nothing out of order); the sender must hold
// exactly its bytes in flight plus its queued ones, and they must be what
// it was given, checked after every send and every event. A send's buffer
// is scribbled over once Send returns.
//
// The script is read three bytes an operation: the first selects where the
// send is made (its value mod 3) and, for a send after the handshake, how
// long to run first (its top six bits × 20 µs, against a 200 µs round
// trip); the other two give the size. Bit k of dropData drops the k-th
// data segment, bit k of dropAck the k-th pure ACK, except once the sender
// has retransmitted four times running, so the connection never fails.
func FuzzConnStream(f *testing.F) {
	f.Add(uint32(0), uint32(0), []byte{0, 51, 0, 1, 19, 0, 2, 51, 0})
	f.Add(uint32(0b1011), uint32(0b110), []byte{0, 0xb5, 0x05, 1, 1, 0, 1, 0xb4, 0x05, 0x42, 51, 0, 0x06, 0xb6, 0x11})
	f.Add(uint32(0xffffffff), uint32(0), []byte{2, 51, 0, 6, 51, 0, 10, 51, 0, 14, 200, 0})
	f.Add(uint32(0), uint32(0xffffffff), []byte{1, 0, 0, 2, 0xff, 0xff, 0xfe, 3, 0, 2, 0, 0})
	f.Add(uint32(0x5555), uint32(0xaaaa), []byte{0, 127, 0, 1, 129, 0, 2, 128, 0, 5, 1, 0, 9, 0x0f, 0x02})
	f.Fuzz(func(t *testing.T, dropData, dropAck uint32, script []byte) {
		w := newWirePair(t)
		var c *Conn
		var sent, got []byte
		buf := make([]byte, 3*MSS+1)
		send := func(n int) {
			for i := range buf[:n] {
				buf[i] = streamByte(len(sent) + i)
			}
			sent = append(sent, buf[:n]...)
			c.Send(buf[:n])
			for i := range buf[:n] {
				buf[i] = 0xEE
			}
			checkHeld(t, c, sent)
		}
		var dataSeen, acksSeen int
		w.drop = func(from netaddr.IPv4, seg []byte) bool {
			to := ipB
			if from == ipB {
				to = ipA
			}
			s, err := Unmarshal(from, to, seg)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case from == ipA && len(s.Payload) > 0:
				dataSeen++
				return dataSeen <= 32 && dropData>>(dataSeen-1)&1 == 1 && c.retries < 4
			case from == ipB && s.Flags == FlagACK:
				acksSeen++
				return acksSeen <= 32 && dropAck>>(acksSeen-1)&1 == 1 && c.retries < 4
			}
			return false
		}
		w.b.Listen(179, func(sc *Conn) {
			sc.OnData(func(d []byte) {
				if len(got)+len(d) > len(sent) || !bytes.Equal(d, sent[len(got):len(got)+len(d)]) {
					t.Fatalf("delivered %d bytes at offset %d that are not the stream's (%d sent)", len(d), len(got), len(sent))
				}
				got = append(got, d...)
			})
		})

		type op struct{ where, wait, size int }
		var ops []op
		for ; len(script) >= 3; script = script[3:] {
			size := int(binary.LittleEndian.Uint16(script[1:])) % (3*MSS + 2)
			ops = append(ops, op{int(script[0]) % 3, int(script[0] >> 2), size})
		}
		c = w.a.Dial(ipA, ipB, 179)
		c.OnState(func(s State) {
			if s != StateEstablished {
				return
			}
			for _, o := range ops {
				if o.where == 1 {
					send(o.size)
				}
			}
		})
		for _, o := range ops {
			if o.where == 0 {
				send(o.size)
			}
		}
		step := func() bool {
			if !w.sim.Step() {
				return false
			}
			checkHeld(t, c, sent)
			if c.state == StateEstablished {
				if _, queued := inFlight(c, len(sent)); queued != 0 {
					t.Fatalf("%d bytes still queued after the handshake", queued)
				}
			}
			return true
		}
		for c.state != StateEstablished && step() {
		}
		if c.state != StateEstablished {
			t.Fatalf("the handshake never completed: %v", c.state)
		}
		for _, o := range ops {
			if o.where == 2 {
				for end := w.sim.Now() + time.Duration(o.wait)*20*time.Microsecond; w.sim.Now() < end && step(); {
				}
				send(o.size)
			}
		}
		for step() {
		}
		if c.state != StateEstablished {
			t.Fatalf("the connection failed: %v", c.state)
		}
		if !bytes.Equal(got, sent) {
			t.Fatalf("received %d bytes, sent %d", len(got), len(sent))
		}
		if c.held != 0 {
			t.Fatalf("the sender still holds %d bytes with every byte acknowledged", c.held)
		}
	})
}

// TestSendBurstAllocs pins what a burst costs the sender: 92 BGP messages
// of 51 B sent back to back on an established connection, before any is
// acknowledged, as a 24-PoD table sync sends them. The first burst
// allocates the blocks that hold it, ⌈4 692 / 128⌉ = 37 of 128 B, and the
// block list, which append grows through 1, 2, 4 … 64 pointers (7 objects,
// 1 016 B). Acknowledged blocks stay with the connection, so the same
// burst again costs nothing. The segments go to an output that drops them,
// and the ACK is fed back by hand, so the rig itself allocates nothing.
func TestSendBurstAllocs(t *testing.T) {
	w := newWirePair(t)
	w.b.Listen(179, func(*Conn) {})
	// warm's first burst is the unmeasured call budget.PerRun makes too.
	warm, c := w.a.Dial(ipA, ipB, 179), w.a.Dial(ipA, ipB, 179)
	w.sim.RunFor(10 * time.Millisecond)
	if c.State() != StateEstablished || warm.State() != StateEstablished {
		t.Fatal("not established")
	}
	w.a.output = func(netaddr.IPv4, netaddr.IPv4, []byte) {}
	msg := make([]byte, 51)
	var ack []byte
	burst := func(c *Conn) {
		for i := 0; i < 92; i++ {
			c.Send(msg)
		}
	}
	acknowledge := func() {
		seg := Segment{SrcPort: c.key.remotePort, DstPort: c.key.localPort, Seq: c.rcvNxt, Ack: c.sndNxt, Flags: FlagACK}
		ack = seg.marshalInto(ack, ipB, ipA)
		w.a.Input(ipB, ipA, ack)
	}
	acknowledge() // the ACK buffer, made once

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	burst(warm)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	burst(c)
	runtime.ReadMemStats(&after)
	if c.held != 92*51 {
		t.Fatalf("the sender holds %d bytes after the burst, want %d", c.held, 92*51)
	}
	if allocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc; allocs != 37+7 || bytes != 37*blockSize+1016 {
		t.Errorf("the first burst allocates %d objects and %d B, want %d and %d", allocs, bytes, 37+7, 37*blockSize+1016)
	}
	acknowledge()
	if c.held != 0 {
		t.Fatalf("the sender holds %d bytes after the ACK", c.held)
	}
	if allocs, bytes := budget.PerRun(20, func() { burst(c); acknowledge() }); allocs != 0 || bytes != 0 {
		t.Errorf("a burst after the ACKs allocates %d objects and %d B, want 0 and 0", allocs, bytes)
	}
}
