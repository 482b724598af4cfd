package bgp

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/invariant"
	"repro/internal/netaddr"
)

// TestUpdateFanoutAllocs pins what one UPDATE costs in allocations from end
// to end: a hub with eight established peers hears a new best path from the
// first, re-advertises it to the other seven, and the run drains — seven
// segments marshalled, delivered, parsed, decided on and acknowledged. Paths
// alternate so that every run really changes the exported path; timers are
// parked so nothing else happens on the clock. The figure is the measured
// one with no slack. The working sets of handleUpdate, decide and flush, the
// marshalled UPDATE and the rendered TCP segment are speaker-, peer- and
// endpoint-owned scratch, so the hub's side of it allocates nothing. On the
// receiving side TCP lends the payload to onData, which decodes it into the
// peer's scratch, and the table copies the AS path into the slot it already
// holds for that peer. The frames of the exchange, UPDATE and ACK, go back
// to the pool once TCP's delivery returns, so the whole fan-out allocates
// nothing. It was 195 on b663e43, 42 before the table and the borrowed
// payload, and 14 objects and 14 × 128 B while delivered frames stayed out
// of the pool.
func TestUpdateFanoutAllocs(t *testing.T) {
	if invariant.Enabled {
		t.Skip("checkFIB allocates after every decision under -tags invariants")
	}
	tn := newTestNet()
	hub := tn.router("hub", 64512)
	for i := 0; i < 8; i++ {
		tn.link(tn.router(fmt.Sprintf("n%d", i), 64601+uint16(i)), hub)
	}
	for _, r := range tn.routers {
		r.sp.Cfg.Timers.Keepalive = time.Hour
		r.sp.Cfg.Timers.Hold = 0
		r.sp.log = nil
	}
	tn.sim.Start()
	tn.sim.RunFor(3 * time.Second)
	if got := hub.sp.EstablishedCount(); got != 8 {
		t.Fatalf("hub has %d established sessions, want 8", got)
	}
	from := hub.sp.Peers()[0]
	paths := [2][]uint16{{from.RemoteAS, 64901}, {from.RemoteAS, 64902}}
	nlri := []netaddr.Prefix{rack11}
	sent := hub.sp.Stats.UpdatesSent
	run := 0
	allocs, bytes := budget.PerRun(100, func() {
		hub.sp.handleUpdate(from, Update{ASPath: paths[run%2], NextHop: from.Neighbor, NLRI: nlri})
		run++
		tn.sim.RunFor(5 * time.Millisecond)
	})
	if got := hub.sp.Stats.UpdatesSent - sent; got != 7*uint64(run) {
		t.Fatalf("hub sent %d UPDATEs over %d runs, want 7 per run", got, run)
	}
	if allocs != 0 || bytes != 0 {
		t.Errorf("one UPDATE fanned out to seven peers allocates %d objects and %d B, want 0 and 0", allocs, bytes)
	}
}

// TestWithdrawFanoutAllocs pins the other half of the fan-out: the hub's
// first peer withdraws the one path to a prefix, and the hub withdraws it
// from the other seven. Each run announces the path first, unmeasured: a
// route heard again installs a FIB entry and an AS-path slot on every
// router, which the withdrawal gave up. The withdrawal's prefix list is the
// peer's flush scratch, as the queue's order is, so the withdrawal
// allocates nothing.
func TestWithdrawFanoutAllocs(t *testing.T) {
	if invariant.Enabled {
		t.Skip("checkFIB allocates after every decision under -tags invariants")
	}
	tn := newTestNet()
	hub := tn.router("hub", 64512)
	for i := 0; i < 8; i++ {
		tn.link(tn.router(fmt.Sprintf("n%d", i), 64601+uint16(i)), hub)
	}
	for _, r := range tn.routers {
		r.sp.Cfg.Timers.Keepalive = time.Hour
		r.sp.Cfg.Timers.Hold = 0
		r.sp.log = nil
	}
	tn.sim.Start()
	tn.sim.RunFor(3 * time.Second)
	if got := hub.sp.EstablishedCount(); got != 8 {
		t.Fatalf("hub has %d established sessions, want 8", got)
	}
	from := hub.sp.Peers()[0]
	path := []uint16{from.RemoteAS, 64901}
	nlri := []netaddr.Prefix{rack11}
	withdraw := func() {
		hub.sp.handleUpdate(from, Update{Withdrawn: nlri})
		tn.sim.RunFor(5 * time.Millisecond)
	}
	const runs = 100
	sent := hub.sp.Stats.UpdatesSent
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	var allocs, bytes uint64
	var before, after runtime.MemStats
	for i := 0; i <= runs; i++ {
		hub.sp.handleUpdate(from, Update{ASPath: path, NextHop: from.Neighbor, NLRI: nlri})
		tn.sim.RunFor(5 * time.Millisecond)
		runtime.ReadMemStats(&before)
		withdraw()
		runtime.ReadMemStats(&after)
		if i > 0 { // the first is the warm-up call budget.PerRun makes too
			allocs += after.Mallocs - before.Mallocs
			bytes += after.TotalAlloc - before.TotalAlloc
		}
	}
	if got := hub.sp.Stats.UpdatesSent - sent; got != 14*(runs+1) {
		t.Fatalf("hub sent %d UPDATEs over %d runs, want an UPDATE and a withdrawal to each of seven peers per run", got, runs+1)
	}
	if allocs != 0 || bytes != 0 {
		t.Errorf("a withdrawal fanned out to seven peers allocates %d objects and %d B over %d runs, want 0 and 0", allocs, bytes, runs)
	}
}

// TestKeepaliveSendAllocs pins a KEEPALIVE at zero allocations from end to
// end: the message is one package-level value that Conn.Send copies, the
// segment is rendered into the endpoint's buffer, and the receiver reads the
// payload where TCP lends it. The two frames of the exchange, KEEPALIVE and
// ACK, return to the pool when their delivery does, so after the warm-up
// call the pool serves both.
func TestKeepaliveSendAllocs(t *testing.T) {
	tn := newTestNet()
	leaf := tn.router("leaf", 64601, rack11)
	spine := tn.router("spine", 64513)
	tn.link(leaf, spine)
	for _, r := range tn.routers {
		r.sp.Cfg.Timers.Keepalive = time.Hour
		r.sp.Cfg.Timers.Hold = 0
		r.sp.log = nil
	}
	tn.sim.Start()
	tn.sim.RunFor(3 * time.Second)
	p := leaf.sp.Peers()[0]
	if p.State != StateEstablished {
		t.Fatal("session not established")
	}
	recv := spine.sp.Stats.KeepalivesRecv
	allocs, bytes := budget.PerRun(100, func() {
		p.send(keepalive[:])
		tn.sim.RunFor(time.Millisecond)
	})
	if got := spine.sp.Stats.KeepalivesRecv - recv; got != 101 {
		t.Fatalf("spine received %d KEEPALIVEs, want 101", got)
	}
	if allocs != 0 || bytes != 0 {
		t.Errorf("a KEEPALIVE send allocates %d objects and %d B, want 0 and 0", allocs, bytes)
	}
}

// TestOnDataIsBorrow holds onData to the borrow TCP lends it, as
// capture's TestTapCopiesPooledFrame holds a tap to its pooled frame: the
// delivered bytes are scribbled over once onData returns, and neither the
// table nor the partial message kept in recvBuf may change. A second
// delivery then completes that message over the peer's reused decode
// scratch, so a path kept by reference would show there.
func TestOnDataIsBorrow(t *testing.T) {
	tn := newTestNet()
	leaf := tn.router("leaf", 64601, rack11)
	spine := tn.router("spine", 64513)
	tn.link(leaf, spine)
	tn.sim.Start()
	tn.sim.RunFor(3 * time.Second)
	p := spine.sp.Peers()[0]
	if p.State != StateEstablished {
		t.Fatal("session not established")
	}
	rack12, rack13 := prefix(192, 168, 12, 0, 24), prefix(192, 168, 13, 0, 24)
	first := MarshalUpdate(Update{ASPath: []uint16{64601, 64901}, NextHop: p.Neighbor, NLRI: []netaddr.Prefix{rack12}})
	second := MarshalUpdate(Update{ASPath: []uint16{64601, 64902, 64903}, NextHop: p.Neighbor, NLRI: []netaddr.Prefix{rack13}})
	const cut = 30 // past the header: the body is what is cut
	delivery := append(append([]byte(nil), first...), second[:cut]...)
	p.onData(delivery)
	rib := spine.sp.RenderRIB()
	if !strings.Contains(rib, "64601 64901") {
		t.Fatalf("first UPDATE not in the RIB:\n%s", rib)
	}
	if !bytes.Equal(p.recvBuf, second[:cut]) {
		t.Fatalf("recvBuf = % x, want the cut message % x", p.recvBuf, second[:cut])
	}
	for i := range delivery {
		delivery[i] = 0xEE
	}
	if got := spine.sp.RenderRIB(); got != rib {
		t.Errorf("RIB changed when the delivered bytes were reused:\n%s\nwas\n%s", got, rib)
	}
	if !bytes.Equal(p.recvBuf, second[:cut]) {
		t.Errorf("recvBuf changed when the delivered bytes were reused: % x", p.recvBuf)
	}

	rest := append([]byte(nil), second[cut:]...)
	p.onData(rest)
	for i := range rest {
		rest[i] = 0xEE
	}
	rib = spine.sp.RenderRIB()
	for _, want := range []string{"192.168.12.0/24", "64601 64901\n", "192.168.13.0/24", "64601 64902 64903\n"} {
		if !strings.Contains(rib, want) {
			t.Errorf("RIB lacks %q after the second delivery:\n%s", want, rib)
		}
	}
	if len(p.recvBuf) != 0 {
		t.Errorf("recvBuf = % x after a complete message, want empty", p.recvBuf)
	}
}
