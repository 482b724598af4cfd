package harness

import (
	"reflect"
	"sort"
	"testing"
	"time"
	"unsafe"

	"repro/internal/budget"
	"repro/internal/netaddr"
	"repro/internal/simnet/framepool"
	"repro/internal/topology"
	"repro/internal/udp"
	"repro/internal/workload"
)

// TestPacketPathAllocFree is the single-owner rule end to end (DESIGN.md
// §7): on a warm 4-PoD fabric one 1000-byte datagram from a host in the
// first rack to a listening host in the last — composed once, forwarded in
// place at every hop, lent to the listener and returned to the pool —
// allocates nothing, under MR-MTP (encapsulation at the ToRs) and under
// BGP/ECMP (IP forwarding at every router) alike.
func TestPacketPathAllocFree(t *testing.T) {
	for _, proto := range []Protocol{ProtoMRMTP, ProtoBGP} {
		t.Run(proto.String(), func(t *testing.T) {
			f, err := bringUp(DefaultOptions(topology.FourPodSpec(), proto, 1))
			if err != nil {
				t.Fatal(err)
			}
			src, dst := f.Topo.Servers[0], f.Topo.Servers[len(f.Topo.Servers)-1]
			got := 0
			f.Stacks[dst.Name].ListenUDP(9, func(_, _ netaddr.IPv4, _ udp.Datagram) { got++ })
			payload := make([]byte, 1000)
			op := func() {
				f.Stacks[src.Name].SendUDP(src.IP, dst.IP, 4000, 9, payload)
				f.Sim.RunFor(600 * time.Microsecond)
			}
			for i := 0; i < 3; i++ { // ARP resolves at both racks on the first sends
				op()
				f.Sim.RunFor(time.Millisecond)
			}
			if got == 0 {
				t.Fatal("datagram never delivered")
			}
			before := got
			allocs, bytes := budget.PerRun(200, op)
			if got-before < 200 {
				t.Fatalf("delivered %d of 200 measured datagrams", got-before)
			}
			if allocs != 0 || bytes != 0 {
				t.Errorf("host-to-host datagram allocates %d objects and %d B per op, want 0 and 0", allocs, bytes)
			}
		})
	}
}

// TestFramePoolDrains is the property the framepool telemetry rows exist to
// show: a closed packet workload borrows its buffers. The load crosses a TC2
// failure on 64-frame queues, so frames die on every path there is — tail
// drop, carrier loss, blackholed transmit, delivery, duplicate delivery —
// and when the last flow completes the pool must hold what it held before
// Engine.Start, give or take the control frames in flight at the two
// snapshot instants: every delivered frame comes back, BGP's TCP segments
// included. Nor may any state in the fabric keep a slice of a buffer the
// pool took back: a sender holding an alias of a frame it handed to
// Port.Send fails here even if it never reads it. The walk must reach the
// byte slices a BGP session keeps between deliveries — the peer's partial
// message and decode scratch, the connection's send buffers — or it could
// not see one of them holding a returned frame. A connection holds its send
// stream in blocks (tcp.block) that the walk reads too.
func TestFramePoolDrains(t *testing.T) {
	sessionFields := []string{"bgp.Peer.recvBuf", "bgp.Peer.in", "tcp.Conn.blocks", "tcp.block"}
	for _, proto := range []Protocol{ProtoMRMTP, ProtoBGP, ProtoBGPBFD} {
		t.Run(proto.String(), func(t *testing.T) {
			f, err := bringUp(DefaultOptions(topology.TwoPodSpec(), proto, 7))
			if err != nil {
				t.Fatal(err)
			}
			w := DefaultWorkloadConfig()
			for _, link := range f.Sim.Links() {
				link.SetBandwidth(w.LinkBps, w.LinkQueue)
			}
			cfg := workload.DefaultConfig(7)
			cfg.Sizes = workload.FixedSize(60_000)
			cfg.Flows = 200
			cfg.MeanArrival = 300 * time.Microsecond
			// An RTO inside the queueing delay re-offers packets that are
			// merely late, so the sinks see duplicates as well.
			cfg.RTO = 2 * time.Millisecond
			cfg.MaxRounds = 1000
			engine, err := workload.New(f.Sim, f.WorkloadHosts(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			sampler := workload.NewSampler(f.Sim, w.SampleInterval)
			for _, link := range f.Sim.Links() {
				sampler.Watch(link)
			}
			inUse := f.Sim.FrameStats().InUse
			engine.Start()
			sampler.Start()
			f.Sim.RunFor(10 * time.Millisecond)
			if _, err := f.Fail(topology.TC2); err != nil {
				t.Fatal(err)
			}
			for start := f.Sim.Now(); !engine.Done() && f.Sim.Now()-start < 30*time.Second; {
				f.Sim.RunFor(50 * time.Millisecond)
			}
			sampler.Stop()
			// Late duplicates of the final repair round may still be queued.
			f.Sim.RunFor(20 * time.Millisecond)

			rep := engine.Report(nil)
			if rep.Completed != rep.Flows {
				t.Fatalf("completed %d/%d flows", rep.Completed, rep.Flows)
			}
			if sampler.TotalDrops() == 0 || rep.Retransmits == 0 || rep.Duplicates == 0 {
				t.Fatalf("run too gentle to exercise the drop paths: %d tail drops, %d retransmits, %d duplicates",
					sampler.TotalDrops(), rep.Retransmits, rep.Duplicates)
			}
			grew := f.Sim.FrameStats().InUse - inUse
			// At most one keep-alive per link direction is on the wire at
			// either instant; a leak on any data path is thousands.
			slack := 2 * len(f.Sim.Links())
			if grew < -slack || grew > slack {
				t.Errorf("pool InUse grew by %d over %d packets, want 0 ± %d control frames in flight",
					grew, rep.PacketsSent, slack)
			}
			// Nothing keeps a frame it sent or gave back. A kept alias
			// shows only while its buffer sits in the pool, between a Put
			// and the next Get, so the state is read at several instants.
			for i := 0; i < 20; i++ {
				kept, scanned := keptFrames(f, f.Sim.Frames())
				if len(kept) > 0 {
					t.Fatalf("at %v these fields hold a buffer back in the pool: %v", f.Sim.Now(), kept)
				}
				for _, field := range sessionFields {
					if proto != ProtoMRMTP && !scanned[field] {
						t.Fatalf("the walk never reached %s", field)
					}
				}
				f.Sim.RunFor(time.Millisecond)
			}
		})
	}
}

// keptFrames walks everything reachable from root — pointers, interfaces,
// struct fields, slice, array and map elements, but not the pool — and
// names each field holding a byte slice that is, or reslices, a buffer the
// pool holds, or a byte array in one: an alias kept after its frame was
// returned. scanned is every field it reached, byte slice or not, and the
// type of every byte array it reached through a pointer.
func keptFrames(root any, pool *framepool.Pool) (kept []string, scanned map[string]bool) {
	type visit struct {
		ptr unsafe.Pointer
		typ reflect.Type
	}
	seen := map[visit]bool{{unsafe.Pointer(pool), reflect.TypeOf(pool)}: true}
	held := map[string]bool{}
	scanned = map[string]bool{}
	var walk func(v reflect.Value, field string)
	walk = func(v reflect.Value, field string) {
		scanned[field] = true
		switch v.Kind() {
		case reflect.Pointer:
			if key := (visit{v.UnsafePointer(), v.Type()}); !v.IsNil() && !seen[key] {
				seen[key] = true
				walk(v.Elem(), field)
			}
		case reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem(), field)
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i), v.Type().String()+"."+v.Type().Field(i).Name)
			}
		case reflect.Map:
			for it := v.MapRange(); it.Next(); {
				walk(it.Value(), field)
			}
		case reflect.Slice:
			if v.Type().Elem().Kind() == reflect.Uint8 {
				if pool.Holds(unsafe.Slice((*byte)(v.UnsafePointer()), v.Cap())) {
					held[field] = true
				}
				return
			}
			fallthrough
		case reflect.Array:
			if v.Type().Elem().Kind() == reflect.Uint8 && v.CanAddr() && v.Len() > 0 {
				scanned[v.Type().String()] = true
				if pool.Holds(unsafe.Slice((*byte)(v.Addr().UnsafePointer()), v.Len())) {
					held[field] = true
				}
				return
			}
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i), field)
			}
		}
	}
	walk(reflect.ValueOf(root), "")
	for f := range held {
		kept = append(kept, f)
	}
	sort.Strings(kept)
	return kept, scanned
}
