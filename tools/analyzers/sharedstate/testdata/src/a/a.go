// Fixture for the sharedstate analyzer: package-level mutable state is
// flagged; sentinel errors, inert unexported constants-in-spirit, and
// justified declarations are not.
package a

import (
	"errors"
	"sync"
)

// Sentinel errors are the one blessed package-level var idiom.
var ErrBad = errors.New("a: bad")

var counter int // want `package-level var counter is written by this package`

var addrTaken uint16 // want `package-level var addrTaken is written by this package`

var Exported = 3 // want `package-level var Exported is exported`

var table = map[string]int{} // want `package-level var table has a type with mutable indirection`

var once sync.Once // want `package-level var once has a type with mutable indirection`

var scratch []byte // want `package-level var scratch has a type with mutable indirection`

// Inert: unexported, never written, no indirection.
var limit = 64

var greeting = "hello"

var magic [4]uint16

//simlint:shared parallelism knob, set before any trial starts and never after
var TunedWorkers = 8

//simlint:shared
var bare = map[int]int{} // want `simlint:shared requires a written justification`

func bump() int {
	counter++
	p := &addrTaken
	*p = 7
	once.Do(func() {})
	return counter + len(table) + len(scratch) + limit + len(greeting) + int(magic[0]) + Exported + TunedWorkers
}

func ok() error { return ErrBad }

// --- engine-instance shapes --------------------------------------------------
//
// An engine's queues are instance state: fields of an engine object, one
// per trial. The analyzer is structural about package-level vars only, so
// this idiom needs no suppression — which is exactly the point: simulation
// state must live on the engine, never at package level.

type frameRef struct{ at int64 }

type outbox struct{ buf []frameRef }

type shard struct {
	inbox outbox
	heap  []frameRef
}

func (s *shard) push(f frameRef) { s.inbox.buf = append(s.inbox.buf, f) }

func (s *shard) pop() frameRef {
	f := s.heap[0]
	s.heap = s.heap[1:]
	return f
}

// A package-level event heap, by contrast, would be written by every trial
// worker that schedules into it: flagged.
var globalHeap []frameRef // want `package-level var globalHeap is written by this package`

func drainGlobal() frameRef {
	f := globalHeap[0]
	globalHeap = globalHeap[1:]
	return f
}

// --- observability-plane shapes (DESIGN.md §12) -----------------------------
//
// The path-tracing fleet follows the same rule: per-hop rolling statistics
// and the prober registry are fields of a tracer object owned by one
// campaign. Concurrent trials each run their own fleet, so any package-level
// rollup would be written from every trial worker at once.

type hopStat struct {
	sent, lost uint64
	lossEWMA   float64
}

type prober struct {
	id    int
	hops  []hopStat
	flows uint16
}

type tracer struct {
	probers []prober
	pending map[uint16]int
}

func (tr *tracer) add(p prober) int {
	p.id = len(tr.probers)
	tr.probers = append(tr.probers, p)
	return p.id
}

func (p *prober) record(ttl int, ok bool) {
	h := &p.hops[ttl-1]
	h.sent++
	if !ok {
		h.lost++
		h.lossEWMA += (1 - h.lossEWMA) * 0.25
	}
}

// Package-level prober bookkeeping is exactly the bug the rule exists for:
// a global ID well and a global reply-matching table would be racy across
// the parallel trial workers and leak state between trials.
var nextProberID int // want `package-level var nextProberID is written by this package`

var replyTable = map[uint16]int{} // want `package-level var replyTable has a type with mutable indirection`

func register(tr *tracer, p prober) {
	nextProberID++
	replyTable[p.flows] = tr.add(p)
}

// --- fluid-engine shapes (DESIGN.md §14) ------------------------------------
//
// The flow-level solver's rate table and path-group index are instance
// state: fields of a solver owned by one trial. Rates are recomputed every
// epoch, so a package-level table would bleed allocations between trials
// and race across the parallel trial workers.

type pathGroup struct {
	rate    float64
	service float64
	members []frameRef
}

type solver struct {
	groups []pathGroup
	index  map[string]int32
}

func (sv *solver) reallocate(capBps float64) {
	share := capBps / float64(len(sv.groups))
	for i := range sv.groups {
		sv.groups[i].rate = share
	}
}

// A package-level rate table or flow set is the anti-pattern: every trial
// worker's admission path would write it, and a second trial would inherit
// the first trial's allocations.
var rateTable = map[string]float64{} // want `package-level var rateTable has a type with mutable indirection`

var activeFlows []uint32 // want `package-level var activeFlows is written by this package`

func admitGlobal(key string, id uint32, bps float64) {
	rateTable[key] = bps
	activeFlows = append(activeFlows, id)
}
