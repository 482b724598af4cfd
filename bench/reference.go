package main

import (
	"container/heap"
	"math/rand"
)

// The host this benchmark runs on is shared, and its speed drifts by 10-50 %
// for tens of seconds at a time: ten runs of one commit spread 8-20 % in wall
// and CPU seconds alike, whatever statistic of the repetitions is taken,
// because a whole run lands in a slow phase. So the time metrics are reported
// relative to a reference kernel timed immediately before and after every
// repetition. The kernel is the simulator's inner loop without any of its
// code — pop the earliest of 50 000 events off a binary heap, push it back
// later, a million times — so the host's slow phases stretch both alike, and
// nothing a later change does to the repository can move it. Measured over
// 360 repetitions of a 24-PoD bring-up, the spread of six-repetition medians
// fell from 4.7 % to 2.2 %. A variant allocating a frame per event tracked
// the host no better and was itself noisier (the collector's timing), so the
// kernel allocates nothing while the clock runs.

type refEvent struct{ at int64 }

type refHeap []*refEvent

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// refCost is one reading of the reference kernel.
type refCost struct{ wallS, cpuS float64 }

// reference runs the kernel for ops events: a million, about a quarter
// second, at full scale.
func reference(ops int) refCost {
	rng := rand.New(rand.NewSource(1))
	h := make(refHeap, 0, 50_000)
	for i := 0; i < 50_000; i++ {
		heap.Push(&h, &refEvent{at: rng.Int63n(1 << 40)})
	}
	cpu0, t0 := cpuSeconds(), now()
	for i := 0; i < ops; i++ {
		e := heap.Pop(&h).(*refEvent)
		e.at += rng.Int63n(1 << 30)
		heap.Push(&h, e)
	}
	return refCost{since(t0).Seconds(), cpuSeconds() - cpu0}
}

// mean averages the readings that bracket one repetition.
func (a refCost) mean(b refCost) refCost {
	return refCost{(a.wallS + b.wallS) / 2, (a.cpuS + b.cpuS) / 2}
}
