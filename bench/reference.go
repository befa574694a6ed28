package main

import (
	"container/heap"
	"time"
)

// Reference arms. The sandbox this benchmark was defined on slows whole
// stretches of a run by 15–40 % for anything from ten seconds to minutes
// (measured: identical simulator repetitions between 2.0 s and 3.6 s), so
// a wall-clock number compares two commits only if both met the same
// weather. Each time-like end-to-end metric is therefore measured beside
// a reference that does not change from commit to commit, and divided by
// the reference's slowdown: its time in this run over its nominal time.
//
//   - sim_*: refPass below, one pass between repetitions. It is shaped
//     like the simulator (70 000 heap-allocated clients, a timer heap, a
//     fresh request object and closure per event, the collector running
//     beside it) so the host's interference hits both alike: over five
//     minutes in which repetitions went from 1.13 s to 1.60 s, the ratio
//     to the reference stayed within ±4 %.
//   - proxy_bare: the direct arm, interleaved in 250 ms slices. Latency
//     and rate of a proxy slice are each divided by how much worse than
//     nominal its direct neighbour was in that same quantity. The ratio of adjacent slice medians repeats to 1 % across
//     runs whose raw medians differ by 15 %.
//   - proxy_mbneck: none. Latency and throughput are set by the 8 ms
//     service sleep, which the host's weather does not stretch.
//
// CPU time per operation is a layer metric only (cpu.us_per_op): on
// proxy_mbneck it sits near 400 us or near 550 us for a whole run, tracks
// neither refPass nor anything else the bench can see, and moved by 25 %
// between two ten-run sets of one commit.
//
// The nominal times were taken on a quiet stretch of the 2-vCPU sandbox.
// On another machine every corrected value is off by one constant factor
// per workload, which a comparison of two commits on that machine does
// not see. The raw wall-clock numbers stay in the per-layer set
// (sim.s_per_wall_s, client.lat_*, backend.direct_p50_us), with
// ref.slowdown beside them.
const (
	refPassEvents   = 500000
	refPassNominalS = 0.400

	// The direct arm of proxy_bare: slice median latency and requests per
	// second of the serial client.
	refDirectNominalUs   = 38.0
	refDirectNominalRate = 19000.0
)

// refPass is FROZEN: it is the yardstick's own reference, not code to
// optimise. Changing it changes every corrected simulator number.
func refPass() time.Duration {
	t0 := time.Now()
	const clients = 70000
	h := make(refHeap, 0, clients)
	state := uint64(99)
	next := func() int64 {
		state = state*6364136223846793005 + 1442695040888963407
		return int64(state >> 40)
	}
	for i := 0; i < clients; i++ {
		h = append(h, refEvent{at: next(), c: &refClient{id: i}})
	}
	heap.Init(&h)
	for i := 0; i < refPassEvents; i++ {
		e := heap.Pop(&h).(refEvent)
		c := e.c
		c.last = &refRequest{id: uint64(i)}
		c.n++
		heap.Push(&h, refEvent{at: e.at + next(), c: c, fn: func() { c.n++ }})
	}
	refSink += uint64(len(h))
	return time.Since(t0)
}

var refSink uint64 // keeps the compiler from discarding the pass

type refRequest struct {
	id  uint64
	pad [20]uint64
}

type refClient struct {
	id   int
	last *refRequest
	n    uint64
}

type refEvent struct {
	at int64
	c  *refClient
	fn func()
}

type refHeap []refEvent

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
