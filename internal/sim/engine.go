// Package sim provides a deterministic discrete-event simulation engine:
// a virtual clock, a cancellable timer heap, a seeded random source, and
// small event-driven concurrency primitives (token pools and FIFO queues)
// used by the n-tier server models.
//
// The engine is single-threaded by design. All simulated activity is
// expressed as events scheduled at virtual times; two events scheduled
// for the same instant fire in schedule order, so a run with a fixed seed
// is exactly reproducible. Distinct engines share no state, so many
// engines may run concurrently on separate goroutines.
//
// An event is an object: anything with a Fire method. The request path
// schedules its own long-lived records (a request in flight, a CPU
// burst slot, a thinking client), so parking one on a timer, a pool or
// a backlog allocates nothing; cold callers — pollers, injectors,
// tests — pass a closure, which Func turns into an Event for free.
package sim

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"time"
)

// Time is a virtual timestamp measured from the start of the simulation.
// It reuses time.Duration so call sites can write 50*time.Millisecond.
type Time = time.Duration

// Event is an activity that runs when its time comes, its token is
// granted or its connection is accepted. Implementations are pointers
// to records that outlive the wait, so handing one to the engine, a
// Pool or a listener stores two words and allocates nothing.
type Event interface {
	Fire()
}

// Func adapts a closure to an Event. A func value is a single pointer,
// so the conversion itself does not allocate.
type Func func()

// Fire calls f.
func (f Func) Fire() { f() }

// timerNode is one scheduled event. Nodes are owned by the engine and
// recycled through a per-engine free list once fired or stopped: a
// paper-scale run schedules millions of events but keeps a bounded set
// pending, so recycling removes nearly every per-event allocation. The
// generation counter invalidates external handles when a node is retired.
// index and far share one word, so a node stays 40 bytes
// (TestTimerNodeLayout).
type timerNode struct {
	at    Time
	index int32 // position in its heap, -1 once fired or stopped
	far   bool  // the far heap holds it, not the near one
	gen   uint64
	ev    Event
}

// heapItem is one heap slot. The ordering key sits beside the node
// pointer so a sift compares slots of one contiguous array instead of
// dereferencing two nodes per comparison; with tens of thousands of
// standing think timers those dereferences were the engine's cost.
type heapItem struct {
	at  Time
	seq uint64
	n   *timerNode
}

// Timer is a generation-checked handle to a scheduled event, returned by
// Engine.Schedule and Engine.At. The zero value is an empty handle:
// Stopped reports true and Stop/Reschedule report false. Handles are
// small values, safe to copy and compare.
//
// Once a timer fires or is stopped, its node returns to the engine's
// free list and may back a later timer; the generation check makes every
// outstanding handle to the retired timer permanently dead, so holding a
// stale handle can never stop, move, or observe the recycled node's new
// occupant.
type Timer struct {
	n   *timerNode
	gen uint64
}

// When reports the virtual time the timer is set to fire at, or zero if
// the timer already fired or was stopped.
func (t Timer) When() Time {
	if t.Stopped() {
		return 0
	}
	return t.n.at
}

// Stopped reports whether the timer has fired or been stopped (true for
// the zero handle).
func (t Timer) Stopped() bool { return t.n == nil || t.gen != t.n.gen || t.n.index == -1 }

// Engine is a discrete-event simulator. The zero value is not ready for
// use; construct one with NewEngine.
type Engine struct {
	now    Time
	near   timerHeap // due within nearHorizon of the clock when scheduled
	far    timerHeap // the rest: think timers, retransmit and recovery waits
	free   FreeList[timerNode]
	seq    uint64
	rng    *rand.Rand
	fired  uint64
	halted bool
}

// NewEngine returns an engine whose clock starts at zero and whose random
// source is a PCG seeded with the two given words. The same seeds replay
// the same run.
func NewEngine(seed1, seed2 uint64) *Engine {
	return &Engine{rng: rand.New(rand.NewPCG(seed1, seed2))}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Fired reports how many events have been dispatched so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports how many timers are currently scheduled.
func (e *Engine) Pending() int { return len(e.near) + len(e.far) }

// Schedule arranges for fn to run after delay of virtual time. A negative
// delay is treated as zero. The returned timer may be stopped before it
// fires.
func (e *Engine) Schedule(delay Time, fn func()) Timer {
	if delay < 0 {
		delay = 0
	}
	return e.At(e.now+delay, fn)
}

// At arranges for fn to run at virtual time t. Times in the past are
// clamped to now.
func (e *Engine) At(t Time, fn func()) Timer {
	if fn == nil {
		panic("sim: At called with nil function")
	}
	return e.AtEvent(t, Func(fn))
}

// ScheduleEvent is Schedule for an event object: ev.Fire runs after
// delay. Scheduling a pointer the caller already holds allocates
// nothing once the engine's node free list has warmed up.
func (e *Engine) ScheduleEvent(delay Time, ev Event) Timer {
	if delay < 0 {
		delay = 0
	}
	return e.AtEvent(e.now+delay, ev)
}

// AtEvent is At for an event object.
func (e *Engine) AtEvent(t Time, ev Event) Timer {
	if ev == nil {
		panic("sim: AtEvent called with nil event")
	}
	if t < e.now {
		t = e.now
	}
	n := e.alloc()
	n.ev = ev
	e.push(n, t)
	return Timer{n: n, gen: n.gen}
}

// Reserve makes room for n more pending timers in one step: the far
// heap's slice grows once instead of by repeated doubling-and-copying,
// and the n timer nodes come from one slab instead of n allocations. A
// caller about to schedule a known, large number of standing events (a
// client group's think timers) calls it first; which node backs which
// timer has no bearing on the order events fire in.
func (e *Engine) Reserve(n int) {
	if n <= 0 {
		return
	}
	e.far = slices.Grow(e.far, n)
	nodes := make([]timerNode, n)
	e.free.items = slices.Grow(e.free.items, n)
	for i := range nodes {
		e.free.items = append(e.free.items, &nodes[i])
	}
}

// Stop cancels a scheduled timer. It reports whether the timer was still
// pending (false if it had already fired or been stopped, and false for
// the zero handle).
func (e *Engine) Stop(t Timer) bool {
	if t.Stopped() {
		return false
	}
	e.heapOf(t.n).remove(int(t.n.index))
	e.recycle(t.n)
	return true
}

// Reschedule moves a pending timer to fire at now+delay. It reports
// whether the timer was still pending and thus moved. The timer leaves
// its heap and re-enters the one its new delay selects, behind every
// event already scheduled for the same instant.
func (e *Engine) Reschedule(t Timer, delay Time) bool {
	if t.Stopped() {
		return false
	}
	if delay < 0 {
		delay = 0
	}
	e.heapOf(t.n).remove(int(t.n.index))
	e.push(t.n, e.now+delay)
	return true
}

// Step dispatches the next pending event, advancing the clock to its
// timestamp. It reports false when no events remain or the engine has
// been halted.
func (e *Engine) Step() bool {
	if e.halted {
		return false
	}
	h := e.next()
	if h == nil {
		return false
	}
	e.fire(h)
	return true
}

// Run dispatches events until the clock would pass until, then sets the
// clock to exactly until. Events scheduled at until itself are dispatched.
func (e *Engine) Run(until Time) {
	for !e.halted {
		h := e.next()
		if h == nil || (*h)[0].at > until {
			break
		}
		e.fire(h)
	}
	if e.now < until {
		e.now = until
	}
}

// RunAll dispatches events until none remain or maxEvents have fired.
// It returns an error if the event budget is exhausted, which usually
// indicates a self-rescheduling loop that was not shut down.
func (e *Engine) RunAll(maxEvents uint64) error {
	start := e.fired
	for e.Step() {
		if e.fired-start >= maxEvents {
			return fmt.Errorf("sim: event budget of %d exhausted at t=%v with %d timers pending",
				maxEvents, e.now, e.Pending())
		}
	}
	return nil
}

// Halt stops the engine: Step and Run become no-ops. Pending timers are
// kept so callers can inspect them.
func (e *Engine) Halt() { e.halted = true }

// Halted reports whether Halt has been called.
func (e *Engine) Halted() bool { return e.halted }

// alloc takes a retired node off the free list, or makes a new one.
func (e *Engine) alloc() *timerNode {
	if n := e.free.Get(); n != nil {
		return n
	}
	return &timerNode{}
}

// recycle retires a fired or stopped node: bumping the generation kills
// every outstanding handle before the node re-enters circulation.
func (e *Engine) recycle(n *timerNode) {
	n.ev = nil
	n.index = -1
	n.gen++
	e.free.Put(n)
}

// Pending events live in two heaps. An event due within nearHorizon of
// the clock at the moment it is scheduled goes to the near heap: the CPU
// bursts, link hops, polls and hand-offs of the requests in flight, a
// few dozen slots that stay in cache. Everything due later goes to the
// far heap: the ~70 000 think timers of a paper-scale run, retransmit
// waits, error recoveries, writeback periods. Nine pops in ten come from
// the near heap and no longer sift through the think timers.
//
// Both heaps are ordered by (at, seq), and the engine fires whichever
// root is smaller. (at, seq) is a total order and each root is the
// minimum of its heap, so the smaller root is the minimum of all pending
// events: the pop sequence is the one a single heap gives, whatever the
// horizon and wherever an event was filed. The horizon decides cost
// only. A far event whose time has come stays where it is and fires
// from the far root; Stop removes a node from the heap its far flag
// names; Reschedule removes it and pushes it, with a fresh seq, into the
// heap its new delay selects.
//
// nearHorizon was picked by a sweep of sim_paper (EXPERIMENTS.md, PR 25):
// 5, 20 and 100 ms run alike; 20 ms holds the near heap to ~200 slots at
// most (~1 000 at 100 ms) and moves only 0.1 % of all pops to the far
// heap. At 1 s thousands of think timers land in the near heap and half
// the gain is lost.
const nearHorizon = 20 * time.Millisecond

// push files n, due at t, under a fresh sequence number in the heap t's
// distance from the clock selects.
func (e *Engine) push(n *timerNode, t Time) {
	e.seq++
	n.at = t
	n.far = t-e.now >= nearHorizon
	e.heapOf(n).push(heapItem{at: t, seq: e.seq, n: n})
}

// heapOf returns the heap holding n.
func (e *Engine) heapOf(n *timerNode) *timerHeap {
	if n.far {
		return &e.far
	}
	return &e.near
}

// next returns the heap whose root fires first, or nil when nothing is
// pending.
func (e *Engine) next() *timerHeap {
	if len(e.far) > 0 && (len(e.near) == 0 || e.far[0].less(&e.near[0])) {
		return &e.far
	}
	if len(e.near) > 0 {
		return &e.near
	}
	return nil
}

// fire pops h's root, advances the clock to it and dispatches it.
func (e *Engine) fire(h *timerHeap) {
	n := h.popMin()
	e.now = n.at
	ev := n.ev
	e.recycle(n)
	e.fired++
	ev.Fire()
}

// timerHeap is a hand-inlined 4-ary min-heap ordered by (at, seq), so
// same-instant events fire in schedule order. Inlining (instead of
// container/heap) removes the interface dispatch on every sift step in
// the engine's hottest loop, and four children per slot halve the levels
// a sift crosses while keeping each level's children in adjacent memory.
// Every move writes the slot's position back into its node, so Stop and
// Reschedule find a node without a search.
type timerHeap []heapItem

const heapArity = 4

func (a *heapItem) less(b *heapItem) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *timerHeap) push(it heapItem) {
	*h = append(*h, it)
	h.up(len(*h) - 1)
}

func (h *timerHeap) popMin() *timerNode {
	s := *h
	n := s[0].n
	last := len(s) - 1
	if last > 0 {
		s[0] = s[last]
		s[0].n.index = 0
	}
	s[last] = heapItem{}
	*h = s[:last]
	if last > 1 {
		h.down(0)
	}
	n.index = -1
	return n
}

// remove deletes the slot at index i.
func (h *timerHeap) remove(i int) {
	s := *h
	last := len(s) - 1
	if i != last {
		s[i] = s[last]
		s[i].n.index = int32(i)
	}
	s[last] = heapItem{}
	*h = s[:last]
	if i != last {
		if !h.down(i) {
			h.up(i)
		}
	}
}

func (h timerHeap) up(i int) {
	it := h[i]
	for i > 0 {
		parent := (i - 1) / heapArity
		if !it.less(&h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].n.index = int32(i)
		i = parent
	}
	h[i] = it
	it.n.index = int32(i)
}

// down sifts the slot at i toward the leaves and reports whether it moved.
func (h timerHeap) down(i0 int) bool {
	it := h[i0]
	i := i0
	size := len(h)
	for {
		first := heapArity*i + 1
		if first >= size {
			break
		}
		end := first + heapArity
		if end > size {
			end = size
		}
		best := first
		for c := first + 1; c < end; c++ {
			if h[c].less(&h[best]) {
				best = c
			}
		}
		if !h[best].less(&it) {
			break
		}
		h[i] = h[best]
		h[i].n.index = int32(i)
		i = best
	}
	h[i] = it
	it.n.index = int32(i)
	return i > i0
}
