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
type timerNode struct {
	at    Time
	index int // position in the heap, -1 once fired or stopped
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
	heap   []heapItem
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
func (e *Engine) Pending() int { return len(e.heap) }

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
	e.seq++
	n := e.alloc()
	n.at = t
	n.ev = ev
	n.index = len(e.heap)
	e.heap = append(e.heap, heapItem{at: t, seq: e.seq, n: n})
	e.up(n.index)
	return Timer{n: n, gen: n.gen}
}

// Reserve makes room for n more pending timers in one step: the heap
// slice grows once instead of by repeated doubling-and-copying, and the
// n timer nodes come from one slab instead of n allocations. A caller
// about to schedule a known, large number of standing events (a client
// group's think timers) calls it first; which node backs which timer has
// no bearing on the order events fire in.
func (e *Engine) Reserve(n int) {
	if n <= 0 {
		return
	}
	e.heap = slices.Grow(e.heap, n)
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
	e.remove(t.n.index)
	e.recycle(t.n)
	return true
}

// Reschedule moves a pending timer to fire at now+delay. It reports
// whether the timer was still pending and thus moved.
func (e *Engine) Reschedule(t Timer, delay Time) bool {
	if t.Stopped() {
		return false
	}
	if delay < 0 {
		delay = 0
	}
	n := t.n
	n.at = e.now + delay
	e.seq++
	e.heap[n.index].at, e.heap[n.index].seq = n.at, e.seq
	if !e.down(n.index) {
		e.up(n.index)
	}
	return true
}

// Step dispatches the next pending event, advancing the clock to its
// timestamp. It reports false when no events remain or the engine has
// been halted.
func (e *Engine) Step() bool {
	if e.halted || len(e.heap) == 0 {
		return false
	}
	n := e.popMin()
	e.now = n.at
	ev := n.ev
	e.recycle(n)
	e.fired++
	ev.Fire()
	return true
}

// Run dispatches events until the clock would pass until, then sets the
// clock to exactly until. Events scheduled at until itself are dispatched.
func (e *Engine) Run(until Time) {
	for !e.halted && len(e.heap) > 0 && e.heap[0].at <= until {
		e.Step()
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
				maxEvents, e.now, len(e.heap))
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

// The heap below is a hand-inlined 4-ary min-heap ordered by (at, seq),
// so same-instant events fire in schedule order; (at, seq) is a total
// order, so the pop sequence does not depend on the heap's shape.
// Inlining (instead of container/heap) removes the interface dispatch on
// every sift step in the engine's hottest loop, and four children per
// slot halve the levels a sift crosses at paper scale (~70 000 standing
// timers) while keeping each level's children in adjacent memory.

const heapArity = 4

func (a *heapItem) less(b *heapItem) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (e *Engine) popMin() *timerNode {
	n := e.heap[0].n
	last := len(e.heap) - 1
	if last > 0 {
		e.heap[0] = e.heap[last]
		e.heap[0].n.index = 0
	}
	e.heap[last] = heapItem{}
	e.heap = e.heap[:last]
	if last > 1 {
		e.down(0)
	}
	n.index = -1
	return n
}

// remove deletes the node at heap index i.
func (e *Engine) remove(i int) {
	last := len(e.heap) - 1
	if i != last {
		e.heap[i] = e.heap[last]
		e.heap[i].n.index = i
	}
	e.heap[last] = heapItem{}
	e.heap = e.heap[:last]
	if i != last {
		if !e.down(i) {
			e.up(i)
		}
	}
}

func (e *Engine) up(i int) {
	it := e.heap[i]
	for i > 0 {
		parent := (i - 1) / heapArity
		if !it.less(&e.heap[parent]) {
			break
		}
		e.heap[i] = e.heap[parent]
		e.heap[i].n.index = i
		i = parent
	}
	e.heap[i] = it
	it.n.index = i
}

// down sifts the node at i toward the leaves and reports whether it moved.
func (e *Engine) down(i0 int) bool {
	it := e.heap[i0]
	i := i0
	size := len(e.heap)
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
			if e.heap[c].less(&e.heap[best]) {
				best = c
			}
		}
		if !e.heap[best].less(&it) {
			break
		}
		e.heap[i] = e.heap[best]
		e.heap[i].n.index = i
		i = best
	}
	e.heap[i] = it
	it.n.index = i
	return i > i0
}
