// Package sim provides a deterministic discrete-event simulation engine:
// a virtual clock, cancellable timers, a seeded random source, and
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
	mbits "math/bits"
	"math/rand/v2"
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

// timerNode is one scheduled event. Most nodes are owned by the engine
// and recycled through a per-engine free list once fired or stopped: a
// paper-scale run schedules millions of events but keeps a bounded set
// pending, so recycling removes nearly every per-event allocation. A
// long-lived record may own its node instead (TimerNode), which then
// never enters the free list. The generation counter invalidates
// external handles when a node is retired. A node carries its own (at,
// seq) key and a link because the wheel files it in an unsorted slot
// list; index, where and owned share one word, so a node is 56 bytes
// (TestTimerNodeLayout).
type timerNode struct {
	at    Time
	seq   uint64 // schedule order, which breaks ties at one instant
	gen   uint64
	ev    Event      // set while pending
	next  *timerNode // the next node in its wheel slot
	index int32      // position in its heap, -1 once fired or stopped
	where place      // the structure holding it
	owned bool       // embedded in a caller's record, never on the free list
}

// TimerNode is a timer node that a long-lived record embeds, so that the
// record is its own timer: arming it with Engine.Arm takes nothing from
// the engine's free list, and the record and its node share cache lines.
// A record re-armed for its whole life — a closed-loop client thinking
// between requests — uses one. The zero value is ready to arm.
type TimerNode struct {
	n timerNode
}

// place names the structure a pending node is filed in.
type place uint8

const (
	inNear place = iota
	inL0
	inL1
	inOverflow
)

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
// free list, or stays with the record that owns it, and may back a later
// timer; the generation check makes every outstanding handle to the
// retired timer permanently dead, so holding a stale handle can never
// stop, move, or observe the recycled node's new occupant.
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
	near   timerHeap // every event due before the cursor
	over   timerHeap // events due beyond the wheel's last L1 slot
	free   FreeList[timerNode]
	seq    uint64
	rng    *rand.Rand
	fired  uint64
	halted bool

	// The wheel. cur0 is the cursor, counted in L0 slots: every event in
	// an L0 slot before it has moved to the near heap. cur1 is the L1
	// slot L0 spans; L1 holds the l1Slots-1 slots after it.
	cur0, cur1 int64
	n0, n1     int // events filed in L0 and in L1
	l0         [l0Slots]*timerNode
	l1         [l1Slots]*timerNode
	bits0      [l0Slots / 64]uint64 // the non-empty L0 slots
	bits1      [l1Slots / 64]uint64 // the non-empty L1 slots
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
func (e *Engine) Pending() int { return len(e.near) + e.n0 + e.n1 + len(e.over) }

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

// Arm schedules ev to fire after delay on a node the caller owns. The
// node is pending from Arm until it fires or is stopped; arming it again
// meanwhile panics. Its handles are generation-checked like any timer's,
// so a handle from an earlier arming is dead once that arming ended.
func (e *Engine) Arm(tn *TimerNode, delay Time, ev Event) Timer {
	if ev == nil {
		panic("sim: Arm called with nil event")
	}
	n := &tn.n
	if n.ev != nil {
		panic("sim: Arm called on a pending node")
	}
	if delay < 0 {
		delay = 0
	}
	n.owned = true
	n.ev = ev
	e.push(n, e.now+delay)
	return Timer{n: n, gen: n.gen}
}

// Stop cancels a scheduled timer. It reports whether the timer was still
// pending (false if it had already fired or been stopped, and false for
// the zero handle).
func (e *Engine) Stop(t Timer) bool {
	if t.Stopped() {
		return false
	}
	e.unfile(t.n)
	e.recycle(t.n)
	return true
}

// Reschedule moves a pending timer to fire at now+delay. It reports
// whether the timer was still pending and thus moved. The timer leaves
// its place and is filed anew under a fresh sequence number, behind every
// event already scheduled for the same instant.
func (e *Engine) Reschedule(t Timer, delay Time) bool {
	if t.Stopped() {
		return false
	}
	if delay < 0 {
		delay = 0
	}
	e.unfile(t.n)
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
	if !e.next() {
		return false
	}
	e.fire()
	return true
}

// Run dispatches events until the clock would pass until, then sets the
// clock to exactly until. Events scheduled at until itself are dispatched.
func (e *Engine) Run(until Time) {
	for !e.halted {
		if !e.next() || e.near[0].at > until {
			break
		}
		e.fire()
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
// every outstanding handle before the node re-enters circulation. An
// owned node stays with its record.
func (e *Engine) recycle(n *timerNode) {
	n.ev = nil
	n.index = -1
	n.gen++
	if !n.owned {
		e.free.Put(n)
	}
}

// Pending events live in a near heap, a two-level timing wheel and an
// overflow heap. The wheel's cursor splits time: every event due before
// it is in the near heap, every other event is in the wheel or the
// overflow heap. So the near root, when there is one, is the minimum of
// all pending events, and the engine fires from the near heap alone.
//
// L0 has l0Slots slots of 2^l0Shift ns (16.4 µs) and spans one L1 slot;
// L1 has l1Slots slots of 2^l1Shift ns (4.19 ms), about 17.2 s in all;
// anything due later waits in the overflow heap. A slot is an unsorted
// list through the nodes. When the near heap empties, the cursor moves
// to the next non-empty L0 slot and pushes its events into the near heap
// with the seq they were scheduled under, so the pop sequence is the
// (at, seq) order a single heap gives, wherever an event was filed. When
// L0 is empty, the next non-empty L1 slot cascades into L0, or, with
// both levels empty, L0 jumps to the overflow root's L1 slot; each time
// the overflow heap then hands the wheel whatever has come within
// reach. Times are compared as slot numbers, never as slot ends in
// nanoseconds, which would overflow near the top of the time range.
//
// The near heap thus holds about one L0 slot of events — the CPU
// bursts, link hops, polls and hand-offs of the requests in flight, 2.6
// at a sim_paper pop on average, 19 at most — and a sift crosses a level
// or two. The ~70 000 think timers of a paper-scale run, nodes their
// clients own, cost a list push and a cascade each. Stop unlinks a wheel
// node by walking its slot; at paper scale it passes 0.9 nodes in L0 and
// 2.7 in L1 on average. The slot width was picked by a sweep of
// sim_paper (docs/bench-history.md, "a timing wheel under the near
// heap"): 2^14 ns ties 2^12, whose L1 needs four times the slots for the
// same reach, and beats 2^16 and 2^18.
const (
	l0Shift = 14
	l0Bits  = 8
	l0Slots = 1 << l0Bits
	l1Shift = l0Shift + l0Bits
	l1Bits  = 12
	l1Slots = 1 << l1Bits
)

// push files n, due at t, under a fresh sequence number.
func (e *Engine) push(n *timerNode, t Time) {
	e.seq++
	n.at = t
	n.seq = e.seq
	e.file(n)
}

// file puts n where its due time belongs relative to the cursor.
func (e *Engine) file(n *timerNode) {
	s := int64(n.at) >> l0Shift
	switch {
	case s < e.cur0:
		n.where = inNear
		e.near.push(heapItem{at: n.at, seq: n.seq, n: n})
	case s>>l0Bits == e.cur1:
		n.where = inL0
		n.index = 0
		link(e.l0[:], e.bits0[:], int(s&(l0Slots-1)), n)
		e.n0++
	case s>>l0Bits-e.cur1 < l1Slots:
		n.where = inL1
		n.index = 0
		link(e.l1[:], e.bits1[:], int(s>>l0Bits&(l1Slots-1)), n)
		e.n1++
	default:
		n.where = inOverflow
		e.over.push(heapItem{at: n.at, seq: n.seq, n: n})
	}
}

// unfile takes a pending n out of the structure holding it.
func (e *Engine) unfile(n *timerNode) {
	s := int64(n.at) >> l0Shift
	switch n.where {
	case inNear:
		e.near.remove(int(n.index))
	case inL0:
		unlink(e.l0[:], e.bits0[:], int(s&(l0Slots-1)), n)
		e.n0--
	case inL1:
		unlink(e.l1[:], e.bits1[:], int(s>>l0Bits&(l1Slots-1)), n)
		e.n1--
	default:
		e.over.remove(int(n.index))
	}
}

// next reports whether an event is pending, refilling the near heap from
// the wheel if it is empty.
func (e *Engine) next() bool {
	if len(e.near) == 0 {
		e.advance()
	}
	return len(e.near) > 0
}

// advance moves the cursor past the next non-empty L0 slot and pushes the
// slot's events into the near heap, cascading L1 into L0 and refilling
// the wheel from the overflow heap as the cursor reaches them.
func (e *Engine) advance() {
	for {
		if e.n0 > 0 {
			i := nextSet(e.bits0[:], int(e.cur0&(l0Slots-1)))
			e.cur0 = (e.cur1<<l0Bits | int64(i)) + 1
			for n := take(e.l0[:], e.bits0[:], i); n != nil; {
				next := n.next
				n.next = nil
				n.where = inNear
				e.near.push(heapItem{at: n.at, seq: n.seq, n: n})
				e.n0--
				n = next
			}
			return
		}
		switch {
		case e.n1 > 0:
			i := nextSet(e.bits1[:], int((e.cur1+1)&(l1Slots-1)))
			e.cur1 += (int64(i) - e.cur1) & (l1Slots - 1)
		case len(e.over) > 0:
			e.cur1 = int64(e.over[0].at) >> l1Shift
		default:
			return
		}
		e.cur0 = e.cur1 << l0Bits
		for n := take(e.l1[:], e.bits1[:], int(e.cur1&(l1Slots-1))); n != nil; {
			next := n.next
			n.next = nil
			e.n1--
			e.file(n)
			n = next
		}
		for len(e.over) > 0 && int64(e.over[0].at)>>l1Shift-e.cur1 < l1Slots {
			e.file(e.over.popMin())
		}
	}
}

// link adds n to the list of slot i.
func link(heads []*timerNode, bits []uint64, i int, n *timerNode) {
	n.next = heads[i]
	heads[i] = n
	bits[i>>6] |= 1 << (i & 63)
}

// unlink removes n from the list of slot i, which holds it.
func unlink(heads []*timerNode, bits []uint64, i int, n *timerNode) {
	p := &heads[i]
	for *p != n {
		p = &(*p).next
	}
	*p = n.next
	n.next = nil
	if heads[i] == nil {
		bits[i>>6] &^= 1 << (i & 63)
	}
}

// take empties slot i and returns its list.
func take(heads []*timerNode, bits []uint64, i int) *timerNode {
	n := heads[i]
	heads[i] = nil
	bits[i>>6] &^= 1 << (i & 63)
	return n
}

// nextSet returns the first set bit at or after i, wrapping around the
// end; the caller knows one is set.
func nextSet(bits []uint64, i int) int {
	w := i >> 6
	if b := bits[w] >> (i & 63); b != 0 {
		return i + mbits.TrailingZeros64(b)
	}
	for k := 1; k <= len(bits); k++ {
		j := (w + k) % len(bits)
		if bits[j] != 0 {
			return j<<6 + mbits.TrailingZeros64(bits[j])
		}
	}
	panic("sim: no pending slot in a non-empty wheel level")
}

// fire pops the near root, advances the clock to it and dispatches it.
func (e *Engine) fire() {
	n := e.near.popMin()
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
