package sim

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
	"time"
)

// refEngine is the engine's specification: the pending events in one
// slice kept sorted by (at, seq), fired from the front. It knows nothing
// of heaps, horizons or node recycling.
type refEngine struct {
	now     Time
	seq     uint64
	halted  bool
	pending []refEvent
}

type refEvent struct {
	at  Time
	seq uint64
	id  int
}

func cmpRefEvent(a, b refEvent) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

func (r *refEngine) schedule(id int, delay Time) {
	r.seq++
	ev := refEvent{at: r.now + max(delay, 0), seq: r.seq, id: id}
	i, _ := slices.BinarySearchFunc(r.pending, ev, cmpRefEvent)
	r.pending = slices.Insert(r.pending, i, ev)
}

func (r *refEngine) find(id int) int {
	return slices.IndexFunc(r.pending, func(ev refEvent) bool { return ev.id == id })
}

func (r *refEngine) stop(id int) bool {
	i := r.find(id)
	if i < 0 {
		return false
	}
	r.pending = slices.Delete(r.pending, i, i+1)
	return true
}

func (r *refEngine) reschedule(id int, delay Time) bool {
	if !r.stop(id) {
		return false
	}
	r.schedule(id, delay)
	return true
}

// step pops the first pending event and returns its id, or -1 when
// halted or idle.
func (r *refEngine) step() int {
	if r.halted || len(r.pending) == 0 {
		return -1
	}
	ev := r.pending[0]
	r.pending = slices.Delete(r.pending, 0, 1)
	r.now = ev.at
	return ev.id
}

// diffEvent is what a scripted event does when it fires: schedule its
// children and, for the script's last event, halt the engine.
type diffEvent struct {
	children []diffChild
	halt     bool
}

type diffChild struct {
	id    int
	delay Time
}

// engineDiff drives an Engine and a refEngine through one script in
// lockstep and compares them after every operation.
type engineDiff struct {
	t         *testing.T
	seed      uint64
	rng       *rand.Rand
	e         *Engine
	ref       refEngine
	events    []diffEvent
	timers    []Timer
	protected map[int]bool // events a required op watches: random stops and moves leave them be
	fired     []int        // the engine's fire order since the last check
	firedAt   map[int]int  // id -> position in the whole run's fire order
	when      map[int]Time // check's scratch: pending id -> reference time
	nFired    int
	ops       int
	covered   map[string]int
}

const horizon = nearHorizon

// delay draws from the edges of the horizon and the ranges either side.
func (d *engineDiff) delay() Time {
	switch d.rng.IntN(7) {
	case 0:
		return 0
	case 1:
		return horizon - 1
	case 2:
		return horizon
	case 3:
		return horizon + 1
	case 4:
		return time.Hour + Time(d.rng.Int64N(int64(2*time.Hour)))
	case 5:
		return Time(d.rng.Int64N(int64(horizon)))
	default:
		return horizon + Time(d.rng.Int64N(int64(10*time.Second)))
	}
}

// newEvent makes an event id; events above depth 2 schedule nothing, so
// every script drains.
func (d *engineDiff) newEvent(depth int) int {
	id := len(d.events)
	d.events = append(d.events, diffEvent{})
	d.timers = append(d.timers, Timer{})
	if depth < 3 && d.rng.IntN(4) == 0 {
		for range 1 + d.rng.IntN(2) {
			child := d.newEvent(depth + 1)
			d.events[id].children = append(d.events[id].children, diffChild{id: child, delay: d.delay()})
		}
	}
	return id
}

func (d *engineDiff) fn(id int) func() {
	return func() {
		d.fired = append(d.fired, id)
		for _, c := range d.events[id].children {
			d.timers[c.id] = d.e.Schedule(c.delay, d.fn(c.id))
			d.covered["event schedules event"]++
		}
		if d.events[id].halt {
			d.e.Halt()
		}
	}
}

// refFire applies a fired event's action to the reference.
func (d *engineDiff) refFire(id int, out *[]int) {
	*out = append(*out, id)
	for _, c := range d.events[id].children {
		d.ref.schedule(c.id, c.delay)
	}
	if d.events[id].halt {
		d.ref.halted = true
	}
}

func (d *engineDiff) schedule(delay Time) int {
	id := d.newEvent(0)
	d.timers[id] = d.e.Schedule(delay, d.fn(id))
	d.ref.schedule(id, delay)
	switch {
	case delay == 0, delay == horizon-1, delay == horizon, delay == horizon+1:
		d.covered[fmt.Sprintf("schedule at %v", delay)]++
	case delay >= time.Hour:
		d.covered["schedule hours ahead"]++
	}
	d.check(nil)
	return id
}

func (d *engineDiff) stop(id int) {
	where := d.heapName(id)
	got, want := d.e.Stop(d.timers[id]), d.ref.stop(id)
	if got != want {
		d.fail("Stop(%d) = %v, reference %v", id, got, want)
	}
	if got {
		d.covered["stop in "+where]++
	}
	d.check(nil)
}

func (d *engineDiff) reschedule(id int, delay Time) {
	from := d.heapName(id)
	got, want := d.e.Reschedule(d.timers[id], delay), d.ref.reschedule(id, delay)
	if got != want {
		d.fail("Reschedule(%d, %v) = %v, reference %v", id, delay, got, want)
	}
	if got {
		d.covered["reschedule "+from+"→"+d.heapName(id)]++
	}
	d.check(nil)
}

func (d *engineDiff) step() {
	got := d.e.Step()
	var want []int
	if id := d.ref.step(); id >= 0 {
		d.refFire(id, &want)
	}
	if got != (len(want) > 0) {
		d.fail("Step() = %v, reference fired %v", got, want)
	}
	d.check(want)
}

func (d *engineDiff) run(until Time) {
	d.e.Run(until)
	var want []int
	for !d.ref.halted && len(d.ref.pending) > 0 && d.ref.pending[0].at <= until {
		d.refFire(d.ref.step(), &want)
	}
	d.ref.now = max(d.ref.now, until)
	d.check(want)
}

// heapName names the heap holding a pending timer ("near" or "far"), or
// "none".
func (d *engineDiff) heapName(id int) string {
	switch tm := d.timers[id]; {
	case tm.Stopped():
		return "none"
	case tm.n.far:
		return "far"
	default:
		return "near"
	}
}

func (d *engineDiff) expectHeap(id int, heap string) {
	if got := d.heapName(id); got != heap {
		d.fail("timer %d due at %v (now %v) is in the %s heap, want %s",
			id, d.timers[id].When(), d.e.Now(), got, heap)
	}
}

// pick returns a random pending id in the named heap, or -1.
func (d *engineDiff) pick(heap string) int {
	var ids []int
	for _, ev := range d.ref.pending {
		if !d.protected[ev.id] && d.heapName(ev.id) == heap {
			ids = append(ids, ev.id)
		}
	}
	if len(ids) == 0 {
		return -1
	}
	return ids[d.rng.IntN(len(ids))]
}

// check compares fire order since the last check, the clock, the
// pending count and every handle ever issued.
func (d *engineDiff) check(want []int) {
	d.ops++
	if !slices.Equal(d.fired, want) {
		d.fail("fired %v, reference %v", d.fired, want)
	}
	for _, id := range d.fired {
		d.firedAt[id] = d.nFired
		d.nFired++
	}
	d.fired = d.fired[:0]
	if d.e.Now() != d.ref.now {
		d.fail("Now() = %v, reference %v", d.e.Now(), d.ref.now)
	}
	if d.e.Pending() != len(d.ref.pending) {
		d.fail("Pending() = %d, reference %d", d.e.Pending(), len(d.ref.pending))
	}
	clear(d.when)
	for _, ev := range d.ref.pending {
		d.when[ev.id] = ev.at
	}
	for id, tm := range d.timers {
		when, pending := d.when[id]
		if tm.Stopped() == pending || tm.When() != when {
			d.fail("timer %d: Stopped() = %v, When() = %v; reference pending = %v at %v",
				id, tm.Stopped(), tm.When(), pending, when)
		}
	}
}

func (d *engineDiff) fail(format string, args ...any) {
	d.t.Helper()
	d.t.Fatalf("seed %d, op %d: %s", d.seed, d.ops, fmt.Sprintf(format, args...))
}

// op is one scripted operation.
type op func(d *engineDiff)

// requiredOps are the operations every script contains at least once.
var requiredOps = []op{
	func(d *engineDiff) { d.schedule(0) },
	func(d *engineDiff) { d.expectHeap(d.schedule(horizon-1), "near") },
	func(d *engineDiff) { d.expectHeap(d.schedule(horizon), "far") },
	func(d *engineDiff) { d.schedule(horizon + 1) },
	func(d *engineDiff) { d.schedule(3 * time.Hour) },
	// Stop in each heap, and a move each way across the horizon.
	func(d *engineDiff) { d.stop(d.schedule(horizon - 1)) },
	func(d *engineDiff) { d.stop(d.schedule(horizon)) },
	func(d *engineDiff) { d.reschedule(d.schedule(0), 2*time.Hour) },
	func(d *engineDiff) { d.reschedule(d.schedule(time.Hour), horizon-1) },
	// A tie split across the heaps: an older far event and a newer near
	// event due at one instant. The far one must fire first.
	func(d *engineDiff) {
		at := d.ref.now + horizon + Time(d.rng.Int64N(int64(horizon)))
		older := d.schedule(at - d.ref.now)
		d.run(at - horizon/2)
		newer := d.schedule(at - d.ref.now)
		if d.heapName(older) != "far" || d.heapName(newer) != "near" {
			d.fail("tie filed in %s and %s heaps, want far and near", d.heapName(older), d.heapName(newer))
		}
		d.protected[older], d.protected[newer] = true, true
		d.run(at)
		o, okO := d.firedAt[older]
		n, okN := d.firedAt[newer]
		if !okO || !okN || o > n {
			d.fail("tie at %v: the older far event fired at %d (%v), the newer near one at %d (%v)",
				at, o, okO, n, okN)
		}
		d.covered["tie across heaps"]++
	},
	// A move onto the instant of a newer event: the moved timer takes a
	// fresh seq, so it fires second.
	func(d *engineDiff) {
		old := d.schedule(2 * time.Hour)
		newer := d.schedule(horizon / 3)
		d.reschedule(old, horizon/3)
		d.protected[old], d.protected[newer] = true, true
	},
	// An event whose firing schedules more events.
	func(d *engineDiff) {
		id := d.schedule(horizon / 4)
		d.events[id].children = append(d.events[id].children,
			diffChild{id: d.newEvent(1), delay: horizon}, diffChild{id: d.newEvent(1), delay: 0})
		d.protected[id] = true
	},
	// Run exactly to the next root's time.
	func(d *engineDiff) {
		if len(d.ref.pending) == 0 {
			d.schedule(d.delay())
		}
		d.run(d.ref.pending[0].at)
		d.covered["run to a root's time"]++
	},
}

// randomOp is one of the operations that fill a script.
func randomOp(d *engineDiff) {
	switch d.rng.IntN(8) {
	case 0, 1:
		d.schedule(d.delay())
	case 2:
		d.step()
	case 3:
		d.run(d.ref.now + Time(d.rng.Int64N(int64(3*horizon))))
	case 4:
		if id := d.pick([]string{"near", "far"}[d.rng.IntN(2)]); id >= 0 {
			d.stop(id)
		}
	case 5:
		if id := d.pick([]string{"near", "far"}[d.rng.IntN(2)]); id >= 0 {
			d.reschedule(id, d.delay())
		}
	case 6: // a handle that fired or was stopped: both must refuse it
		if len(d.timers) == 0 {
			return
		}
		if id := d.rng.IntN(len(d.timers)); d.heapName(id) == "none" {
			d.stop(id)
			d.reschedule(id, d.delay())
		}
	default:
		d.run(d.ref.now + time.Hour)
	}
}

// runScript plays one seeded script: the required operations and 80
// random ones in a random order, then a halt from inside an event, then
// operations against the halted engine.
func runScript(t *testing.T, seed uint64) map[string]int {
	d := &engineDiff{
		t:         t,
		seed:      seed,
		rng:       rand.New(rand.NewPCG(seed, 0x5eed)),
		e:         NewEngine(1, 2),
		protected: map[int]bool{},
		firedAt:   map[int]int{},
		when:      map[int]Time{},
		covered:   map[string]int{},
	}
	script := slices.Clone(requiredOps)
	for range 80 {
		script = append(script, randomOp)
	}
	d.rng.Shuffle(len(script), func(i, j int) { script[i], script[j] = script[j], script[i] })
	for _, o := range script {
		o(d)
	}

	halter := d.schedule(horizon / 2)
	d.events[halter].halt = true
	d.schedule(horizon / 2) // same instant, after the halter: must not fire
	d.run(d.ref.now + 4*time.Hour)
	if !d.e.Halted() {
		d.fail("the halting event did not halt the engine")
	}
	d.covered["halt"]++
	d.step()
	d.run(d.ref.now + time.Hour)
	d.reschedule(d.schedule(0), time.Hour)
	d.stop(d.schedule(time.Hour))
	return d.covered
}

// TestEngineDifferential replays seeded random scripts through the
// engine and through refEngine, a sorted-slice specification, and
// compares fire order, Now, Pending, and Stopped/When of every handle
// after every operation. It complements TestQuickHeapOrdering and
// TestQuickHeapRemoval with Stop and Reschedule across the near/far
// split and the horizon's edges.
func TestEngineDifferential(t *testing.T) {
	scripts := 2000
	if testing.Short() {
		scripts = 300
	}
	want := []string{
		"schedule at 0s",
		fmt.Sprintf("schedule at %v", horizon-1),
		fmt.Sprintf("schedule at %v", horizon),
		fmt.Sprintf("schedule at %v", horizon+1),
		"schedule hours ahead", "stop in near", "stop in far", "reschedule near→far", "reschedule far→near",
		"tie across heaps", "run to a root's time", "halt", "event schedules event",
	}
	for seed := range uint64(scripts) {
		covered := runScript(t, seed)
		for _, k := range want {
			if covered[k] == 0 {
				t.Fatalf("seed %d: script never covered %q (covered: %v)", seed, k, covered)
			}
		}
	}
}
