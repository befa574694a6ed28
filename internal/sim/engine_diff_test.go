package sim

import (
	"cmp"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"time"
)

// refEngine is the engine's specification: the pending events in one
// slice kept sorted by (at, seq), fired from the front. It knows nothing
// of heaps, wheels or node recycling.
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
	placed    map[int]place
	cursor    int64 // the cursor at the last check: it never moves back
	nFired    int
	ops       int
	covered   map[string]int
}

// l1Span is the time the L1 level reaches: its slots times their width.
const l1Span = Time(1) << (l1Shift + l1Bits)

// boundaryDelays sit on either side of each level's slot width and span.
var boundaryDelays = []Time{
	0,
	1<<l0Shift - 1, 1 << l0Shift, 1<<l0Shift + 1,
	1<<l1Shift - 1, 1 << l1Shift, 1<<l1Shift + 1,
	l1Span - 1, l1Span, l1Span + 1,
}

var placeNames = [...]string{inNear: "near", inL0: "L0", inL1: "L1", inOverflow: "overflow"}

// edges are the times at which the wheel's placement changes: the
// cursor, the end of the L1 slot L0 spans, and the end of L1's window.
func (d *engineDiff) edges() (cursor, l0End, window Time) {
	return Time(d.e.cur0 << l0Shift), Time((d.e.cur1 + 1) << l1Shift), Time((d.e.cur1 + l1Slots) << l1Shift)
}

// span returns the times [lo, hi) that the wheel's invariant files in p:
// before the cursor in the near heap, after it L0 to the end of its L1
// slot, then L1 to the end of its window, then overflow.
func (d *engineDiff) span(p place) (lo, hi Time) {
	cursor, l0End, window := d.edges()
	switch p {
	case inNear:
		return 0, cursor
	case inL0:
		return cursor, l0End
	case inL1:
		return l0End, window
	default:
		return window, math.MaxInt64
	}
}

// placeFor is where the invariant files an event due at t.
func (d *engineDiff) placeFor(t Time) place {
	for _, p := range []place{inNear, inL0, inL1} {
		if lo, hi := d.span(p); lo <= t && t < hi {
			return p
		}
	}
	return inOverflow
}

// room returns the times a new event can take in p: [lo, hi), empty when
// the cursor leaves p no time at or after the clock.
func (d *engineDiff) room(p place) (lo, hi Time) {
	lo, hi = d.span(p)
	return max(lo, d.ref.now), hi
}

// delayInto returns a delay that files a new event in p, which must have
// room.
func (d *engineDiff) delayInto(p place) Time {
	lo, hi := d.room(p)
	if lo >= hi {
		d.fail("no room in %s: span %v..%v at %v", placeNames[p], lo, hi, d.ref.now)
	}
	if p == inOverflow {
		hi = lo + 2*time.Hour
	}
	return lo + Time(d.rng.Int64N(int64(hi-lo))) - d.ref.now
}

// sync schedules an event for now and steps once. The step fires an
// event due now, so the cursor ends past the clock's slot, with the near
// heap and all of L1's window ahead of the clock.
func (d *engineDiff) sync() {
	d.schedule(0)
	d.step()
}

// ready makes room in p.
func (d *engineDiff) ready(p place) {
	if lo, hi := d.room(p); lo < hi {
		return
	}
	if p == inL0 {
		// L0 is used up: run to just before an anchor early in the next
		// L1 slot, so the cursor stops right behind the anchor with the
		// rest of that slot ahead of it in L0.
		cursor, _, _ := d.edges()
		from := max(d.ref.now, cursor)
		at := (from>>l1Shift+1)<<l1Shift + 3<<l0Shift + 5
		d.schedule(at - d.ref.now)
		d.run(at - 1)
	} else {
		d.sync()
	}
	if lo, hi := d.room(p); lo >= hi {
		d.fail("no room in %s after making some: span %v..%v at %v", placeNames[p], lo, hi, d.ref.now)
	}
}

// makeIn schedules a new event that the wheel files in p.
func (d *engineDiff) makeIn(p place) int {
	d.ready(p)
	id := d.schedule(d.delayInto(p))
	d.expectPlace(id, p)
	return id
}

// move reschedules an event made in from into to.
func (d *engineDiff) move(from, to place) {
	d.ready(to)
	id := d.makeIn(from)
	d.reschedule(id, d.delayInto(to))
	d.expectPlace(id, to)
}

// delay draws from the levels' boundaries, the cursor's edges and the
// ranges between them.
func (d *engineDiff) delay() Time {
	switch d.rng.IntN(7) {
	case 0:
		return boundaryDelays[d.rng.IntN(len(boundaryDelays))]
	case 1:
		cursor, l0End, window := d.edges()
		edge := []Time{cursor - 1, cursor, l0End, window - 1, window}[d.rng.IntN(5)]
		return max(edge-d.ref.now, 0)
	case 2:
		return time.Hour + Time(d.rng.Int64N(int64(2*time.Hour)))
	case 3:
		return Time(d.rng.Int64N(1 << l0Shift))
	case 4:
		return Time(d.rng.Int64N(1 << l1Shift))
	case 5:
		return Time(d.rng.Int64N(int64(l1Span)))
	default:
		return l1Span + Time(d.rng.Int64N(int64(10*time.Second)))
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
	at := d.ref.now + delay
	cursor, _, window := d.edges()
	id := d.newEvent(0)
	d.timers[id] = d.e.Schedule(delay, d.fn(id))
	d.ref.schedule(id, delay)
	if slices.Contains(boundaryDelays, delay) {
		d.covered[fmt.Sprintf("schedule at %v", delay)]++
	}
	if delay >= time.Hour {
		d.covered["schedule hours ahead"]++
	}
	switch {
	case at == cursor-1:
		d.covered["schedule just before the cursor"]++
	case at == cursor:
		d.covered["schedule at the cursor"]++
	case at == window-1:
		d.covered["schedule just before the window's end"]++
	case at == window:
		d.covered["schedule at the window's end"]++
	}
	d.check(nil)
	return id
}

func (d *engineDiff) stop(id int) {
	where := d.placeName(id)
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
	from := d.placeName(id)
	got, want := d.e.Reschedule(d.timers[id], delay), d.ref.reschedule(id, delay)
	if got != want {
		d.fail("Reschedule(%d, %v) = %v, reference %v", id, delay, got, want)
	}
	if got {
		d.covered["reschedule "+from+"→"+d.placeName(id)]++
		d.placed[id] = d.timers[id].n.where // a move, not the wheel's
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

// stepUntil steps until cond holds; the reference must run dry first if
// it never does.
func (d *engineDiff) stepUntil(cond func() bool) {
	for !cond() {
		if len(d.ref.pending) == 0 {
			d.fail("ran dry before the awaited state")
		}
		d.step()
	}
}

// placeName names where a pending timer is filed ("near", "L0", "L1" or
// "overflow"), or "none".
func (d *engineDiff) placeName(id int) string {
	if tm := d.timers[id]; !tm.Stopped() {
		return placeNames[tm.n.where]
	}
	return "none"
}

func (d *engineDiff) expectPlace(id int, p place) {
	if got := d.placeName(id); got != placeNames[p] {
		d.fail("timer %d due at %v (now %v) is in %s, want %s",
			id, d.timers[id].When(), d.e.Now(), got, placeNames[p])
	}
}

func (d *engineDiff) done(id int) bool {
	_, ok := d.firedAt[id]
	return ok
}

// pick returns a random pending id in the named place, or -1.
func (d *engineDiff) pick(where string) int {
	var ids []int
	for _, ev := range d.ref.pending {
		if !d.protected[ev.id] && d.placeName(ev.id) == where {
			ids = append(ids, ev.id)
		}
	}
	if len(ids) == 0 {
		return -1
	}
	return ids[d.rng.IntN(len(ids))]
}

// check compares fire order since the last check, the clock, the
// pending count and every handle ever issued; it checks that the cursor
// has not moved back and that every pending event is filed where the
// wheel's invariant says, and counts the moves the wheel made.
func (d *engineDiff) check(want []int) {
	d.ops++
	if !slices.Equal(d.fired, want) {
		d.fail("fired %v, reference %v", d.fired, want)
	}
	for _, id := range d.fired {
		d.firedAt[id] = d.nFired
		d.nFired++
		delete(d.placed, id)
	}
	d.fired = d.fired[:0]
	if d.e.Now() != d.ref.now {
		d.fail("Now() = %v, reference %v", d.e.Now(), d.ref.now)
	}
	if d.e.Pending() != len(d.ref.pending) {
		d.fail("Pending() = %d, reference %d", d.e.Pending(), len(d.ref.pending))
	}
	if d.e.cur0 < d.cursor {
		d.fail("the cursor moved back from slot %d to %d", d.cursor, d.e.cur0)
	}
	d.cursor = d.e.cur0
	clear(d.when)
	for _, ev := range d.ref.pending {
		d.when[ev.id] = ev.at
		n := d.timers[ev.id].n
		if want := d.placeFor(ev.at); n.where != want {
			d.fail("timer %d due at %v is in %s, the cursor at %v files it in %s",
				ev.id, ev.at, placeNames[n.where], Time(d.e.cur0<<l0Shift), placeNames[want])
		}
		if prev, ok := d.placed[ev.id]; ok && prev != n.where {
			d.covered["wheel "+placeNames[prev]+"→"+placeNames[n.where]]++
		}
		d.placed[ev.id] = n.where
	}
	for id, tm := range d.timers {
		when, pending := d.when[id]
		if tm.Stopped() == pending || tm.When() != when {
			d.fail("timer %d: Stopped() = %v, When() = %v; reference pending = %v at %v",
				id, tm.Stopped(), tm.When(), pending, when)
		}
		if !pending {
			delete(d.placed, id)
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
	// Each boundary delay, and a schedule hours ahead.
	func(d *engineDiff) {
		for _, delay := range boundaryDelays {
			d.schedule(delay)
		}
	},
	func(d *engineDiff) { d.schedule(3 * time.Hour) },
	// Each side of the cursor and of L1's window's end.
	func(d *engineDiff) {
		d.ready(inNear)
		cursor, _, window := d.edges()
		d.expectPlace(d.schedule(cursor-1-d.ref.now), inNear)
		d.schedule(cursor - d.ref.now)
		d.expectPlace(d.schedule(window-1-d.ref.now), inL1)
		d.expectPlace(d.schedule(window-d.ref.now), inOverflow)
	},
	// Stop in each place.
	func(d *engineDiff) { d.stop(d.makeIn(inNear)) },
	func(d *engineDiff) { d.stop(d.makeIn(inL0)) },
	func(d *engineDiff) { d.stop(d.makeIn(inL1)) },
	func(d *engineDiff) { d.stop(d.makeIn(inOverflow)) },
	// Reschedule out of each place.
	func(d *engineDiff) { d.move(inNear, inOverflow) },
	func(d *engineDiff) { d.move(inOverflow, inNear) },
	func(d *engineDiff) { d.move(inL0, inL1) },
	func(d *engineDiff) { d.move(inL1, inL0) },
	// An L1→L0 cascade: an event and a later pair in one L1 slot, five
	// L0 slots apart. When the slot cascades, the first event goes on to
	// the near heap and the pair waits in L0; when the pair's slot comes,
	// both enter the near heap and fire one per step.
	func(d *engineDiff) {
		d.sync()
		lo, _ := d.room(inL1)
		start := (lo + 1<<l1Shift - 1) >> l1Shift << l1Shift
		first := d.schedule(start + Time(d.rng.Int64N(1<<l0Shift)) - d.ref.now)
		at := start + 5<<l0Shift + Time(d.rng.Int64N(1<<l0Shift))
		pair := []int{d.schedule(at - d.ref.now), d.schedule(at - d.ref.now)}
		for _, id := range append(pair, first) {
			d.expectPlace(id, inL1)
			d.protected[id] = true
		}
		d.stepUntil(func() bool { return d.done(first) })
		d.expectPlace(pair[0], inL0)
		d.expectPlace(pair[1], inL0)
		d.stepUntil(func() bool { return d.done(pair[0]) })
		d.expectPlace(pair[1], inNear)
		d.step()
	},
	// An overflow→L1 refill: an event just past L1's window moves into
	// L1 when the L1 event ahead of it cascades, by the step that fires
	// that event.
	func(d *engineDiff) {
		d.sync()
		lo, _ := d.room(inL1)
		_, _, window := d.edges()
		ahead := d.schedule(lo + Time(d.rng.Int64N(1<<l1Shift)) - d.ref.now)
		past := d.schedule(window + Time(d.rng.Int64N(1<<l1Shift)) - d.ref.now)
		d.expectPlace(ahead, inL1)
		d.expectPlace(past, inOverflow)
		d.protected[ahead], d.protected[past] = true, true
		d.stepUntil(func() bool { return d.done(ahead) || d.placeName(past) != "overflow" })
		d.expectPlace(past, inL1)
	},
	// A run that ends mid-slot, then a schedule before the cursor that
	// ties with a cascaded timer: the run leaves the cascaded timer in
	// the near heap and the cursor past its slot, so the newer event goes
	// straight to the near heap. The older one must fire first.
	func(d *engineDiff) {
		d.sync()
		older := d.schedule(d.delayInto(inL1))
		at := d.timers[older].When()
		d.protected[older] = true
		d.run(at - 1)
		d.expectPlace(older, inNear)
		newer := d.schedule(1)
		d.expectPlace(newer, inNear)
		d.protected[newer] = true
		d.covered["schedule before the cursor after a run"]++
		d.run(at)
		o, okO := d.firedAt[older]
		n, okN := d.firedAt[newer]
		if !okO || !okN || o > n {
			d.fail("tie at %v: the cascaded event fired at %d (%v), the near push at %d (%v)", at, o, okO, n, okN)
		}
		d.covered["tie between a cascaded timer and a near push"]++
	},
	// A move onto the instant of a newer event: the moved timer takes a
	// fresh seq, so it fires second.
	func(d *engineDiff) {
		old := d.schedule(2 * time.Hour)
		newer := d.schedule(time.Millisecond)
		d.reschedule(old, time.Millisecond)
		d.protected[old], d.protected[newer] = true, true
	},
	// An event whose firing schedules more events.
	func(d *engineDiff) {
		id := d.schedule(5 * time.Millisecond)
		d.events[id].children = append(d.events[id].children,
			diffChild{id: d.newEvent(1), delay: 1 << l1Shift}, diffChild{id: d.newEvent(1), delay: 0})
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
		d.run(d.ref.now + Time(d.rng.Int64N(int64(60*time.Millisecond))))
	case 4:
		if id := d.pick(placeNames[d.rng.IntN(len(placeNames))]); id >= 0 {
			d.stop(id)
		}
	case 5:
		if id := d.pick(placeNames[d.rng.IntN(len(placeNames))]); id >= 0 {
			d.reschedule(id, d.delay())
		}
	case 6: // a handle that fired or was stopped: both must refuse it
		if len(d.timers) == 0 {
			return
		}
		if id := d.rng.IntN(len(d.timers)); d.placeName(id) == "none" {
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
		placed:    map[int]place{},
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

	halter := d.schedule(10 * time.Millisecond)
	d.events[halter].halt = true
	d.schedule(10 * time.Millisecond) // same instant, after the halter: must not fire
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
// TestQuickHeapRemoval with Stop and Reschedule in each of the near
// heap, the wheel's two levels and the overflow heap, with delays on
// every slot boundary, and with the cascades, refills and jumps that
// carry events from one to the next.
func TestEngineDifferential(t *testing.T) {
	scripts := 2000
	if testing.Short() {
		scripts = 300
	}
	var want []string
	for _, delay := range boundaryDelays {
		want = append(want, fmt.Sprintf("schedule at %v", delay))
	}
	want = append(want,
		"schedule hours ahead", "schedule just before the cursor", "schedule at the cursor",
		"schedule just before the window's end", "schedule at the window's end",
		"stop in near", "stop in L0", "stop in L1", "stop in overflow",
		"reschedule near→overflow", "reschedule overflow→near", "reschedule L0→L1", "reschedule L1→L0",
		"wheel L1→L0", "wheel overflow→L1", "wheel L0→near",
		"schedule before the cursor after a run", "tie between a cascaded timer and a near push",
		"run to a root's time", "halt", "event schedules event",
	)
	// Moves that random scripts make often but not in every script: a
	// jump of the empty wheel to the overflow root, and a cascade whose
	// events reach the near heap within one step.
	rare := []string{"wheel overflow→L0", "wheel overflow→near", "wheel L1→near"}
	total := map[string]int{}
	for seed := range uint64(scripts) {
		covered := runScript(t, seed)
		for _, k := range want {
			if covered[k] == 0 {
				t.Fatalf("seed %d: script never covered %q (covered: %v)", seed, k, covered)
			}
		}
		for k, n := range covered {
			total[k] += n
		}
	}
	for _, k := range rare {
		if total[k] == 0 {
			t.Errorf("no script covered %q (covered: %v)", k, total)
		}
	}
}
