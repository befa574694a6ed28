package sim

import (
	"slices"
	"testing"
	"time"
)

// The engine recycles fired and stopped timer nodes through a free list.
// These tests pin the safety contract of stale handles: once a timer has
// fired or been stopped, every outstanding handle to it is permanently
// dead, even after the underlying node is reused by a later timer.

// TestRecycledHandleReportsStopped: a handle to a fired timer keeps
// reporting Stopped() == true after its node backs a new pending timer.
func TestRecycledHandleReportsStopped(t *testing.T) {
	e := NewEngine(1, 2)
	old := e.Schedule(time.Millisecond, func() {})
	e.Run(time.Second) // old fires; its node returns to the free list

	if !old.Stopped() {
		t.Fatal("fired timer's handle does not report Stopped")
	}
	// The next schedule reuses the recycled node.
	fresh := e.Schedule(time.Millisecond, func() {})
	if fresh.Stopped() {
		t.Fatal("fresh timer reports Stopped")
	}
	if !old.Stopped() {
		t.Fatal("stale handle came back to life when its node was reused")
	}
	if old == fresh {
		t.Fatal("stale and fresh handles compare equal")
	}
	if old.When() != 0 {
		t.Fatalf("stale handle When() = %v, want 0", old.When())
	}
}

// TestStaleHandleCannotStopRecycledNode: stopping through a stale handle
// must not cancel the new timer occupying the recycled node — the
// "cannot fire twice / cannot be stopped twice" guarantee.
func TestStaleHandleCannotStopRecycledNode(t *testing.T) {
	e := NewEngine(1, 2)
	stale := e.Schedule(time.Millisecond, func() {})
	if !e.Stop(stale) {
		t.Fatal("Stop of pending timer returned false")
	}

	fired := false
	fresh := e.Schedule(time.Millisecond, func() { fired = true })
	if e.Stop(stale) {
		t.Fatal("Stop through a stale handle returned true")
	}
	if e.Reschedule(stale, time.Hour) {
		t.Fatal("Reschedule through a stale handle returned true")
	}
	if fresh.Stopped() {
		t.Fatal("stale Stop/Reschedule killed the recycled node's new timer")
	}
	e.Run(time.Second)
	if !fired {
		t.Fatal("new timer on the recycled node never fired")
	}
}

// TestRecycledNodeCannotFireTwice: a callback scheduled once fires once,
// even when its node is recycled into a timer at the same instant from
// within another callback.
func TestRecycledNodeCannotFireTwice(t *testing.T) {
	e := NewEngine(1, 2)
	count := 0
	e.Schedule(time.Millisecond, func() {
		// This node is already recycled while its callback runs; schedule
		// at the same instant to reuse it immediately.
		e.Schedule(0, func() {})
	})
	e.Schedule(time.Millisecond, func() { count++ })
	e.Run(time.Second)
	if count != 1 {
		t.Fatalf("callback fired %d times, want 1", count)
	}
}

// TestFreeListReuse: after a schedule/fire churn far larger than the
// pending population, the engine holds only a bounded set of nodes.
func TestFreeListReuse(t *testing.T) {
	e := NewEngine(1, 2)
	fn := func() {}
	for i := 0; i < 10000; i++ {
		e.Schedule(time.Millisecond, fn)
		if !e.Step() {
			t.Fatal("Step returned false with a pending timer")
		}
	}
	if got := e.free.Len(); got != 1 {
		t.Fatalf("free list holds %d nodes after serial churn, want 1", got)
	}
	if e.Fired() != 10000 {
		t.Fatalf("fired = %d", e.Fired())
	}
}

// counter is a long-lived event record, scheduled by pointer the way the
// request path schedules flights, burst slots and thinking clients.
type counter struct{ fired int }

func (c *counter) Fire() { c.fired++ }

// TestScheduleEventZeroAlloc: once the node free list has warmed up,
// scheduling an existing record and firing it allocates nothing — the
// property the request path's allocation budget rests on.
func TestScheduleEventZeroAlloc(t *testing.T) {
	e := NewEngine(1, 2)
	ev := &counter{}
	e.ScheduleEvent(time.Millisecond, ev)
	e.Step()
	allocs := testing.AllocsPerRun(1000, func() {
		e.ScheduleEvent(time.Millisecond, ev)
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("ScheduleEvent+Step allocates %.1f objects per cycle, want 0", allocs)
	}
	if ev.fired != 1002 { // AllocsPerRun runs the function once to warm up
		t.Fatalf("event fired %d times, want 1002", ev.fired)
	}

	// The same holds for a timer that cascades from L1 through L0 to the
	// near heap, for one that waits in the overflow heap until the wheel
	// jumps to it, and for a Reschedule across the levels.
	for _, tc := range []struct {
		name  string
		cycle func()
	}{
		{"near", func() {
			e.ScheduleEvent(0, ev)
			e.Step()
		}},
		{"cascade L1→L0→near", func() {
			e.ScheduleEvent(5*time.Millisecond, ev)
			e.Step()
		}},
		{"overflow", func() {
			e.ScheduleEvent(time.Hour, ev)
			e.Step()
		}},
		{"reschedule across the levels", func() {
			tm := e.ScheduleEvent(time.Millisecond, ev)
			e.Reschedule(tm, time.Hour)
			e.Reschedule(tm, 5*time.Millisecond)
			e.Step()
		}},
	} {
		if allocs := testing.AllocsPerRun(1000, tc.cycle); allocs != 0 {
			t.Errorf("%s: %.1f allocations per cycle, want 0", tc.name, allocs)
		}
	}

	// A Stop in each place. Park the clock early in an L1 slot first, so
	// each delay below files its timer in the place it names.
	at := (e.Now()>>l1Shift+2)<<l1Shift + 3<<l0Shift
	e.ScheduleEvent(at-e.Now(), ev)
	e.Step()
	for _, tc := range []struct {
		where place
		delay Time
	}{
		{inNear, 0},
		{inL0, 1 << l0Shift},
		{inL1, 1 << l1Shift},
		{inOverflow, time.Hour},
	} {
		name := "stop in " + placeNames[tc.where]
		if tm := e.ScheduleEvent(tc.delay, ev); tm.n.where != tc.where {
			t.Fatalf("%s: the timer went to %s", name, placeNames[tm.n.where])
		} else {
			e.Stop(tm)
		}
		if allocs := testing.AllocsPerRun(1000, func() { e.Stop(e.ScheduleEvent(tc.delay, ev)) }); allocs != 0 {
			t.Errorf("%s: %.1f allocations per cycle, want 0", name, allocs)
		}
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d after the cycles, want 0", e.Pending())
	}
}

// TestFuncEventSharesTheObjectPath: a closure scheduled through Schedule
// and a record scheduled through ScheduleEvent go through the same
// nodes, so they interleave in schedule order at one instant and a
// recycled node can back either kind.
func TestFuncEventSharesTheObjectPath(t *testing.T) {
	e := NewEngine(1, 2)
	var order []string
	ev := Func(func() { order = append(order, "event") })
	e.Schedule(time.Millisecond, func() { order = append(order, "closure-1") })
	e.ScheduleEvent(time.Millisecond, ev)
	e.Schedule(time.Millisecond, func() { order = append(order, "closure-2") })
	e.Run(time.Second)
	if got := e.free.Len(); got != 3 {
		t.Fatalf("free list holds %d nodes, want 3", got)
	}
	e.ScheduleEvent(time.Millisecond, ev) // on a node a closure used
	e.Run(2 * time.Second)
	want := []string{"closure-1", "event", "closure-2", "event"}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
}

// TestPoolHandOffZeroAlloc: a waiter that is an existing record queues
// for a token and is granted it on release without allocating.
func TestPoolHandOffZeroAlloc(t *testing.T) {
	p := NewPool(1)
	if !p.TryAcquire() {
		t.Fatal("fresh pool refused its only token")
	}
	w := &counter{}
	p.Acquire(w) // grows the waiter ring once
	p.Release()  // token passes to w
	allocs := testing.AllocsPerRun(1000, func() {
		p.Acquire(w) // token is held: w queues
		p.Release()  // ... and is granted it
	})
	if allocs != 0 {
		t.Fatalf("Acquire+Release hand-off allocates %.1f objects, want 0", allocs)
	}
	if w.fired != 1002 || p.InUse() != 1 || p.Waiting() != 0 {
		t.Fatalf("grants=%d inUse=%d waiting=%d, want 1002/1/0", w.fired, p.InUse(), p.Waiting())
	}
}

// A record may own its timer node (TimerNode) instead of taking one from
// the free list. The tests below pin what owning changes — the node
// never enters the free list, and arming a pending node panics — and
// what it does not: handles stay generation-checked, and Stop and
// Reschedule behave as they do on a pooled node.

// looper owns its node the way a closed-loop client does, and re-arms
// it from its own Fire when loop is set.
type looper struct {
	fired int
	loop  Time
	e     *Engine
	TimerNode
}

func (lp *looper) Fire() {
	lp.fired++
	if lp.loop > 0 {
		lp.e.Arm(&lp.TimerNode, lp.loop, lp)
	}
}

// TestOwnedNodeStaleHandle: a handle from an earlier arming, ended by
// firing or by Stop, neither stops, moves nor observes the next arming.
func TestOwnedNodeStaleHandle(t *testing.T) {
	for _, end := range []string{"fired", "stopped"} {
		t.Run(end, func(t *testing.T) {
			e := NewEngine(1, 2)
			lp := &looper{}
			stale := e.Arm(&lp.TimerNode, time.Millisecond, lp)
			if stale.Stopped() || stale.When() != time.Millisecond {
				t.Fatalf("fresh arming: Stopped=%v When=%v", stale.Stopped(), stale.When())
			}
			if end == "fired" {
				e.Run(time.Second)
			} else if !e.Stop(stale) {
				t.Fatal("Stop of a pending owned node returned false")
			}
			fresh := e.Arm(&lp.TimerNode, time.Millisecond, lp)
			if !stale.Stopped() || stale.When() != 0 {
				t.Fatalf("stale handle observes the next arming: Stopped=%v When=%v", stale.Stopped(), stale.When())
			}
			if stale == fresh {
				t.Fatal("stale and fresh handles compare equal")
			}
			if e.Stop(stale) || e.Reschedule(stale, time.Hour) {
				t.Fatal("Stop or Reschedule through a stale handle returned true")
			}
			if fresh.Stopped() || fresh.When() != e.Now()+time.Millisecond {
				t.Fatalf("stale Stop/Reschedule touched the next arming: Stopped=%v When=%v", fresh.Stopped(), fresh.When())
			}
			before := lp.fired
			e.Run(e.Now() + time.Second)
			if lp.fired != before+1 || !fresh.Stopped() {
				t.Fatalf("the next arming fired %d times, want 1", lp.fired-before)
			}
		})
	}
}

// TestOwnedNodeArmPendingPanics: a pending node carries one event, so a
// second Arm before it fires or is stopped is a bug in the caller. Once
// it has fired, even from inside its own Fire, or been stopped, it may be
// armed again.
func TestOwnedNodeArmPendingPanics(t *testing.T) {
	e := NewEngine(1, 2)
	lp := &looper{}
	e.Arm(&lp.TimerNode, time.Millisecond, lp)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("arming a pending owned node did not panic")
			}
		}()
		e.Arm(&lp.TimerNode, time.Second, lp)
	}()
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d after the refused arming, want 1", e.Pending())
	}
	lp.e, lp.loop = e, time.Millisecond
	e.Run(10 * time.Millisecond) // fires and re-arms from Fire ten times
	if lp.fired != 10 || e.Pending() != 1 {
		t.Fatalf("fired %d times with %d pending, want 10 and 1", lp.fired, e.Pending())
	}
}

// TestOwnedNodeStopReschedule: the same script of arms, Stops and
// Reschedules, in every place a node can be filed, fires the same events
// at the same times in the same order on owned nodes as on pooled ones.
func TestOwnedNodeStopReschedule(t *testing.T) {
	type fire struct {
		id int
		at Time
	}
	run := func(owned bool) []fire {
		e := NewEngine(1, 2)
		var log []fire
		lps := make([]looper, 8)
		evs := make([]Event, len(lps))
		for i := range lps {
			id := i
			evs[i] = Func(func() { log = append(log, fire{id, e.Now()}) })
		}
		arm := func(i int, delay Time) Timer {
			if owned {
				return e.Arm(&lps[i].TimerNode, delay, evs[i])
			}
			return e.ScheduleEvent(delay, evs[i])
		}
		// Park the clock early in an L1 slot, so the delays land in the
		// places they name.
		e.ScheduleEvent(2<<l1Shift+3<<l0Shift, Func(func() {}))
		e.Step()
		delays := []Time{0, 1 << l0Shift, 1 << l1Shift, time.Hour}
		var tms []Timer
		for i, d := range delays {
			tms = append(tms, arm(2*i, d), arm(2*i+1, d))
			if want := place(i); tms[2*i].n.where != want {
				t.Fatalf("owned=%v: timer %d went to %s, want %s", owned, 2*i, placeNames[tms[2*i].n.where], placeNames[want])
			}
		}
		for i := range delays {
			if !e.Stop(tms[2*i]) || e.Stop(tms[2*i]) {
				t.Fatalf("owned=%v: Stop of timer %d did not report pending exactly once", owned, 2*i)
			}
			// Each survivor moves to the place after its own.
			if !e.Reschedule(tms[2*i+1], delays[(i+1)%len(delays)]) {
				t.Fatalf("owned=%v: Reschedule of timer %d returned false", owned, 2*i+1)
			}
		}
		if e.Pending() != len(delays) {
			t.Fatalf("owned=%v: Pending() = %d, want %d", owned, e.Pending(), len(delays))
		}
		// A stopped owned node may be armed again at once.
		arm(0, 1<<l0Shift)
		if err := e.RunAll(100); err != nil {
			t.Fatal(err)
		}
		return log
	}
	pooled, owned := run(false), run(true)
	if !slices.Equal(pooled, owned) {
		t.Fatalf("owned nodes fired %v, pooled nodes %v", owned, pooled)
	}
	if len(owned) != 5 {
		t.Fatalf("fired %d events, want 5", len(owned))
	}
}

// TestOwnedNodeOffFreeList: a fired or stopped owned node stays with its
// record, so a thinking client's cycle leaves the engine's free list as
// it found it, while the pooled nodes around it still circulate.
func TestOwnedNodeOffFreeList(t *testing.T) {
	e := NewEngine(1, 2)
	for i := 0; i < 3; i++ {
		e.Schedule(time.Millisecond, func() {})
	}
	e.Run(time.Second)
	warm := e.free.Len()
	lp := &looper{e: e, loop: 7 * time.Second}
	e.Arm(&lp.TimerNode, time.Second, lp)
	for cycle := 0; cycle < 100; cycle++ {
		e.Schedule(time.Millisecond, func() {}) // a request-path event
		e.Step()
		e.Step() // the think timer fires and re-arms
		if got := e.free.Len(); got != warm {
			t.Fatalf("cycle %d: free list holds %d nodes, want %d", cycle, got, warm)
		}
	}
	if lp.fired != 100 {
		t.Fatalf("fired %d think cycles, want 100", lp.fired)
	}
	lp.loop = 0
	e.Step() // fires without re-arming
	stopped := e.Arm(&lp.TimerNode, time.Second, lp)
	e.Stop(stopped)
	if got := e.free.Len(); got != warm {
		t.Fatalf("after a fire and a Stop the free list holds %d nodes, want %d", got, warm)
	}
}

// TestOwnedNodeZeroAlloc: arming an owned node and firing it allocates
// nothing, without a warmed free list.
func TestOwnedNodeZeroAlloc(t *testing.T) {
	e := NewEngine(1, 2)
	lp := &looper{}
	allocs := testing.AllocsPerRun(1000, func() {
		e.Arm(&lp.TimerNode, 5*time.Millisecond, lp)
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("Arm+Step allocates %.1f objects per cycle, want 0", allocs)
	}
	if e.free.Len() != 0 {
		t.Fatalf("free list holds %d nodes, want 0", e.free.Len())
	}
}
