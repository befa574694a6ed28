package sim

import (
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
