package sim

import (
	"testing"
	"time"
)

// TestCalendarAfterPendingPanics: an id holds one entry, so After on an
// id whose entry is pending is a bug in the caller, and the refused call
// leaves the calendar as it was. Once the entry has come due, even from
// inside its own fire, the id may be filed again.
func TestCalendarAfterPendingPanics(t *testing.T) {
	e := NewEngine(1, 2)
	fired := 0
	var c *Calendar
	c = NewCalendar(e, 2, func(id int) {
		fired++
		if id == 0 && fired < 10 {
			c.After(0, time.Millisecond)
		}
	})
	c.After(0, time.Millisecond)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("After on a pending id did not panic")
			}
		}()
		c.After(0, time.Second)
	}()
	if c.stamp[0] != (stamp{time.Millisecond, 1}) || e.Pending() != 1 {
		t.Fatalf("after the refused call: stamp %+v, %d pending; want {1ms 1} and 1", c.stamp[0], e.Pending())
	}
	c.After(1, time.Hour) // another id is free to be filed
	e.Run(time.Second)    // id 0 fires and re-arms from its fire ten times
	if fired != 10 || e.Pending() != 1 || c.stamp[0].seq != 0 {
		t.Fatalf("fired %d times with %d pending and id 0 at seq %d, want 10, 1 and 0", fired, e.Pending(), c.stamp[0].seq)
	}
}

// TestCalendarZeroAlloc: filing an entry and firing it allocates
// nothing, and the calendar's node comes back to the engine's free list
// whenever the calendar empties, so the list ends as it started.
func TestCalendarZeroAlloc(t *testing.T) {
	e := NewEngine(1, 2)
	c := NewCalendar(e, 4, func(int) {})
	e.Schedule(time.Millisecond, func() {})
	e.Step()
	warm := e.free.Len()
	for i := 0; i < 4; i++ {
		c.After(i, e.Exponential(7*time.Second))
	}
	allocs := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 4; i++ {
			e.Step()
		}
		for i := 0; i < 4; i++ {
			c.After(i, e.Exponential(7*time.Second))
		}
	})
	if allocs != 0 {
		t.Fatalf("four After+fire cycles allocate %.1f objects, want 0", allocs)
	}
	if e.free.Len() != warm-1 {
		t.Fatalf("free list holds %d nodes with the calendar pending, want %d", e.free.Len(), warm-1)
	}
	for i := 0; i < 4; i++ {
		e.Step()
	}
	if e.free.Len() != warm || e.Pending() != 0 {
		t.Fatalf("drained: free list holds %d nodes with %d pending, want %d and 0", e.free.Len(), e.Pending(), warm)
	}
}
