package sim

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

// TestTimerNodeLayout pins the sizes of the engine's two per-timer
// records. A heap slot is copied on every sift step, and while closed-loop
// clients kept a node each, a node grown from 40 to 48 bytes (a far flag
// placed after a full-width index) once put sim_paper's
// alloc_bytes_per_op up 5 %, exactly the benchmark's bound. The wheel's
// node carries its own seq and a slot link, 56 bytes with index and
// place sharing a word. The clients now wait in a Calendar, whose
// per-id bytes TestGroupStartBytes (internal/workload) bounds.
func TestTimerNodeLayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(timerNode{}); got != 56 {
		t.Errorf("timerNode is %d bytes, want 56", got)
	}
	if got := unsafe.Sizeof(heapItem{}); got != 24 {
		t.Errorf("heapItem is %d bytes, want 24", got)
	}
}

func TestEngineTimeRangeTop(t *testing.T) {
	const top = Time(math.MaxInt64)
	dues := []Time{
		top, top - 1, top - 1<<14, top - 1<<14 - 1, top - 1<<22, top - 1<<22 + 1,
		top - 1<<34, top - 1<<34 + 1, top - 2<<34, top - time.Hour,
		1 << 59, 1<<59 + 1, 1<<59 + 1<<34,
		0, 1, 5 * time.Microsecond, time.Millisecond, 1 << 22, 1 << 34,
	}
	for _, drive := range []string{"RunAll", "Run"} {
		t.Run(drive, func(t *testing.T) {
			done := make(chan error, 1)
			go func() { done <- runTimeRangeTop(dues, drive) }()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("the engine did not drain within 10 s")
			}
		})
	}
}

// runTimeRangeTop schedules dues on an engine and a refEngine, runs both
// dry and compares the order events fired in and the final clocks. An
// event firing near the start schedules one near the top and one 1<<59
// ahead; one firing in between schedules another 1<<59 ahead and a near
// one; one firing near the top schedules one now and one at the top.
// Children stop after 400 events.
func runTimeRangeTop(dues []Time, drive string) error {
	const top = Time(math.MaxInt64)
	kids := func(now Time) []Time {
		switch {
		case now < time.Second:
			return []Time{top - Time(now%7)<<14, now + 1<<59}
		case now < top-1<<35:
			return []Time{now + min(1<<59, top-now), now + 10*time.Microsecond}
		default:
			return []Time{now, top}
		}
	}
	e := NewEngine(1, 2)
	var ref refEngine
	var got, want []int
	ids, refIDs := 0, 0
	var fire func(id int) func()
	fire = func(id int) func() {
		return func() {
			got = append(got, id)
			if ids >= 400 {
				return
			}
			for _, at := range kids(e.Now()) {
				e.At(at, fire(ids))
				ids++
			}
		}
	}
	for _, at := range dues {
		e.At(at, fire(ids))
		ref.schedule(ids, at)
		ids++
		refIDs++
	}
	switch drive {
	case "RunAll":
		if err := e.RunAll(1 << 20); err != nil {
			return err
		}
	default:
		e.Run(top)
	}
	for id := ref.step(); id >= 0; id = ref.step() {
		want = append(want, id)
		if refIDs >= 400 {
			continue
		}
		for _, at := range kids(ref.now) {
			ref.schedule(refIDs, at-ref.now)
			refIDs++
		}
	}
	if drive != "RunAll" {
		ref.now = top
	}
	if !slices.Equal(got, want) {
		return fmt.Errorf("fired %v,\nreference %v", got, want)
	}
	if e.Now() != ref.now || e.Pending() != 0 {
		return fmt.Errorf("Now() = %v with %d pending, reference %v with none", e.Now(), e.Pending(), ref.now)
	}
	return nil
}

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine(1, 2)
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", e.Pending())
	}
}

func TestScheduleRunsInTimeOrder(t *testing.T) {
	e := NewEngine(1, 2)
	var got []int
	e.Schedule(30*time.Millisecond, func() { got = append(got, 3) })
	e.Schedule(10*time.Millisecond, func() { got = append(got, 1) })
	e.Schedule(20*time.Millisecond, func() { got = append(got, 2) })
	e.Run(time.Second)
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestSameInstantFiresInScheduleOrder(t *testing.T) {
	e := NewEngine(1, 2)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5*time.Millisecond, func() { got = append(got, i) })
	}
	e.Run(time.Second)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant order broken: got %v", got)
		}
	}
}

func TestClockAdvancesToEventTime(t *testing.T) {
	e := NewEngine(1, 2)
	var at Time
	e.Schedule(42*time.Millisecond, func() { at = e.Now() })
	e.Run(time.Second)
	if at != 42*time.Millisecond {
		t.Fatalf("event saw clock %v, want 42ms", at)
	}
	if e.Now() != time.Second {
		t.Fatalf("Run left clock at %v, want 1s", e.Now())
	}
}

func TestRunDispatchesEventsAtBoundary(t *testing.T) {
	e := NewEngine(1, 2)
	fired := false
	e.Schedule(time.Second, func() { fired = true })
	e.Run(time.Second)
	if !fired {
		t.Fatal("event at the Run boundary did not fire")
	}
}

func TestRunDoesNotPassBoundary(t *testing.T) {
	e := NewEngine(1, 2)
	fired := false
	e.Schedule(time.Second+1, func() { fired = true })
	e.Run(time.Second)
	if fired {
		t.Fatal("event after the Run boundary fired early")
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", e.Pending())
	}
}

func TestNegativeDelayClampedToNow(t *testing.T) {
	e := NewEngine(1, 2)
	var at Time
	e.Schedule(10*time.Millisecond, func() {
		e.Schedule(-5*time.Millisecond, func() { at = e.Now() })
	})
	e.Run(time.Second)
	if at != 10*time.Millisecond {
		t.Fatalf("clamped event fired at %v, want 10ms", at)
	}
}

func TestStopPreventsFiring(t *testing.T) {
	e := NewEngine(1, 2)
	fired := false
	tm := e.Schedule(10*time.Millisecond, func() { fired = true })
	if !e.Stop(tm) {
		t.Fatal("Stop returned false for a pending timer")
	}
	if e.Stop(tm) {
		t.Fatal("second Stop returned true")
	}
	e.Run(time.Second)
	if fired {
		t.Fatal("stopped timer fired")
	}
	if !tm.Stopped() {
		t.Fatal("Stopped() = false after Stop")
	}
}

func TestStopZeroTimer(t *testing.T) {
	e := NewEngine(1, 2)
	var zero Timer
	if !zero.Stopped() {
		t.Fatal("zero Timer not Stopped")
	}
	if e.Stop(zero) {
		t.Fatal("Stop(zero) returned true")
	}
	if e.Reschedule(zero, time.Millisecond) {
		t.Fatal("Reschedule(zero) returned true")
	}
}

func TestStopMiddleOfHeapKeepsOrder(t *testing.T) {
	e := NewEngine(1, 2)
	var got []int
	var timers []Timer
	for i := 0; i < 20; i++ {
		i := i
		timers = append(timers, e.Schedule(Time(i)*time.Millisecond, func() { got = append(got, i) }))
	}
	// Stop every third timer.
	for i := 0; i < 20; i += 3 {
		e.Stop(timers[i])
	}
	e.Run(time.Second)
	prev := -1
	for _, v := range got {
		if v%3 == 0 {
			t.Fatalf("stopped timer %d fired", v)
		}
		if v <= prev {
			t.Fatalf("out of order after removals: %v", got)
		}
		prev = v
	}
}

func TestRescheduleMovesTimer(t *testing.T) {
	e := NewEngine(1, 2)
	var at Time
	tm := e.Schedule(10*time.Millisecond, func() { at = e.Now() })
	if !e.Reschedule(tm, 50*time.Millisecond) {
		t.Fatal("Reschedule returned false")
	}
	e.Run(time.Second)
	if at != 50*time.Millisecond {
		t.Fatalf("rescheduled timer fired at %v, want 50ms", at)
	}
}

func TestRescheduleFiredTimerFails(t *testing.T) {
	e := NewEngine(1, 2)
	tm := e.Schedule(time.Millisecond, func() {})
	e.Run(time.Second)
	if e.Reschedule(tm, time.Millisecond) {
		t.Fatal("Reschedule of a fired timer returned true")
	}
}

func TestEventsMayScheduleMoreEvents(t *testing.T) {
	e := NewEngine(1, 2)
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 100 {
			e.Schedule(time.Millisecond, tick)
		}
	}
	e.Schedule(0, tick)
	e.Run(time.Second)
	if count != 100 {
		t.Fatalf("chained events fired %d times, want 100", count)
	}
}

func TestRunAllBudget(t *testing.T) {
	e := NewEngine(1, 2)
	var tick func()
	tick = func() { e.Schedule(time.Millisecond, tick) }
	e.Schedule(0, tick)
	if err := e.RunAll(1000); err == nil {
		t.Fatal("RunAll did not report budget exhaustion for a self-rescheduling loop")
	}
}

func TestRunAllCompletes(t *testing.T) {
	e := NewEngine(1, 2)
	n := 0
	for i := 0; i < 50; i++ {
		e.Schedule(Time(i)*time.Millisecond, func() { n++ })
	}
	if err := e.RunAll(1000); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if n != 50 {
		t.Fatalf("fired %d, want 50", n)
	}
}

func TestHaltStopsDispatch(t *testing.T) {
	e := NewEngine(1, 2)
	n := 0
	for i := 0; i < 10; i++ {
		e.Schedule(Time(i)*time.Millisecond, func() {
			n++
			if n == 3 {
				e.Halt()
			}
		})
	}
	e.Run(time.Second)
	if n != 3 {
		t.Fatalf("fired %d events after Halt at 3", n)
	}
	if !e.Halted() {
		t.Fatal("Halted() = false")
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []Time {
		e := NewEngine(7, 11)
		var stamps []Time
		var tick func()
		n := 0
		tick = func() {
			stamps = append(stamps, e.Now())
			n++
			if n < 200 {
				e.Schedule(e.Exponential(3*time.Millisecond), tick)
			}
		}
		e.Schedule(0, tick)
		e.Run(10 * time.Second)
		return stamps
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("replay lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestFiredCounter(t *testing.T) {
	e := NewEngine(1, 2)
	for i := 0; i < 7; i++ {
		e.Schedule(Time(i), func() {})
	}
	e.Run(time.Second)
	if e.Fired() != 7 {
		t.Fatalf("Fired() = %d, want 7", e.Fired())
	}
}

func TestAtNilFuncPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("At(nil) did not panic")
		}
	}()
	e := NewEngine(1, 2)
	e.At(0, nil)
}

// Property: regardless of the insertion order of timers, they always fire
// in non-decreasing time order.
func TestQuickHeapOrdering(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine(3, 4)
		var fired []Time
		for _, d := range delays {
			e.Schedule(Time(d)*time.Microsecond, func() { fired = append(fired, e.Now()) })
		}
		e.Run(time.Hour)
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: stopping a random subset never disturbs the firing order of
// the remainder and exactly the non-stopped timers fire.
func TestQuickHeapRemoval(t *testing.T) {
	f := func(delays []uint16, stopMask []bool, seed uint64) bool {
		e := NewEngine(seed, seed^0x9e3779b9)
		type rec struct {
			id      int
			stopped bool
		}
		var fired []int
		recs := make([]rec, len(delays))
		timers := make([]Timer, len(delays))
		for i, d := range delays {
			i := i
			recs[i] = rec{id: i}
			timers[i] = e.Schedule(Time(d)*time.Microsecond, func() { fired = append(fired, i) })
		}
		for i := range timers {
			if i < len(stopMask) && stopMask[i] {
				recs[i].stopped = true
				e.Stop(timers[i])
			}
		}
		e.Run(time.Hour)
		want := 0
		for _, r := range recs {
			if !r.stopped {
				want++
			}
		}
		if len(fired) != want {
			return false
		}
		for _, id := range fired {
			if recs[id].stopped {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRandIsSeeded(t *testing.T) {
	a := NewEngine(5, 6).Rand()
	b := NewEngine(5, 6).Rand()
	c := NewEngine(5, 7).Rand()
	differs := false
	for i := 0; i < 100; i++ {
		av := a.Uint64()
		if av != b.Uint64() {
			t.Fatal("same seeds produced different streams")
		}
		if av != c.Uint64() {
			differs = true
		}
	}
	if !differs {
		t.Fatal("different seeds produced identical streams")
	}
}
