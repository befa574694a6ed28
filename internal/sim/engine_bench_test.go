package sim

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkEngineScheduleFire measures the engine's core loop: schedule
// one event and dispatch it. The callback is hoisted out of the loop so
// the measurement isolates the engine's own per-event cost (timer
// bookkeeping, heap traffic) from the caller's closure allocation.
func BenchmarkEngineScheduleFire(b *testing.B) {
	e := NewEngine(1, 2)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(time.Millisecond, fn)
		e.Step()
	}
}

// thinker is a standing timer that re-arms itself on fire with an
// exponential 7 s delay, as a client's think timer does, so the
// population it belongs to holds its size however long the clock runs.
type thinker struct{ e *Engine }

func (t *thinker) Fire() { t.e.ScheduleEvent(t.e.Exponential(7*time.Second), t) }

// BenchmarkEngineScheduleFireDepth measures schedule+fire with a standing
// population of pending timers, so heap sift costs at realistic depths
// are included: 512 is what the servers keep pending, 70 000 is what a
// paper-scale run actually holds — one think timer per client. An
// iteration schedules a probe 10 µs ahead and steps until it has fired;
// at 70 000 standing, think timers come due every 100 µs, so about one
// pop in eleven is a think timer re-arming, close to a paper-scale run's
// one in twelve.
//
// Until PR 25 the standing timers sat at 1 s + U(0, 1 h) and never
// re-armed while each iteration advanced the clock 1 ms, so the heap was
// empty after 3.6 M iterations: standing=70000 read 114 / 113 / 130 ns
// at 100 k / 1 M / 8 M iterations. With the population held (2 vCPUs,
// go1.24.0, median of 3 at 100 k / 1 M / 8 M iterations), standing=70000
// reads 129 / 132 / 138 ns on one heap and 57 / 49 / 52 on the near and
// far heaps; standing=512 reads 65 / 60 / 60 and 16 / 16 / 16.
//
// With the timing wheel (2 vCPUs, go1.24.0, a noisier host; medians of
// six alternating runs at 1 M iterations): standing=70000 reads 63 ns
// against the two heaps' 72; standing=512 reads 45 against 34. A lone probe 10 µs out
// now lands in the next L0 slot and the cursor must move to it, a link
// and a bitmap scan more than a push onto a one-slot heap; a paper-scale
// run, with about three events a slot, recovers that many times over.
func BenchmarkEngineScheduleFireDepth(b *testing.B) {
	for _, depth := range []int{512, 70000} {
		b.Run(fmt.Sprintf("standing=%d", depth), func(b *testing.B) {
			e := NewEngine(1, 2)
			for i := 0; i < depth; i++ {
				th := &thinker{e: e}
				e.ScheduleEvent(e.Exponential(7*time.Second), th)
			}
			probe := &benchEvent{}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.ScheduleEvent(10*time.Microsecond, probe)
				for probe.fired == i {
					e.Step()
				}
			}
			b.StopTimer()
			if got := e.Pending(); got != depth {
				b.Fatalf("Pending() = %d after %d iterations, want the standing %d", got, b.N, depth)
			}
		})
	}
}

// BenchmarkCalendarDepth is BenchmarkEngineScheduleFireDepth's
// standing=70000 with the thinkers where a closed-loop group keeps them:
// 70 000 ids in one Calendar, each re-filed from its own fire with an
// exponential 7 s delay. In probe, an iteration schedules a pooled probe
// 10 µs ahead and steps until it has fired, as there, so the two rows
// differ only in where the thinkers wait; in cycle, an iteration is one
// step, which fires a thinker and re-files it.
func BenchmarkCalendarDepth(b *testing.B) {
	const depth = 70000
	setup := func() *Engine {
		e := NewEngine(1, 2)
		var c *Calendar
		c = NewCalendar(e, depth, func(id int) { c.After(id, e.Exponential(7*time.Second)) })
		for i := 0; i < depth; i++ {
			c.After(i, e.Exponential(7*time.Second))
		}
		return e
	}
	b.Run("probe", func(b *testing.B) {
		e := setup()
		probe := &benchEvent{}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.ScheduleEvent(10*time.Microsecond, probe)
			for probe.fired == i {
				e.Step()
			}
		}
	})
	b.Run("cycle", func(b *testing.B) {
		e := setup()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Step()
		}
		b.StopTimer()
		if got := e.Fired(); got != uint64(b.N) {
			b.Fatalf("fired %d thinkers in %d steps", got, b.N)
		}
	})
}

// benchEvent is a long-lived record scheduled by pointer, as the request
// path schedules its flight records.
type benchEvent struct{ fired int }

func (ev *benchEvent) Fire() { ev.fired++ }

// BenchmarkEngineScheduleEvent is BenchmarkEngineScheduleFire through the
// object entry point: no closure, no allocation.
func BenchmarkEngineScheduleEvent(b *testing.B) {
	e := NewEngine(1, 2)
	ev := &benchEvent{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ScheduleEvent(time.Millisecond, ev)
		e.Step()
	}
}

// BenchmarkEngineTimerReuse measures the schedule/stop cycle that the
// balancer's busy/error recovery timers and the CPU model's stall timer
// exercise constantly: the timer never fires, it is cancelled and
// replaced.
func BenchmarkEngineTimerReuse(b *testing.B) {
	e := NewEngine(1, 2)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm := e.Schedule(time.Millisecond, fn)
		e.Stop(tm)
	}
}
