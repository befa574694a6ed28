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

// BenchmarkEngineScheduleFireDepth measures schedule+fire with a standing
// population of pending timers, so heap sift costs at realistic depths
// are included: 512 is what the servers keep pending, 70 000 is what a
// paper-scale run actually sifts through — one think timer per client.
// The standing timers are spread over an hour so the probe event enters
// at the leaves and sifts the whole way up, then pops from the root.
func BenchmarkEngineScheduleFireDepth(b *testing.B) {
	for _, depth := range []int{512, 70000} {
		b.Run(fmt.Sprintf("standing=%d", depth), func(b *testing.B) {
			e := NewEngine(1, 2)
			fn := func() {}
			for i := 0; i < depth; i++ {
				e.Schedule(time.Second+e.Uniform(0, time.Hour), fn)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Schedule(time.Millisecond, fn)
				e.Step()
			}
		})
	}
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
