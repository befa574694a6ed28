package resource

import (
	"testing"
	"time"

	"millibalance/internal/sim"
)

// A CPU keeps each burst's state — demand, submission and run-start
// times, the completion timer a stall pushes out — in a slot of its own
// and recycles the slots through a free list, so a burst costs neither a
// closure nor an allocation. These tests pin that budget and the safety
// of the reuse: a retired slot must not leak its old burst's timer,
// owner or accounting into the burst that takes it over.

// job is a long-lived burst owner, as a request's flight record is: it
// runs a fixed number of bursts back to back, each submitted from inside
// the previous burst's completion — onto the slot that burst just
// retired.
type job struct {
	eng    *sim.Engine
	cpu    *CPU
	demand sim.Time
	left   int
	ends   []sim.Time
	queued []sim.Time
	frozen []sim.Time
}

func (j *job) BurstDone(queued, frozen sim.Time) {
	j.ends = append(j.ends, j.eng.Now())
	j.queued = append(j.queued, queued)
	j.frozen = append(j.frozen, frozen)
	if j.left > 0 {
		j.left--
		j.cpu.Run(j.demand, j)
	}
}

// TestRunZeroAlloc: a Run → complete cycle on a warm CPU allocates
// nothing, with a free core and through the run queue alike.
func TestRunZeroAlloc(t *testing.T) {
	eng, cpu := newCPU(1)
	a := &job{eng: eng, cpu: cpu}
	b := &job{eng: eng, cpu: cpu}
	cycle := func() {
		cpu.Run(time.Millisecond, a) // takes the core
		cpu.Run(time.Millisecond, b) // waits in the run queue
		eng.Step()                   // a completes, b starts
		eng.Step()                   // b completes
	}
	cycle()
	a.ends, b.ends = make([]sim.Time, 0, 4096), make([]sim.Time, 0, 4096)
	a.queued, b.queued = make([]sim.Time, 0, 4096), make([]sim.Time, 0, 4096)
	a.frozen, b.frozen = make([]sim.Time, 0, 4096), make([]sim.Time, 0, 4096)
	allocs := testing.AllocsPerRun(1000, cycle)
	if allocs != 0 {
		t.Fatalf("two Run→complete cycles allocate %.1f objects, want 0", allocs)
	}
	if got := cpu.free.Len(); got != 2 {
		t.Fatalf("free list holds %d slots after two-deep churn, want 2", got)
	}
	if cpu.Running() != 0 || cpu.QueueLen() != 0 {
		t.Fatalf("Running=%d QueueLen=%d after the churn, want 0/0", cpu.Running(), cpu.QueueLen())
	}
}

// TestRetiredSlotReusedFromItsOwnCompletion: the owner resubmits from
// inside BurstDone and gets the slot that is completing. The new burst
// must run its full demand from now, and the finished burst's queueing
// and stall accounting must have been read out before the slot was
// handed over.
func TestRetiredSlotReusedFromItsOwnCompletion(t *testing.T) {
	eng, cpu := newCPU(1)
	j := &job{eng: eng, cpu: cpu, demand: 10 * time.Millisecond, left: 2}
	cpu.Run(10*time.Millisecond, j)
	eng.Schedule(15*time.Millisecond, func() { cpu.Stall(5 * time.Millisecond) }) // inside the second burst
	eng.Run(time.Second)

	wantEnds := []sim.Time{10 * time.Millisecond, 25 * time.Millisecond, 35 * time.Millisecond}
	wantFrozen := []sim.Time{0, 5 * time.Millisecond, 0}
	if len(j.ends) != 3 {
		t.Fatalf("bursts completed at %v, want three completions", j.ends)
	}
	for i := range wantEnds {
		if j.ends[i] != wantEnds[i] || j.frozen[i] != wantFrozen[i] || j.queued[i] != 0 {
			t.Fatalf("burst %d: end=%v frozen=%v queued=%v, want end=%v frozen=%v queued=0",
				i, j.ends[i], j.frozen[i], j.queued[i], wantEnds[i], wantFrozen[i])
		}
	}
	if got := cpu.free.Len(); got != 1 {
		t.Fatalf("serial bursts used %d slots, want 1", got)
	}
}

// TestStallMovesOnlyLiveBursts: a stall reschedules the timers of the
// bursts running now. A slot on the free list still remembers nothing of
// its old timer, so the stall cannot resurrect or move it, and a burst
// started on a recycled slot after the stall began carries only the
// remainder of the window.
func TestStallMovesOnlyLiveBursts(t *testing.T) {
	eng, cpu := newCPU(2)
	var order []string
	var at []sim.Time
	note := func(name string) func() {
		return func() { order = append(order, name); at = append(at, eng.Now()) }
	}
	cpu.Submit(2*time.Millisecond, note("early")) // completes before the stall; its slot is recycled
	cpu.Submit(10*time.Millisecond, note("long")) // running through the stall
	eng.Schedule(4*time.Millisecond, func() { cpu.Stall(6 * time.Millisecond) })
	eng.Schedule(5*time.Millisecond, func() { cpu.Submit(time.Millisecond, note("late")) }) // on early's slot
	eng.Run(time.Second)

	want := []string{"early", "late", "long"}
	wantAt := []sim.Time{2 * time.Millisecond, 11 * time.Millisecond, 16 * time.Millisecond}
	if len(order) != 3 {
		t.Fatalf("completions %v at %v", order, at)
	}
	for i := range want {
		if order[i] != want[i] || at[i] != wantAt[i] {
			t.Fatalf("completions %v at %v, want %v at %v", order, at, want, wantAt)
		}
	}
}

// TestRunNilOwnerPanics mirrors Submit's nil check on the object path.
func TestRunNilOwnerPanics(t *testing.T) {
	_, cpu := newCPU(1)
	defer func() {
		if recover() == nil {
			t.Fatal("Run(nil owner) did not panic")
		}
	}()
	cpu.Run(time.Millisecond, nil)
}
