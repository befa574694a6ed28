// Package resource models the physical resources whose transient
// saturation produces millibottlenecks: a multi-core CPU whose progress
// can be frozen by stall windows, a disk with a finite write rate, and a
// page cache whose dirty pages are flushed by a periodic writeback
// daemon (the paper's pdflush).
package resource

import (
	"millibalance/internal/sim"
)

// CPU models a multi-core processor executing fixed-demand bursts in
// virtual time. At most Cores bursts run concurrently; excess submissions
// queue FIFO. A stall window (Stall) freezes the progress of every
// running burst — the mechanism by which a dirty-page flush or another
// millibottleneck suspends foreground request processing — and counts all
// cores as busy for utilization accounting, matching the transient 100%
// saturation the paper measures.
type CPU struct {
	eng   *sim.Engine
	cores int

	running []*burst // executing bursts, in start order (swap-removed)
	runq    sim.FIFO[*burst]
	free    sim.FreeList[burst]

	stallUntil sim.Time
	stallTimer sim.Timer

	// Busy-core integral for utilization accounting.
	busyIntegral sim.Time
	lastAccount  sim.Time
}

// Burster is told when its burst completes: how long it waited in the
// run queue and how much of its wall time was frozen by stall windows
// (wall − queued − demand), so request spans can attribute CPU time and
// stall-frozen time separately. The request path implements it on the
// record that submitted the burst; Submit wraps a plain closure.
type Burster interface {
	BurstDone(queued, frozen sim.Time)
}

// burstFunc adapts a closure that ignores the accounting.
type burstFunc func()

func (f burstFunc) BurstDone(_, _ sim.Time) { f() }

// burst is one submitted burst, from Run to completion. Everything the
// completion needs — demand, submission and run-start times, the
// completion timer Stall pushes out — lives in this slot, which is also
// the event the engine fires, so a burst costs no closure and no
// allocation once the CPU's free list holds as many slots as it has
// ever had bursts outstanding.
type burst struct {
	cpu      *CPU
	owner    Burster
	demand   sim.Time
	at       sim.Time // submission time
	runStart sim.Time
	timer    sim.Timer
	slot     int // position in cpu.running while executing
}

// Fire is the completion event.
func (b *burst) Fire() { b.cpu.complete(b) }

// NewCPU returns a CPU with the given core count (minimum one) attached
// to the engine.
func NewCPU(eng *sim.Engine, cores int) *CPU {
	if cores < 1 {
		cores = 1
	}
	return &CPU{eng: eng, cores: cores}
}

// Cores returns the core count.
func (c *CPU) Cores() int { return c.cores }

// Running reports how many bursts are executing right now.
func (c *CPU) Running() int { return len(c.running) }

// QueueLen reports how many bursts are waiting for a core.
func (c *CPU) QueueLen() int { return c.runq.Len() }

// Stalled reports whether a stall window is currently open.
func (c *CPU) Stalled() bool { return c.eng.Now() < c.stallUntil }

// StallEnd returns the end of the current stall window (zero if none).
func (c *CPU) StallEnd() sim.Time {
	if !c.Stalled() {
		return 0
	}
	return c.stallUntil
}

// Submit schedules a burst consuming demand of un-stalled CPU time and
// calls done when it completes. A zero demand completes as soon as a
// core is free (and any stall has passed).
func (c *CPU) Submit(demand sim.Time, done func()) {
	if done == nil {
		panic("resource: CPU.Submit with nil completion")
	}
	c.Run(demand, burstFunc(done))
}

// Run is Submit for a caller that is its own completion: owner.BurstDone
// runs when the burst completes, with its queueing and stall accounting.
func (c *CPU) Run(demand sim.Time, owner Burster) {
	if owner == nil {
		panic("resource: CPU.Run with nil owner")
	}
	if demand < 0 {
		demand = 0
	}
	b := c.free.Get()
	if b == nil {
		b = &burst{cpu: c}
	}
	b.owner, b.demand, b.at = owner, demand, c.eng.Now()
	if len(c.running) >= c.cores {
		c.runq.Push(b)
		return
	}
	c.start(b)
}

func (c *CPU) start(b *burst) {
	c.account()
	// The finish time bakes in whatever stall window is pending now;
	// stalls that open later extend the timer via Stall.
	b.runStart = c.eng.Now()
	b.timer = c.eng.ScheduleEvent(b.demand+c.pendingStall(), b)
	b.slot = len(c.running)
	c.running = append(c.running, b)
}

func (c *CPU) complete(b *burst) {
	c.account()
	last := len(c.running) - 1
	moved := c.running[last]
	c.running[b.slot] = moved
	moved.slot = b.slot
	c.running[last] = nil
	c.running = c.running[:last]
	if nb, ok := c.runq.Pop(); ok {
		c.start(nb)
	}
	owner, queued := b.owner, b.runStart-b.at
	frozen := c.eng.Now() - b.runStart - b.demand
	if frozen < 0 {
		frozen = 0
	}
	// Retire the slot before the completion runs: the owner usually
	// submits its next burst from inside BurstDone and takes it back.
	b.owner, b.timer = nil, sim.Timer{}
	c.free.Put(b)
	owner.BurstDone(queued, frozen)
}

// pendingStall returns how much of the current stall window remains.
func (c *CPU) pendingStall() sim.Time {
	if rem := c.stallUntil - c.eng.Now(); rem > 0 {
		return rem
	}
	return 0
}

// Stall freezes all burst progress for d. Overlapping stalls accumulate:
// a second call extends the window by its full duration, modelling
// serialized flushes against one disk. The completions of all running
// bursts are pushed out by d; since every running burst loses exactly the
// same span of time, delaying the completion events is equivalent to
// tracking per-burst progress.
func (c *CPU) Stall(d sim.Time) {
	if d <= 0 {
		return
	}
	c.account()
	now := c.eng.Now()
	if c.stallUntil < now {
		c.stallUntil = now
	}
	c.stallUntil += d
	for _, b := range c.running {
		c.eng.Reschedule(b.timer, b.timer.When()-now+d)
	}
	// Re-arm the bookkeeping event that closes the busy-integral at the
	// end of the stall window.
	c.eng.Stop(c.stallTimer)
	c.stallTimer = c.eng.At(c.stallUntil, func() {
		c.account()
		c.stallTimer = sim.Timer{}
	})
}

// account integrates busy-core time up to now.
func (c *CPU) account() {
	now := c.eng.Now()
	if now <= c.lastAccount {
		return
	}
	span := now - c.lastAccount
	// During a stall every core is pinned (iowait in the paper's
	// measurements), so the part of the span overlapping the stall
	// counts as fully busy; the rest counts the running bursts.
	stallSpan := sim.Time(0)
	if c.stallUntil > c.lastAccount {
		stallSpan = c.stallUntil - c.lastAccount
		if stallSpan > span {
			stallSpan = span
		}
	}
	normalSpan := span - stallSpan
	c.busyIntegral += stallSpan*sim.Time(c.cores) + normalSpan*sim.Time(len(c.running))
	c.lastAccount = now
}

// BusyCoreTime returns the cumulative busy core-time integral up to the
// current virtual time. Utilization over an interval is the difference
// of two readings divided by (interval × Cores).
func (c *CPU) BusyCoreTime() sim.Time {
	c.account()
	return c.busyIntegral
}

// BusyCores returns the instantaneous busy-core count; during a stall it
// is the full core count.
func (c *CPU) BusyCores() int {
	if c.Stalled() {
		return c.cores
	}
	return len(c.running)
}
