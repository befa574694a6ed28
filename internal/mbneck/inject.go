// Package mbneck provides millibottleneck tooling on both sides of the
// experiment: the stall schedule both substrates inject from (periodic,
// random and one-shot windows; dirty-page flushing lives in
// internal/resource as the writeback daemon), its engine driver, and a
// detector implementing the paper's diagnosis methodology — find
// sub-second 100%-utilization windows and correlate them with queue
// peaks and VLRT windows.
package mbneck

import (
	"math/rand/v2"
	"time"

	"millibalance/internal/sim"
)

// Stallable is a resource whose progress can be frozen for a window —
// *resource.CPU satisfies it.
type Stallable interface {
	Stall(d sim.Time)
}

// ScheduleKind selects the arrival process of stall windows.
type ScheduleKind int

const (
	// Periodic opens a window every Interval: clocked causes such as
	// full Java garbage collections and DVFS power-state transitions.
	Periodic ScheduleKind = iota
	// Random opens windows as a Poisson process with mean gap Interval
	// and exponential lengths of mean Duration: VM-colocation
	// interference and other unscheduled causes.
	Random
	// OneShot opens one window Interval after the start: the zoom
	// scenario's scripted stall.
	OneShot
)

func (k ScheduleKind) String() string { return [...]string{"periodic", "random", "oneshot"}[k] }

// Schedule says when stall windows open and how long each lasts. It
// holds no state: a driver draws a window's gap when it arms the window
// and its length when the window opens, from its own source, so the
// engine driver (Stalls) and the wall-clock faults.Injector replay one
// sequence from one source.
type Schedule struct {
	Kind ScheduleKind
	// Interval is the periodic gap, the random mean gap, or the
	// one-shot delay.
	Interval time.Duration
	// Duration is the window length (the random mean length).
	Duration time.Duration
	// Jitter in [0, 1] scales each periodic or one-shot gap and length
	// by a uniform factor in [1-Jitter, 1+Jitter] (sim.Jitter).
	Jitter float64
	// Count, when positive, stops the schedule after that many windows.
	Count int
	// Seed seeds the wall-clock driver's source; zero derives a fixed
	// default. The engine driver draws from the engine's source.
	Seed uint64
}

// Gap draws the wait before the next window opens.
func (s Schedule) Gap(rng *rand.Rand) time.Duration {
	if s.Kind == Random {
		return sim.Exponential(rng, s.Interval)
	}
	return sim.Jitter(rng, s.Interval, s.Jitter)
}

// Length draws the length of the window that opens now.
func (s Schedule) Length(rng *rand.Rand) time.Duration {
	if s.Kind == Random {
		return sim.Exponential(rng, s.Duration)
	}
	return sim.Jitter(rng, s.Duration, s.Jitter)
}

// Done reports whether a driver that has opened fired windows stops.
func (s Schedule) Done(fired int) bool {
	return s.Kind == OneShot && fired > 0 || s.Count > 0 && fired >= s.Count
}

// Stalls drives a Schedule on the engine's clock, stalling its target
// for each window. It draws from the engine's source, so a run replays
// from its seed.
type Stalls struct {
	eng    *sim.Engine
	target Stallable
	sched  Schedule
	timer  sim.Timer
	armed  bool
	fired  int
}

// NewStalls binds target to sched. A periodic or random schedule needs
// a positive interval and duration.
func NewStalls(eng *sim.Engine, target Stallable, sched Schedule) *Stalls {
	if target == nil {
		panic("mbneck: nil stall target")
	}
	if sched.Kind != OneShot && (sched.Interval <= 0 || sched.Duration <= 0) {
		panic("mbneck: a recurring schedule requires positive interval and duration")
	}
	return &Stalls{eng: eng, target: target, sched: sched}
}

// Fired reports how many windows have opened.
func (s *Stalls) Fired() int { return s.fired }

// Start arms the first window.
func (s *Stalls) Start() {
	if s.armed {
		panic("mbneck: Start called twice")
	}
	s.armed = true
	s.timer = s.eng.ScheduleEvent(s.sched.Gap(s.eng.Rand()), s)
}

// Fire opens a window and arms the next one: the engine's callback.
func (s *Stalls) Fire() {
	s.fired++
	s.target.Stall(s.sched.Length(s.eng.Rand()))
	if !s.sched.Done(s.fired) {
		s.timer = s.eng.ScheduleEvent(s.sched.Gap(s.eng.Rand()), s)
	}
}

// Stop disarms the driver; a stall in progress runs out.
func (s *Stalls) Stop() {
	s.eng.Stop(s.timer)
	s.timer = sim.Timer{}
}
