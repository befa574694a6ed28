package faults

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"millibalance/internal/mbneck"
	"millibalance/internal/obs"
)

// Schedule and its kinds are internal/mbneck's, so one scenario opens
// the same windows on the simulator and on the wall clock.
type (
	Schedule     = mbneck.Schedule
	ScheduleKind = mbneck.ScheduleKind
)

const (
	Periodic = mbneck.Periodic
	Random   = mbneck.Random
	OneShot  = mbneck.OneShot
)

// Injector drives a Schedule on the wall clock, opening its Shape for
// each window and emitting fault_start/fault_end events. Construct with
// NewInjector.
type Injector struct {
	shape Shape
	sched Schedule

	log   *obs.EventLog
	epoch time.Time

	mu    sync.Mutex
	stop  chan struct{} // nil while stopped
	wg    sync.WaitGroup
	fired atomic.Int64
}

// NewInjector binds shape to sched.
func NewInjector(shape Shape, sched Schedule) *Injector {
	if sched.Interval <= 0 {
		sched.Interval = 500 * time.Millisecond
	}
	if sched.Duration <= 0 {
		sched.Duration = 200 * time.Millisecond
	}
	return &Injector{shape: shape, sched: sched}
}

// Name identifies the injector as shapeKind:scheduleKind.
func (in *Injector) Name() string {
	return in.shape.Kind() + ":" + in.sched.Kind.String()
}

// Shape returns the bound shape.
func (in *Injector) Shape() Shape { return in.shape }

// Fired reports opened windows.
func (in *Injector) Fired() int { return int(in.fired.Load()) }

// Arm attaches the event log and epoch. Call before Start: the runner
// reads them without a lock.
func (in *Injector) Arm(log *obs.EventLog, epoch time.Time) { in.log, in.epoch = log, epoch }

// Start launches the schedule. A second Start is a no-op until Stop.
func (in *Injector) Start() {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.stop == nil {
		in.stop = make(chan struct{})
		in.wg.Add(1)
		go in.run(in.stop)
	}
}

// Stop halts the schedule and waits for the runner goroutine. Windows
// already open close on their own timers. Idempotent.
func (in *Injector) Stop() {
	in.mu.Lock()
	stop := in.stop
	in.stop = nil
	in.mu.Unlock()
	if stop != nil {
		close(stop)
		in.wg.Wait()
	}
}

func (in *Injector) run(stop chan struct{}) {
	defer in.wg.Done()
	seed := in.sched.Seed
	if seed == 0 {
		seed = 0x6d696c6c69 // deterministic default
	}
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	for fired := 0; !in.sched.Done(fired); fired++ {
		t := time.NewTimer(in.sched.Gap(rng))
		select {
		case <-stop:
			t.Stop()
			return
		case <-t.C:
		}
		in.open(in.sched.Length(rng))
	}
}

// open fires one fault window of length d and schedules its closing
// event.
func (in *Injector) open(d time.Duration) {
	in.fired.Add(1)
	if log, epoch := in.log, in.epoch; log != nil {
		ev := obs.Event{
			T:       time.Since(epoch),
			Kind:    obs.KindFaultStart,
			Source:  in.Name(),
			Backend: in.shape.Target(),
			Fault:   in.shape.Kind(),
			Window:  d,
		}
		log.Append(ev)
		time.AfterFunc(d, func() {
			ev.T, ev.Kind = time.Since(epoch), obs.KindFaultEnd
			log.Append(ev)
		})
	}
	in.shape.Open(d)
}
