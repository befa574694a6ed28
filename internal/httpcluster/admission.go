package httpcluster

import (
	"sync"
	"sync/atomic"
	"time"

	"millibalance/internal/admission"
)

// Wall-clock wiring for the overload-control plane (internal/admission).
// The simulator queues admission waiters as engine events; here each
// waiter is a parked goroutine holding a buffered channel. The plane
// owns the wait queue; the Gate owns the lock-free limit word, the
// limiter and the CoDel judge, so the control laws are byte-for-byte the
// same code on both substrates.

// wallWaiter is one parked request. ch is buffered so handoff never
// blocks on a waiter that timed out between being popped and receiving.
type wallWaiter struct {
	ch  chan bool
	enq time.Duration
	out bool // popped by handoff; the timeout path must honor ch
}

// admissionPlane bridges the gate to goroutine-per-request reality:
// admit parks over-limit interactive requests, handoff (the gate's
// release hook) pops them — newest-first under overload — and runs the
// CoDel judgment on their sojourn.
type admissionPlane struct {
	g       *admission.Gate
	now     func() time.Duration
	waiting *atomic.Int64 // the proxy's accept_wait gauge

	mu      sync.Mutex
	waiters []*wallWaiter
}

func newAdmissionPlane(g *admission.Gate, now func() time.Duration, waiting *atomic.Int64) *admissionPlane {
	pl := &admissionPlane{g: g, now: now, waiting: waiting}
	g.SetReleaseHook(pl.handoff)
	return pl
}

// admit gates one request: lock-free fast path when a slot is free,
// immediate shed for background requests without headroom, bounded
// parked wait for interactive ones. Returns whether the request holds a
// gate slot.
func (pl *admissionPlane) admit(cls admission.Class) bool {
	if pl.g.TryAcquire(cls) {
		return true
	}
	if cls == admission.Background {
		pl.g.Drop(pl.now(), cls, admission.ReasonPriority)
		return false
	}
	w := &wallWaiter{ch: make(chan bool, 1), enq: pl.now()}
	pl.mu.Lock()
	if len(pl.waiters) >= pl.g.MaxQueue() {
		pl.mu.Unlock()
		pl.g.Drop(pl.now(), cls, admission.ReasonQueueFull)
		return false
	}
	// Re-check under the mutex. A release between the fast-path failure
	// and the lock would otherwise be a lost wakeup: handoff holds this
	// mutex too, so once we are queued every freed slot sees us.
	if pl.g.TryAcquire(cls) {
		pl.mu.Unlock()
		return true
	}
	pl.waiters = append(pl.waiters, w)
	pl.g.EnterQueue()
	pl.mu.Unlock()

	pl.waiting.Add(1)
	defer pl.waiting.Add(-1)
	t := time.NewTimer(pl.g.MaxWait())
	defer t.Stop()
	select {
	case ok := <-w.ch:
		return ok
	case <-t.C:
	}
	pl.mu.Lock()
	if w.out {
		// Handoff popped us concurrently with the timeout; the slot (or
		// CoDel verdict) is already committed, so honor it.
		pl.mu.Unlock()
		return <-w.ch
	}
	pl.remove(w)
	pl.mu.Unlock()
	pl.g.LeaveQueue()
	pl.g.Drop(pl.now(), admission.Interactive, admission.ReasonMaxWait)
	return false
}

// remove unlinks a timed-out waiter. Caller holds pl.mu.
func (pl *admissionPlane) remove(w *wallWaiter) {
	for i, q := range pl.waiters {
		if q == w {
			pl.waiters = append(pl.waiters[:i], pl.waiters[i+1:]...)
			return
		}
	}
}

// handoff runs as the gate's release hook: while slots and waiters
// remain, pop one (LIFO when overloaded), judge its sojourn, and either
// wake it admitted or drop it and keep going. The popped waiter's slot
// is claimed before unlinking it, so a waiter is woken admitted exactly
// when it holds a slot.
func (pl *admissionPlane) handoff() {
	if pl.g.Queued() == 0 {
		return
	}
	for {
		pl.mu.Lock()
		if len(pl.waiters) == 0 {
			pl.mu.Unlock()
			return
		}
		if !pl.g.TryAcquire(admission.Interactive) {
			pl.mu.Unlock()
			return
		}
		var w *wallWaiter
		if pl.g.LIFOActive() {
			w = pl.waiters[len(pl.waiters)-1]
			pl.waiters = pl.waiters[:len(pl.waiters)-1]
		} else {
			w = pl.waiters[0]
			pl.waiters = pl.waiters[1:]
		}
		w.out = true
		pl.mu.Unlock()
		pl.g.LeaveQueue()
		now := pl.now()
		if pl.g.JudgeSojourn(now, now-w.enq) {
			pl.g.Cancel()
			pl.g.Drop(now, admission.Interactive, admission.ReasonCoDel)
			w.ch <- false
			continue
		}
		w.ch <- true
		return
	}
}
