package lb

import (
	"testing"
	"time"

	"millibalance/internal/sim"
)

// acquireOn runs m on c the way a dispatch does — through a balancer
// whose only candidate is c, one sweep — and reports the outcome: true
// when the endpoint was acquired and the request forwarded, false when
// the acquisition failed and the dispatch was rejected.
func acquireOn(eng *sim.Engine, m Mechanism, c *Candidate, done func(ok bool)) {
	bal := New(eng, TotalRequest{}, m, []*Candidate{c}, Config{Sweeps: 1})
	bal.Dispatch(RequestInfo{},
		func(*Candidate, func()) { done(true) },
		func() { done(false) })
}

func TestOriginalAcquireImmediateSuccess(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	c := newCand("app1", 1)
	var got bool
	acquireOn(eng, NewOriginalGetEndpoint(), c, func(ok bool) { got = ok })
	if !got {
		t.Fatal("acquire with a free endpoint did not succeed synchronously")
	}
	if c.FreeEndpoints() != 0 {
		t.Fatal("endpoint not held after acquire")
	}
}

func TestOriginalAcquirePollsThenTimesOut(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	c := newCand("app1", 1)
	c.pool.TryAcquire() // exhaust the pool
	var doneAt sim.Time = -1
	var result bool
	acquireOn(eng, NewOriginalGetEndpoint(), c, func(ok bool) { result = ok; doneAt = eng.Now() })
	eng.Run(time.Second)
	if result {
		t.Fatal("acquire succeeded with an exhausted pool")
	}
	// Algorithm 1 with 100ms sleep / 300ms timeout: checks at 0, 100,
	// 200ms; the guard fails at 300ms.
	if doneAt != 300*time.Millisecond {
		t.Fatalf("acquire gave up at %v, want 300ms", doneAt)
	}
}

func TestOriginalAcquirePicksUpFreedEndpoint(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	c := newCand("app1", 1)
	c.pool.TryAcquire()
	var doneAt sim.Time = -1
	var result bool
	acquireOn(eng, NewOriginalGetEndpoint(), c, func(ok bool) { result = ok; doneAt = eng.Now() })
	// Endpoint frees at 150ms; next poll is at 200ms.
	eng.Schedule(150*time.Millisecond, func() { c.pool.Release() })
	eng.Run(time.Second)
	if !result || doneAt != 200*time.Millisecond {
		t.Fatalf("acquire = %v at %v, want success at 200ms poll", result, doneAt)
	}
}

func TestOriginalAcquireBlocksCallerForFullWindow(t *testing.T) {
	// The defining mechanism limitation: the caller learns nothing for
	// the whole timeout, and the candidate's state is untouched
	// throughout — verified here by observing no state change.
	eng := sim.NewEngine(1, 2)
	c := newCand("app1", 1)
	c.pool.TryAcquire()
	acquireOn(eng, NewOriginalGetEndpoint(), c, func(bool) {})
	eng.Run(250 * time.Millisecond)
	if c.State() != StateAvailable {
		t.Fatalf("candidate state changed to %v during acquire wait", c.State())
	}
}

func TestOriginalAcquireCustomTiming(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	m := &OriginalGetEndpoint{Sleep: 10 * time.Millisecond, Timeout: 50 * time.Millisecond}
	c := newCand("app1", 1)
	c.pool.TryAcquire()
	var doneAt sim.Time = -1
	acquireOn(eng, m, c, func(bool) { doneAt = eng.Now() })
	eng.Run(time.Second)
	if doneAt != 50*time.Millisecond {
		t.Fatalf("custom timeout gave up at %v, want 50ms", doneAt)
	}
}

func TestModifiedAcquireFailsFast(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	c := newCand("app1", 1)
	c.pool.TryAcquire()
	answered, got := false, true
	acquireOn(eng, NewModifiedGetEndpoint(), c, func(ok bool) { answered, got = true, ok })
	if !answered {
		t.Fatal("modified acquire was not synchronous")
	}
	if got {
		t.Fatal("modified acquire succeeded with an exhausted pool")
	}
	if c.State() != StateBusy {
		t.Fatalf("candidate %v after a fast failure, want busy", c.State())
	}
}

func TestModifiedAcquireSucceedsWithFreeEndpoint(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	c := newCand("app1", 2)
	var got bool
	acquireOn(eng, NewModifiedGetEndpoint(), c, func(ok bool) { got = ok })
	if !got || c.FreeEndpoints() != 1 {
		t.Fatalf("acquired=%v free=%d", got, c.FreeEndpoints())
	}
}

func TestMechanismNamesDistinct(t *testing.T) {
	if NewOriginalGetEndpoint().Name() == NewModifiedGetEndpoint().Name() {
		t.Fatal("mechanisms share a name")
	}
}
