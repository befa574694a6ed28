package netmodel

import (
	"testing"
	"testing/quick"
	"time"

	"millibalance/internal/sim"
)

func TestListenerAcceptsUpToBacklog(t *testing.T) {
	l := NewListener(2)
	if !l.Offer(sim.Func(func() {})) || !l.Offer(sim.Func(func() {})) {
		t.Fatal("offers within backlog were dropped")
	}
	if l.Offer(sim.Func(func() {})) {
		t.Fatal("offer beyond backlog was admitted")
	}
	if l.Len() != 2 || l.Drops() != 1 || l.Offered() != 3 {
		t.Fatalf("Len=%d Drops=%d Offered=%d", l.Len(), l.Drops(), l.Offered())
	}
}

func TestListenerAcceptFIFO(t *testing.T) {
	l := NewListener(10)
	var got []int
	for i := 0; i < 5; i++ {
		i := i
		l.Offer(sim.Func(func() { got = append(got, i) }))
	}
	for l.Accept() {
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("accept order = %v", got)
		}
	}
}

func TestListenerAcceptEmpty(t *testing.T) {
	l := NewListener(1)
	if l.Accept() {
		t.Fatal("Accept on empty returned true")
	}
}

func TestListenerZeroBacklogDropsEverything(t *testing.T) {
	l := NewListener(0)
	if l.Offer(sim.Func(func() {})) {
		t.Fatal("zero-backlog listener admitted a connection")
	}
	if l := NewListener(-3); l.Backlog() != 0 {
		t.Fatalf("negative backlog = %d", l.Backlog())
	}
}

func TestListenerFreesSlotAfterAccept(t *testing.T) {
	l := NewListener(1)
	l.Offer(sim.Func(func() {}))
	l.Accept()
	if !l.Offer(sim.Func(func() {})) {
		t.Fatal("slot not freed after accept")
	}
}

// Property: offered == admitted + dropped, and Len never exceeds backlog.
func TestQuickListenerConservation(t *testing.T) {
	f := func(ops []bool, backlogRaw uint8) bool {
		backlog := int(backlogRaw % 16)
		l := NewListener(backlog)
		admitted := uint64(0)
		acceptedRuns := uint64(0)
		for _, offer := range ops {
			if offer {
				if l.Offer(sim.Func(func() { acceptedRuns++ })) {
					admitted++
				}
			} else {
				l.Accept()
			}
			if l.Len() > backlog {
				return false
			}
		}
		if l.Offered() != admitted+l.Drops() {
			return false
		}
		return acceptedRuns+uint64(l.Len()) == admitted
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// fnSender drives a Transmission from two closures; abandon may be nil.
type fnSender struct {
	Transmission
	connect func() bool
	abandon func()
}

func (s *fnSender) Connect() bool { return s.connect() }

func (s *fnSender) Abandon() {
	if s.abandon != nil {
		s.abandon()
	}
}

func send(r *Retransmitter, connect func() bool, abandon func()) {
	s := &fnSender{connect: connect, abandon: abandon}
	r.Transmit(&s.Transmission, nil, s)
}

func TestRetransmitterImmediateSuccess(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	r := NewRetransmitter(eng, nil)
	calls := 0
	send(r, func() bool { calls++; return true }, func() { t.Fatal("onFail on success") })
	eng.Run(10 * time.Second)
	if calls != 1 || r.Retransmits() != 0 {
		t.Fatalf("calls=%d retransmits=%d", calls, r.Retransmits())
	}
}

func TestRetransmitterRetriesOnSchedule(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	r := NewRetransmitter(eng, RetransmitSchedule{time.Second, 2 * time.Second})
	var attemptTimes []sim.Time
	attempts := 0
	send(r, func() bool {
		attemptTimes = append(attemptTimes, eng.Now())
		attempts++
		return attempts == 3 // succeed on the third attempt
	}, nil)
	eng.Run(10 * time.Second)
	want := []sim.Time{0, time.Second, 3 * time.Second}
	if len(attemptTimes) != len(want) {
		t.Fatalf("attempts at %v", attemptTimes)
	}
	for i := range want {
		if attemptTimes[i] != want[i] {
			t.Fatalf("attempts at %v, want %v", attemptTimes, want)
		}
	}
	if r.Retransmits() != 2 {
		t.Fatalf("Retransmits = %d", r.Retransmits())
	}
}

func TestRetransmitterExhaustionFails(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	r := NewRetransmitter(eng, RetransmitSchedule{time.Second, time.Second, time.Second})
	attempts := 0
	failed := false
	var failAt sim.Time
	send(r, func() bool { attempts++; return false }, func() { failed = true; failAt = eng.Now() })
	eng.Run(10 * time.Second)
	if attempts != 4 { // initial + 3 retries
		t.Fatalf("attempts = %d, want 4", attempts)
	}
	if !failed || failAt != 3*time.Second {
		t.Fatalf("failed=%v at %v, want at 3s", failed, failAt)
	}
	if r.Failures() != 1 {
		t.Fatalf("Failures = %d", r.Failures())
	}
}

func TestRetransmitterNilOnFail(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	r := NewRetransmitter(eng, RetransmitSchedule{time.Millisecond})
	send(r, func() bool { return false }, nil)
	eng.Run(time.Second) // must not panic
	if r.Failures() != 1 {
		t.Fatalf("Failures = %d", r.Failures())
	}
}

func TestRetransmitterEmptySchedule(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	r := NewRetransmitter(eng, RetransmitSchedule{})
	failed := false
	send(r, func() bool { return false }, func() { failed = true })
	eng.Run(time.Second)
	if !failed {
		t.Fatal("empty schedule did not fail immediately")
	}
}

func TestDefaultRetransmitScheduleShape(t *testing.T) {
	s := DefaultRetransmitSchedule()
	if len(s) != 3 {
		t.Fatalf("default schedule length = %d", len(s))
	}
	for _, d := range s {
		if d != time.Second {
			t.Fatalf("default schedule = %v", s)
		}
	}
}

func TestLinkDeliversAfterLatency(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	link := NewLink(eng, 200*time.Microsecond)
	var at sim.Time = -1
	link.Deliver(func() { at = eng.Now() })
	eng.Run(time.Second)
	if at != 200*time.Microsecond {
		t.Fatalf("delivered at %v", at)
	}
}

func TestLinkZeroLatencySynchronous(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	link := NewLink(eng, 0)
	fired := false
	link.Deliver(func() { fired = true })
	if !fired {
		t.Fatal("zero-latency delivery was not synchronous")
	}
}

func TestLinkNegativeLatencyClamped(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	if l := NewLink(eng, -time.Second); l.Latency() != 0 {
		t.Fatalf("Latency = %v", l.Latency())
	}
}
