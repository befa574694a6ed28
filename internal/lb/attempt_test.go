package lb

import (
	"testing"
	"time"

	"millibalance/internal/sim"
)

// A caller with a per-request record of its own embeds an Attempt in it
// and dispatches through Start/Complete, reusing the Attempt for the
// record's next request. These tests pin that path: it allocates
// nothing, a reused Attempt starts clean, and misuse is loud.

// record is a caller-owned per-request record: it completes forwarded
// requests at once and counts rejections.
type record struct {
	Attempt
	bal       *Balancer
	forwarded []*Candidate
	rejected  int
	hold      bool // keep the response outstanding
}

func (r *record) Forward(c *Candidate) {
	r.forwarded = append(r.forwarded, c)
	if !r.hold {
		r.bal.Complete(&r.Attempt)
	}
}

func (r *record) Rejected() { r.rejected++ }

func newRecordBalancer(mech func(*sim.Engine) Mechanism, endpoints int, cfg Config, names ...string) (*sim.Engine, *Balancer) {
	eng := sim.NewEngine(1, 2)
	cands := make([]*Candidate, len(names))
	for i, n := range names {
		cands[i] = NewCandidate(n, sim.NewPool(endpoints))
	}
	return eng, New(eng, TotalRequest{}, mech(eng), cands, cfg)
}

func modified(*sim.Engine) Mechanism { return NewModifiedGetEndpoint() }
func original(*sim.Engine) Mechanism { return NewOriginalGetEndpoint() }

// TestStartCompleteZeroAlloc: a dispatch through a reused Attempt
// allocates nothing — on the clean path, and on the path that fails on a
// candidate first (the tried list keeps its backing array).
func TestStartCompleteZeroAlloc(t *testing.T) {
	_, bal := newRecordBalancer(modified, 1, Config{}, "app1", "app2")
	r := &record{bal: bal}
	r.forwarded = make([]*Candidate, 0, 8192)
	info := RequestInfo{RequestBytes: 400, ResponseBytes: 4000}
	if allocs := testing.AllocsPerRun(1000, func() { bal.Start(&r.Attempt, info, r) }); allocs != 0 {
		t.Fatalf("Start+Complete allocates %.1f objects, want 0", allocs)
	}

	// Exhaust app1's only endpoint: every dispatch now fails on app1
	// (lowest lb_value once app2 has caught up) or goes straight to app2.
	blocker := &record{bal: bal, hold: true}
	bal.Start(&blocker.Attempt, info, blocker)
	bal.Start(&r.Attempt, info, r) // warms the tried list
	if allocs := testing.AllocsPerRun(1000, func() { bal.Start(&r.Attempt, info, r) }); allocs != 0 {
		t.Fatalf("Start+Complete past a failed candidate allocates %.1f objects, want 0", allocs)
	}
	if r.rejected != 0 {
		t.Fatalf("%d dispatches rejected with a free candidate", r.rejected)
	}
}

// TestAttemptReuseStartsClean: a dispatch that swept, paused and was
// rejected leaves nothing behind — the same Attempt then dispatches
// normally, on its first sweep, with an empty tried list.
func TestAttemptReuseStartsClean(t *testing.T) {
	eng, bal := newRecordBalancer(original, 1, Config{Sweeps: 2, SweepPause: 50 * time.Millisecond}, "app1")
	blocker := &record{bal: bal, hold: true}
	bal.Start(&blocker.Attempt, RequestInfo{}, blocker)

	r := &record{bal: bal}
	bal.Start(&r.Attempt, RequestInfo{}, r)
	// Sweep 1 polls 0/100/200 ms and fails at 300; pause 50; sweep 2
	// polls 350/450/550 and fails at 650 → rejected.
	eng.Run(649 * time.Millisecond)
	if r.rejected != 0 {
		t.Fatal("rejected before the second sweep timed out")
	}
	eng.Run(650 * time.Millisecond)
	if r.rejected != 1 || len(r.forwarded) != 0 {
		t.Fatalf("rejected=%d forwarded=%d after two failed sweeps, want 1/0", r.rejected, len(r.forwarded))
	}

	bal.Complete(&blocker.Attempt) // the endpoint frees; app1 is Available again
	bal.Start(&r.Attempt, RequestInfo{}, r)
	if len(r.forwarded) != 1 || r.rejected != 1 {
		t.Fatalf("reused attempt: forwarded=%d rejected=%d, want a synchronous forward", len(r.forwarded), r.rejected)
	}
	if st := bal.Candidates()[0].State(); st != StateAvailable {
		t.Fatalf("candidate left %v after a completed response", st)
	}
}

// TestPollAbortsOnMechanismSwap: swapping the balancer's mechanism to
// one that does not poll ends a poll in progress at its next check, as a
// quarantine of the polled candidate does — the control plane's remedy
// frees the blocked worker instead of holding it for the rest of the
// acquire window.
func TestPollAbortsOnMechanismSwap(t *testing.T) {
	eng, bal := newRecordBalancer(original, 1, Config{Sweeps: 1}, "app1")
	blocker := &record{bal: bal, hold: true}
	bal.Start(&blocker.Attempt, RequestInfo{}, blocker)
	r := &record{bal: bal}
	bal.Start(&r.Attempt, RequestInfo{}, r)
	eng.Run(50 * time.Millisecond)
	bal.SetMechanism(NewModifiedGetEndpoint())
	eng.Run(99 * time.Millisecond)
	if r.rejected != 0 {
		t.Fatal("poll ended before its next check")
	}
	eng.Run(100 * time.Millisecond)
	if r.rejected != 1 {
		t.Fatalf("rejected=%d at the first check after the swap, want 1", r.rejected)
	}
}

// TestAttemptMisusePanics: starting an Attempt that is still
// dispatching, completing one twice, and completing one that was never
// forwarded are bugs in the caller and must not pass silently.
func TestAttemptMisusePanics(t *testing.T) {
	_, bal := newRecordBalancer(modified, 2, Config{}, "app1")
	r := &record{bal: bal, hold: true}
	bal.Start(&r.Attempt, RequestInfo{}, r)
	mustPanic(t, "Start on an attempt whose response is outstanding", func() { bal.Start(&r.Attempt, RequestInfo{}, r) })
	bal.Complete(&r.Attempt)
	mustPanic(t, "second Complete", func() { bal.Complete(&r.Attempt) })
	mustPanic(t, "Complete on a fresh attempt", func() { bal.Complete(&Attempt{}) })
	mustPanic(t, "Start with a nil forwarder", func() { bal.Start(&Attempt{}, RequestInfo{}, nil) })
	mustPanic(t, "Fire on an attempt that is not waiting", func() { (&Attempt{}).Fire() })
	if got := bal.Candidates()[0].InFlight(); got != 0 {
		t.Fatalf("in-flight = %d after the misuse attempts, want 0", got)
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}
