package workload

import (
	"testing"
	"time"
	"unsafe"

	"millibalance/internal/sim"
)

// A Group recycles its request records through a free list: Finish hands
// the record back, and the next request any client issues takes it over.
// These tests pin the contract that makes the reuse safe — Finish is the
// last touch, a stale touch is loud — in the style of the engine's timer
// node tests (internal/sim/recycle_test.go).

// TestGroupRecyclesRequestRecords: a closed loop that issues thousands
// of requests allocates only as many records as it ever had in flight.
func TestGroupRecyclesRequestRecords(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	records := map[*Request]bool{}
	inFlight, peak := 0, 0
	var submit SubmitFunc = func(req *Request) {
		records[req] = true
		if inFlight++; inFlight > peak {
			peak = inFlight
		}
		eng.Schedule(time.Millisecond, func() {
			inFlight--
			req.Finish(Outcome{OK: true, ResponseTime: time.Millisecond})
		})
	}
	g := NewGroup(eng, 50, ClientConfig{ThinkTime: 20 * time.Millisecond, Mix: BrowseOnlyMix()}, submit)
	g.Start()
	eng.Run(5 * time.Second)
	if g.Issued() < 5000 {
		t.Fatalf("issued only %d requests", g.Issued())
	}
	if len(records) != peak {
		t.Fatalf("%d requests used %d records with at most %d in flight: the free list is not LIFO-reusing them",
			g.Issued(), len(records), peak)
	}
	if g.free.Len()+inFlight != len(records) {
		t.Fatalf("%d records on the free list + %d in flight != %d records ever made", g.free.Len(), inFlight, len(records))
	}
}

// TestIssueAllocatesOnlyNewRecords: once the free list holds a record,
// issuing and finishing a request allocates nothing in this package —
// no Request, no done closure, no think-timer closure.
func TestIssueAllocatesOnlyNewRecords(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	var pending *Request
	g := NewGroup(eng, 1, ClientConfig{ThinkTime: time.Millisecond, Mix: BrowseOnlyMix()},
		func(req *Request) { pending = req })
	g.Start()
	cycle := func() {
		for pending == nil {
			eng.Step() // the think timer fires and the client issues
		}
		req := pending
		pending = nil
		req.Finish(Outcome{OK: true})
	}
	cycle()
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("think → issue → finish allocates %.1f objects per request, want 0", allocs)
	}
}

// TestClientLayout pins the closed-loop client record at 72 bytes: the
// group pointer, the id and the navigation cursor in two words, then the
// 56-byte timer node it owns (internal/sim TestTimerNodeLayout). A
// paper-scale group is 70 000 of them in one slab. Before the client
// owned its node it was 48 bytes plus a 56-byte node from the engine
// and an 8-byte free-list pointer to it: 112 bytes in three places.
func TestClientLayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(client{}); got != 72 {
		t.Errorf("client is %d bytes, want 72", got)
	}
}

// TestFinishedRecordIsPoisoned: after Finish returns, the record reads
// as finished and its fields are poison, so code that touches a request
// after finishing it computes nonsense a run's digest cannot miss (a
// response time of centuries, a nil interaction) instead of quietly
// reading the values of the next request on the same record.
func TestFinishedRecordIsPoisoned(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	var first *Request
	var seen Outcome
	g := NewGroup(eng, 1, ClientConfig{
		ThinkTime: time.Millisecond,
		Mix:       BrowseOnlyMix(),
		OnOutcome: func(req *Request, o Outcome) {
			// The outcome hook runs before the record is recycled and
			// still sees the request whole.
			if req.Interaction == nil || req.ID == 0 || req.IssuedAt < 0 {
				t.Errorf("OnOutcome saw a recycled record: %+v", req)
			}
			seen = o
		},
	}, func(req *Request) {
		if first == nil {
			first = req
		}
	})
	g.Start()
	for first == nil {
		eng.Step()
	}
	issuedAt := first.IssuedAt
	first.Finish(Outcome{OK: true, ResponseTime: 3 * time.Millisecond})
	if !seen.OK || seen.ResponseTime != 3*time.Millisecond {
		t.Fatalf("outcome not delivered: %+v", seen)
	}
	if !first.Finished() {
		t.Fatal("recycled record does not report Finished")
	}
	if first.Interaction != nil || first.Span != nil || first.ClientID >= 0 {
		t.Fatalf("recycled record still carries its request: %+v", first)
	}
	if stale := eng.Now() - first.IssuedAt; stale < 100*365*24*time.Hour {
		t.Fatalf("response time from a stale IssuedAt is %v (was issued at %v): not loud enough to move a digest", stale, issuedAt)
	}
	if stale := eng.Now() - first.AdmittedAt; stale < 100*365*24*time.Hour {
		t.Fatalf("admit→respond time from a stale AdmittedAt is %v", stale)
	}
}

// TestFinishTwicePanicsAcrossReuse: the finished flag survives recycling.
// A second Finish through a stale pointer panics while the record waits
// on the free list; once the record carries a new request, the stale
// Finish completes that request — and the request's own Finish then
// panics, so the double completion is still caught.
func TestFinishTwicePanicsAcrossReuse(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	var issued []*Request
	g := NewGroup(eng, 1, ClientConfig{ThinkTime: time.Millisecond, Mix: BrowseOnlyMix()},
		func(req *Request) { issued = append(issued, req) })
	g.Start()
	for len(issued) == 0 {
		eng.Step()
	}
	stale := issued[0]
	stale.Finish(Outcome{OK: true})
	mustPanic(t, "second Finish on a record waiting on the free list", func() { stale.Finish(Outcome{}) })

	for len(issued) == 1 {
		eng.Step() // the client thinks, then issues its next request
	}
	if issued[1] != stale {
		t.Fatal("the next request did not reuse the finished record")
	}
	if stale.Finished() || stale.ID != 2 {
		t.Fatalf("reissued record reads finished=%v id=%d, want a live request 2", stale.Finished(), stale.ID)
	}
	stale.Finish(Outcome{}) // the stale holder strikes the new occupant
	mustPanic(t, "the new occupant's own Finish after a stale one", func() { issued[1].Finish(Outcome{OK: true}) })
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
