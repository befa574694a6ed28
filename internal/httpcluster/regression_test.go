package httpcluster

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"millibalance/internal/obs"
)

// Regression tests for the sim↔proxy parity bugfixes: the wall-clock
// balancer previously read the mechanism once per dispatch (so blocked
// pollers never noticed remediation), charged a failed sticky backend
// twice, and allocated a tried map per sweep. The input guards on
// SetWeight and the app server's latency EWMA follow.

// TestSetWeightRejectsNonFinite pins the SetWeight guard: NaN slipped
// through the old `w <= 0` check (NaN compares false) and ±Inf passed
// it outright (internal/check testdata/weight-nan.script and
// weight-inf.script).
func TestSetWeightRejectsNonFinite(t *testing.T) {
	be := NewBackend("a", "http://unused", 1)
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, 0} {
		be.SetWeight(w)
		if got := be.Weight(); got != 1 {
			t.Fatalf("SetWeight(%g): weight %g, want 1", w, got)
		}
	}
	be.SetWeight(2.5)
	if got := be.Weight(); got != 2.5 {
		t.Fatalf("finite weight: %g, want 2.5", got)
	}
}

// TestRecordLatencyReseedsPoisonedEWMA pins the ewmaLat guard: before
// it, a non-finite EWMA state folded into every subsequent CAS update
// (NaN arithmetic is absorbing), permanently poisoning the latency
// estimate the probe endpoint serves. The guarded fold reseeds from the
// next sample instead.
func TestRecordLatencyReseedsPoisonedEWMA(t *testing.T) {
	a := &AppServer{}
	a.recordLatency(10 * time.Millisecond)
	if got := a.EWMALatency(); got != 10*time.Millisecond {
		t.Fatalf("first sample seeded %v, want 10ms", got)
	}
	a.ewmaLat.Store(math.Float64bits(math.NaN()))
	a.recordLatency(20 * time.Millisecond)
	if got := a.EWMALatency(); got != 20*time.Millisecond {
		t.Fatalf("poisoned EWMA reseeded to %v, want 20ms", got)
	}
	// A negative sample (stepped clock) clamps to zero, pulling the
	// EWMA down by one alpha step rather than corrupting it.
	a.recordLatency(-time.Second)
	if got := a.EWMALatency(); got != 16*time.Millisecond {
		t.Fatalf("negative sample folded to %v, want 16ms", got)
	}
}

// TestSwapMidPollAborts: a worker polling a stalled backend under the
// original mechanism must be freed as soon as the control plane swaps
// to the modified mechanism, not after the full acquire window.
func TestSwapMidPollAborts(t *testing.T) {
	a := NewBackend("a", "u", 1)
	bal := NewBalancer(PolicyCurrentLoad, MechanismOriginal, []*Backend{a},
		Config{AcquireSleep: 100 * time.Millisecond, AcquireTimeout: 300 * time.Millisecond, Sweeps: 1})
	if _, _, err := bal.Acquire(0); err != nil { // hold the only endpoint
		t.Fatal(err)
	}

	done := make(chan time.Duration, 1)
	start := time.Now()
	go func() {
		_, _, _ = bal.Acquire(0) // blocks polling the exhausted pool
		done <- time.Since(start)
	}()

	time.Sleep(30 * time.Millisecond) // let the poller enter its sleep
	bal.SetMechanism(MechanismModified)

	select {
	case elapsed := <-done:
		if elapsed > 150*time.Millisecond {
			t.Fatalf("poller freed after %v, want well before the 300ms window", elapsed)
		}
	case <-time.After(time.Second):
		t.Fatal("poller still blocked 1s after mechanism swap")
	}
}

// TestQuarantineMidPollAborts: quarantining the polled backend must
// abort the poll the same way — no endpoint is coming from a drained
// backend.
func TestQuarantineMidPollAborts(t *testing.T) {
	a := NewBackend("a", "u", 1)
	b := NewBackend("b", "u", 4)
	bal := NewBalancer(PolicyTotalRequest, MechanismOriginal, []*Backend{a, b},
		Config{AcquireSleep: 100 * time.Millisecond, AcquireTimeout: 300 * time.Millisecond, Sweeps: 1})
	if _, _, err := bal.Acquire(0); err != nil { // a wins the tie-break, pool exhausted
		t.Fatal(err)
	}
	if be, rel, err := bal.Acquire(0); err != nil || be.Name() != "b" {
		t.Fatalf("second acquire: %v %v", be, err)
	} else {
		rel.Done(0) // total_request keeps b's lb_value at 1: tied with a
	}

	done := make(chan struct{})
	start := time.Now()
	go func() {
		// a has the lower lb_value, so the poller lands on a and blocks.
		be, rel, err := bal.Acquire(0)
		if err == nil {
			if be.Name() != "b" {
				t.Errorf("post-abort dispatch on %s, want b", be.Name())
			}
			rel.Done(0)
		}
		close(done)
	}()

	time.Sleep(30 * time.Millisecond)
	bal.SetQuarantine("a", true)

	select {
	case <-done:
		if elapsed := time.Since(start); elapsed > 150*time.Millisecond {
			t.Fatalf("poller freed after %v, want well before the 300ms window", elapsed)
		}
	case <-time.After(time.Second):
		t.Fatal("poller still blocked 1s after quarantine")
	}
}

// TestStickyFallbackChargesPinnedOnce: a pinned backend whose endpoint
// acquisition fails joins the dispatch's tried set like any failed
// choice, so one refused request charges it one failure. The proxy's
// fallback once started a fresh Acquire with an empty tried set, which
// with no other backend Available picked the pinned backend again and
// counted a second failure toward Error.
func TestStickyFallbackChargesPinnedOnce(t *testing.T) {
	a := NewBackend("a", "u", 1)
	bal := NewBalancer(PolicyCurrentLoad, MechanismModified, []*Backend{a},
		Config{Sweeps: 1, StickySessions: true, ErrorThreshold: 2, ErrorAfter: time.Nanosecond})
	_, rel, err := bal.AcquireSession("s", 0) // binds s to a, holds its only endpoint
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := bal.AcquireSession("s", 0); err != ErrNoBackend {
		t.Fatalf("second acquire: %v, want ErrNoBackend", err)
	}
	if st := a.State(); st != BackendBusy {
		t.Fatalf("pinned backend %v after one refused request, want busy (one failure, not two)", st)
	}
	rel.Done(0)
}

// TestRoundRobinStableRotation: round_robin must rotate over the stable
// backend list through the proxy's driver too, so eligibility churn (a
// quarantine opening and closing) cannot re-align the cursor and hand
// consecutive dispatches to the same backend.
func TestRoundRobinStableRotation(t *testing.T) {
	a := NewBackend("a", "u", 10)
	b := NewBackend("b", "u", 10)
	bal := NewBalancer(PolicyRoundRobin, MechanismModified, []*Backend{a, b}, Config{Sweeps: 1})

	dispatch := func(n int) map[string]int {
		t.Helper()
		counts := map[string]int{}
		prev := ""
		for i := 0; i < n; i++ {
			be, rel, err := bal.Acquire(0)
			if err != nil {
				t.Fatal(err)
			}
			counts[be.Name()]++
			if len(counts) == 2 && be.Name() == prev {
				t.Fatalf("round_robin chose %s twice in a row with both eligible", prev)
			}
			prev = be.Name()
			rel.Done(0)
		}
		return counts
	}

	if got := dispatch(6); got["a"] != 3 || got["b"] != 3 {
		t.Fatalf("healthy rotation %v, want 3/3", got)
	}

	// Churn eligibility: with b drained the cursor keeps advancing over
	// the stable list, and after re-admission rotation resumes fairly.
	bal.SetQuarantine("b", true)
	if got := dispatch(3); got["b"] != 0 {
		t.Fatalf("quarantined backend dispatched: %v", got)
	}
	bal.SetQuarantine("b", false)
	if got := dispatch(6); got["a"] != 3 || got["b"] != 3 {
		t.Fatalf("post-churn rotation %v, want 3/3", got)
	}
}

// TestAcquireZeroAlloc guards the proxy hot path: a successful
// dispatch-and-complete cycle must not allocate (parity with the
// internal/lb triedSet fix), alone or contended.
func TestAcquireZeroAlloc(t *testing.T) {
	a := NewBackend("a", "u", 4)
	b := NewBackend("b", "u", 4)
	bal := NewBalancer(PolicyCurrentLoad, MechanismModified, []*Backend{a, b}, Config{Sweeps: 1})
	allocs := testing.AllocsPerRun(200, func() {
		_, rel, err := bal.Acquire(128)
		if err != nil {
			t.Fatal(err)
		}
		rel.Done(256)
	})
	if allocs != 0 {
		t.Fatalf("Acquire+Done allocates %.1f objects per op, want 0", allocs)
	}
	// GOMAXPROCS-many dispatchers on one balancer, the parallel arm of
	// BenchmarkPrequalDispatchOverhead. AllocsPerRun pins a single P, so
	// this counts mallocs around the whole burst: a dispatch that
	// allocates reads at least 1 per op, while starting the dispatchers
	// amortises to far under 0.01.
	t.Run("parallel", func(t *testing.T) {
		for _, procs := range []int{1, 2, 4} {
			if got := parallelDispatchMallocs(t, procs); got >= 0.01 {
				t.Errorf("GOMAXPROCS=%d: contended Acquire+Done allocates %.3f objects per op, want 0", procs, got)
			}
		}
	})
}

// parallelBackends is the tier the parallel dispatch arms share: wide
// enough that no dispatcher is ever refused an endpoint.
func parallelBackends() []*Backend {
	return []*Backend{
		NewBackend("a", "u", 1024), NewBackend("b", "u", 1024), NewBackend("c", "u", 1024), NewBackend("d", "u", 1024),
	}
}

// parallelDispatchMallocs runs procs dispatchers of 20k round trips
// each at GOMAXPROCS=procs and returns heap objects allocated per trip.
func parallelDispatchMallocs(t *testing.T, procs int) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	bal := NewBalancer(PolicyCurrentLoad, MechanismModified, parallelBackends(), Config{Sweeps: 1})
	const trips = 20_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var wg sync.WaitGroup
	for w := 0; w < procs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < trips; i++ {
				_, rel, err := bal.Acquire(128)
				if err != nil {
					t.Error(err)
					return
				}
				rel.Done(256)
			}
		}()
	}
	wg.Wait()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(procs*trips)
}

// TestAcquireZeroAllocEventLogArmed is the same cycle with every
// decision recorded: once the event ring has wrapped, the candidate
// table goes from the balancer's parked scratch buffer into storage the
// ring already owns, and the armed hot path allocates nothing either.
func TestAcquireZeroAllocEventLogArmed(t *testing.T) {
	backends := []*Backend{
		NewBackend("a", "u", 4), NewBackend("b", "u", 4), NewBackend("c", "u", 4), NewBackend("d", "u", 4),
	}
	bal := NewBalancer(PolicyCurrentLoad, MechanismModified, backends, Config{Sweeps: 1})
	const capacity = 300
	log := obs.NewEventLog(capacity)
	bal.SetEventLog(log, "proxy", time.Now())
	cycle := func() {
		_, rel, err := bal.Acquire(128)
		if err != nil {
			t.Fatal(err)
		}
		rel.Done(256)
	}
	for i := 0; i <= capacity; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(2*capacity, cycle); allocs != 0 {
		t.Fatalf("Acquire+Done with the event log armed allocates %.2f objects per op, want 0", allocs)
	}
	if got := log.Overwritten(); got < capacity {
		t.Fatalf("the ring never wrapped: %d events overwritten", got)
	}
	last := log.Events()[capacity-1]
	if last.Kind != obs.KindDecision || len(last.Candidates) != len(backends) || last.Candidates[3].Name != "d" {
		t.Fatalf("last decision: %+v", last)
	}
}

// TestEmitDecisionConcurrentScratch: dispatchers on several goroutines
// share the balancer's one parked scratch buffer; whoever finds it taken
// makes its own, and every recorded decision carries a whole table — in
// the ring, which wraps (a chunk and a bit), and as a hook subscribed to
// decisions is handed it.
func TestEmitDecisionConcurrentScratch(t *testing.T) {
	backends := []*Backend{NewBackend("a", "u", 64), NewBackend("b", "u", 64), NewBackend("c", "u", 64)}
	bal := NewBalancer(PolicyCurrentLoad, MechanismModified, backends, Config{Sweeps: 1})
	log := obs.NewEventLog(300)
	var hooked atomic.Int64
	log.SetAppendHook(func(ev obs.Event) {
		hooked.Add(1)
		if len(ev.Candidates) != 3 || ev.Candidates[0].Name != "a" || ev.Candidates[2].Name != "c" {
			t.Errorf("hook handed a torn candidate table: %+v", ev)
		}
	}, true)
	bal.SetEventLog(log, "proxy", time.Now())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				_, rel, err := bal.Acquire(1)
				if err != nil {
					t.Error(err)
					return
				}
				rel.Done(1)
			}
		}()
	}
	wg.Wait()
	if got := log.Appended(); got != 8*500 || hooked.Load() != 8*500 {
		t.Fatalf("%d events, %d of them hooked, for %d dispatches", got, hooked.Load(), 8*500)
	}
	for _, ev := range log.Events() {
		if len(ev.Candidates) != 3 || ev.Candidates[0].Name != "a" || ev.Candidates[1].Name != "b" || ev.Candidates[2].Name != "c" {
			t.Fatalf("decision with a torn candidate table: %+v", ev)
		}
	}
}

func BenchmarkAcquireAllocs(b *testing.B) {
	backends := []*Backend{
		NewBackend("a", "u", 64),
		NewBackend("b", "u", 64),
		NewBackend("c", "u", 64),
		NewBackend("d", "u", 64),
	}
	bal := NewBalancer(PolicyCurrentLoad, MechanismModified, backends, Config{Sweeps: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, rel, err := bal.Acquire(128)
		if err != nil {
			b.Fatal(err)
		}
		rel.Done(256)
	}
}
