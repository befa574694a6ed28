package admission

import (
	"math/rand/v2"
	"sync"
	"testing"
	"time"
)

func TestParseSpec(t *testing.T) {
	cases := []struct {
		spec    string
		want    *Config
		wantErr bool
	}{
		{spec: "", want: nil},
		{spec: "off", want: nil},
		{spec: "none", want: nil},
		{spec: "fixed", want: &Config{Limiter: LimiterStatic}},
		{spec: "static:32", want: &Config{Limiter: LimiterStatic, Limit: 32}},
		{spec: "aimd", want: &Config{Limiter: LimiterAIMD}},
		{spec: "codel+gradient", want: &Config{Limiter: LimiterGradient, CoDel: true}},
		{spec: "codel+gradient+lifo", want: &Config{Limiter: LimiterGradient, CoDel: true, LIFO: true}},
		{spec: "static:x", wantErr: true},
		{spec: "bogus", wantErr: true},
	}
	for _, c := range cases {
		got, err := ParseSpec(c.spec)
		if c.wantErr {
			if err == nil {
				t.Errorf("ParseSpec(%q): want error, got %+v", c.spec, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", c.spec, err)
			continue
		}
		if (got == nil) != (c.want == nil) {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", c.spec, got, c.want)
			continue
		}
		if got != nil && *got != *c.want {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", c.spec, *got, *c.want)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (&Config{Limiter: "bogus"}).Validate(); err == nil {
		t.Fatal("unknown limiter accepted")
	}
	if err := (&Config{BackgroundHeadroom: 2}).Validate(); err == nil {
		t.Fatal("headroom > 1 accepted")
	}
	if err := (&Config{MaxWait: -1}).Validate(); err == nil {
		t.Fatal("negative duration accepted")
	}
	var nilCfg *Config
	if err := nilCfg.Validate(); err != nil {
		t.Fatalf("nil config: %v", err)
	}
	if err := (&Config{Limiter: LimiterGradient, CoDel: true}).Validate(); err != nil {
		t.Fatalf("codel+gradient: %v", err)
	}
}

func TestGateLimitAndHeadroom(t *testing.T) {
	g := NewGate(Config{Limit: 10}, 64)
	if got := g.Limit(); got != 10 {
		t.Fatalf("Limit = %d, want 10", got)
	}
	// Background sees only 80% of the limit (8 slots).
	for i := 0; i < 8; i++ {
		if !g.TryAcquire(Background) {
			t.Fatalf("background acquire %d refused", i)
		}
	}
	if g.TryAcquire(Background) {
		t.Fatal("background admitted past headroom")
	}
	// Interactive still has the remaining 2 slots.
	if !g.TryAcquire(Interactive) || !g.TryAcquire(Interactive) {
		t.Fatal("interactive refused within limit")
	}
	if g.TryAcquire(Interactive) {
		t.Fatal("interactive admitted past limit")
	}
	if got := g.InFlight(); got != 10 {
		t.Fatalf("InFlight = %d, want 10", got)
	}
	for i := 0; i < 10; i++ {
		g.Release(0, time.Millisecond, true)
	}
	if got := g.InFlight(); got != 0 {
		t.Fatalf("InFlight after release = %d, want 0", got)
	}
	st := g.Stats()
	if st.Admitted != 10 || st.AdmittedBackground != 8 {
		t.Fatalf("Stats admitted = %d/%d, want 10/8", st.Admitted, st.AdmittedBackground)
	}
}

func TestFixedShedIsUncontendedPassThrough(t *testing.T) {
	// The Resilience delegation: a static gate at the pool size with a
	// bounded wait, no CoDel, no adaptation.
	g := NewGate(*FixedShed(750 * time.Millisecond), 64)
	if g.MaxWait() != 750*time.Millisecond {
		t.Fatalf("MaxWait = %v", g.MaxWait())
	}
	if g.Limit() != 64 {
		t.Fatalf("Limit = %d, want worker-pool 64", g.Limit())
	}
	if g.CoDelEnabled() {
		t.Fatal("CoDel armed in fixed-shed mode")
	}
	for i := 0; i < 64; i++ {
		if !g.TryAcquire(Interactive) {
			t.Fatalf("acquire %d refused", i)
		}
	}
	if g.TryAcquire(Interactive) {
		t.Fatal("admitted past pool size")
	}
	// Releases never move a static limit.
	for i := 0; i < 64; i++ {
		g.Release(time.Duration(i)*time.Second, 5*time.Second, false)
	}
	if g.Limit() != 64 {
		t.Fatalf("static limit moved to %d", g.Limit())
	}
}

func TestLimiterNoneIsUnbounded(t *testing.T) {
	g := NewGate(Config{Limiter: LimiterNone}, 8)
	for i := 0; i < 1000; i++ {
		if !g.TryAcquire(Interactive) {
			t.Fatalf("acquire %d refused", i)
		}
	}
	if st := g.Stats(); st.Limit != 0 {
		t.Fatalf("unlimited gate reports limit %d", st.Limit)
	}
}

// TestCoDelDropScheduleMonotone is the drop-schedule property test:
// under persistent overload the gaps between successive drops follow
// interval/√count, so they must be non-increasing — pressure ramps
// until sojourns recover, never backs off on its own.
func TestCoDelDropScheduleMonotone(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	for trial := 0; trial < 50; trial++ {
		target := time.Duration(1+rng.IntN(80)) * time.Millisecond
		interval := target + time.Duration(1+rng.IntN(200))*time.Millisecond
		c := codelState{target: target, interval: interval}
		step := interval / 50
		if step <= 0 {
			step = time.Millisecond
		}
		var drops []time.Duration
		for now := time.Duration(0); now < 100*interval; now += step {
			// Sojourn stays far above target the whole run.
			if c.onDequeue(now, target+interval) {
				drops = append(drops, now)
			}
		}
		if len(drops) < 10 {
			t.Fatalf("trial %d (target=%v interval=%v): only %d drops", trial, target, interval, len(drops))
		}
		for i := 2; i < len(drops); i++ {
			prev := drops[i-1] - drops[i-2]
			cur := drops[i] - drops[i-1]
			// Quantized to the step size; allow one step of slack.
			if cur > prev+step {
				t.Fatalf("trial %d (target=%v interval=%v): drop gap grew %v -> %v at drop %d",
					trial, target, interval, prev, cur, i)
			}
		}
	}
}

func TestCoDelRecoveryExitsDropping(t *testing.T) {
	c := codelState{target: 50 * time.Millisecond, interval: 100 * time.Millisecond}
	now := time.Duration(0)
	dropped := false
	for ; now < time.Second; now += 10 * time.Millisecond {
		if c.onDequeue(now, 200*time.Millisecond) {
			dropped = true
		}
	}
	if !dropped || !c.dropping {
		t.Fatalf("overload did not enter dropping state (dropped=%v dropping=%v)", dropped, c.dropping)
	}
	if c.onDequeue(now, time.Millisecond) {
		t.Fatal("below-target sojourn dropped")
	}
	if c.dropping {
		t.Fatal("below-target sojourn did not exit dropping state")
	}
	// A fresh excursion must again survive a full interval first.
	if c.onDequeue(now+time.Millisecond, 200*time.Millisecond) {
		t.Fatal("dropped without a full interval above target")
	}
}

// TestGradientConvergence drives the gradient limiter against a
// synthetic closed-loop latency model — RTT inflates linearly once the
// limit exceeds the backend's capacity — and asserts the limit
// converges into the Vegas band around capacity and stays there. The
// run starts below capacity so the no-load floor is observed first,
// as it is in a real run's warm-up (a Vegas limiter that has never
// seen an uncongested RTT has no floor to steer by).
func TestGradientConvergence(t *testing.T) {
	const (
		base     = 10 * time.Millisecond
		capacity = 20
	)
	g := NewGate(Config{Limiter: LimiterGradient, Limit: 16, MaxLimit: 128}, 128)
	rtt := func(limit int) time.Duration {
		if limit <= capacity {
			return base
		}
		return base * time.Duration(limit) / capacity
	}
	var trail []int
	for now := time.Duration(0); now < 60*time.Second; now += time.Millisecond {
		if !g.TryAcquire(Interactive) {
			t.Fatalf("acquire refused at %v (limit=%d inflight=%d)", now, g.Limit(), g.InFlight())
		}
		g.Release(now, rtt(g.Limit()), true)
		if now >= 55*time.Second && now%(100*time.Millisecond) == 0 {
			trail = append(trail, g.Limit())
		}
	}
	// Equilibrium of limit = limit·(tol·base/rtt(limit)) + √limit with
	// tol=1.5 is ≈ tol·capacity + √limit ≈ 36; accept a generous band
	// that still proves the limit tracked capacity down from 100.
	for _, l := range trail {
		if l < capacity || l > 3*capacity {
			t.Fatalf("limit %d outside convergence band [%d, %d]; trail %v", l, capacity, 3*capacity, trail)
		}
	}
	if len(g.Adjustments()) == 0 {
		t.Fatal("no adjustments recorded")
	}
}

func TestGradientRecoversAfterStall(t *testing.T) {
	g := NewGate(Config{Limiter: LimiterGradient, Limit: 64, MaxLimit: 64}, 64)
	now := time.Duration(0)
	feed := func(d, rtt time.Duration) {
		for end := now + d; now < end; now += time.Millisecond {
			if g.TryAcquire(Interactive) {
				g.Release(now, rtt, true)
			}
		}
	}
	feed(5*time.Second, 5*time.Millisecond) // establish the no-load floor
	before := g.Limit()
	feed(3*time.Second, 200*time.Millisecond) // millibottleneck inflates RTT
	during := g.Limit()
	if during >= before {
		t.Fatalf("limit did not shrink under congestion: %d -> %d", before, during)
	}
	feed(30*time.Second, 5*time.Millisecond) // stall clears
	after := g.Limit()
	if after <= during {
		t.Fatalf("limit did not regrow after recovery: %d -> %d", during, after)
	}
}

func TestAIMDBackoffAndIncrease(t *testing.T) {
	g := NewGate(Config{Limiter: LimiterAIMD, Limit: 50, MaxLimit: 100}, 100)
	// One slow response per cooldown window backs the limit off.
	g.TryAcquire(Interactive)
	g.Release(time.Second, time.Second, true)
	if got := g.Limit(); got != 45 {
		t.Fatalf("limit after backoff = %d, want 45", got)
	}
	// A second breach within the cooldown window is absorbed.
	g.TryAcquire(Interactive)
	g.Release(time.Second+10*time.Millisecond, time.Second, true)
	if got := g.Limit(); got != 45 {
		t.Fatalf("limit after cooldown-absorbed breach = %d, want 45", got)
	}
	// A limit's worth of clean completions earns one slot back.
	now := 10 * time.Second
	for i := 0; i < 45; i++ {
		g.TryAcquire(Interactive)
		g.Release(now, time.Millisecond, true)
	}
	if got := g.Limit(); got != 46 {
		t.Fatalf("limit after additive increase = %d, want 46", got)
	}
}

func TestTightenHalvesAndRelaxRestores(t *testing.T) {
	g := NewGate(Config{Limit: 40}, 64)
	g.Tighten(true)
	if got := g.Limit(); got != 20 {
		t.Fatalf("tightened limit = %d, want 20", got)
	}
	if !g.Tightened() {
		t.Fatal("Tightened() false after Tighten(true)")
	}
	g.Tighten(true) // idempotent
	if got := g.Limit(); got != 20 {
		t.Fatalf("double tighten moved limit to %d", got)
	}
	g.Tighten(false)
	if got := g.Limit(); got != 40 {
		t.Fatalf("relaxed static limit = %d, want 40", got)
	}
	// Adaptive limiters are not force-restored; growth resumes instead.
	ga := NewGate(Config{Limiter: LimiterAIMD, Limit: 40, MaxLimit: 80}, 80)
	ga.Tighten(true)
	for i := 0; i < 100; i++ {
		ga.TryAcquire(Interactive)
		ga.Release(time.Duration(i)*time.Second, time.Millisecond, true)
	}
	if got := ga.Limit(); got != 20 {
		t.Fatalf("tightened aimd limit grew to %d", got)
	}
	ga.Tighten(false)
	for i := 0; i < 100; i++ {
		ga.TryAcquire(Interactive)
		ga.Release(time.Duration(100+i)*time.Second, time.Millisecond, true)
	}
	if got := ga.Limit(); got <= 20 {
		t.Fatalf("relaxed aimd limit did not regrow: %d", got)
	}
}

// fakeEngine is a minimal deterministic scheduler for Queue tests.
type fakeEngine struct {
	now    time.Duration
	events []fakeEvent
}

type fakeEvent struct {
	at time.Duration
	fn func()
}

func (e *fakeEngine) schedule(d time.Duration, fn func()) {
	e.events = append(e.events, fakeEvent{at: e.now + d, fn: fn})
}

func (e *fakeEngine) advance(to time.Duration) {
	for {
		best := -1
		for i, ev := range e.events {
			if ev.at <= to && (best < 0 || ev.at < e.events[best].at) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		ev := e.events[best]
		e.events = append(e.events[:best], e.events[best+1:]...)
		e.now = ev.at
		ev.fn()
	}
	e.now = to
}

func TestQueueHandoffAndTimeout(t *testing.T) {
	eng := &fakeEngine{}
	g := NewGate(Config{Limit: 1, MaxWait: 100 * time.Millisecond}, 1)
	q := NewQueue(g, func() time.Duration { return eng.now }, eng.schedule)

	if !g.TryAcquire(Interactive) {
		t.Fatal("first acquire refused")
	}
	var got []string
	q.Push(Interactive, func(ok bool) { got = append(got, map[bool]string{true: "a+", false: "a-"}[ok]) })
	q.Push(Interactive, func(ok bool) { got = append(got, map[bool]string{true: "b+", false: "b-"}[ok]) })
	if g.Queued() != 2 {
		t.Fatalf("Queued = %d, want 2", g.Queued())
	}
	// Release hands the slot to the oldest waiter (FIFO when calm).
	eng.advance(10 * time.Millisecond)
	g.Release(eng.now, time.Millisecond, true)
	if len(got) != 1 || got[0] != "a+" {
		t.Fatalf("after release got %v, want [a+]", got)
	}
	// The second waiter times out at MaxWait.
	eng.advance(200 * time.Millisecond)
	if len(got) != 2 || got[1] != "b-" {
		t.Fatalf("after timeout got %v, want [a+ b-]", got)
	}
	if g.Queued() != 0 {
		t.Fatalf("Queued = %d, want 0", g.Queued())
	}
	if st := g.Stats(); st.DropsMaxWait != 1 {
		t.Fatalf("DropsMaxWait = %d, want 1", st.DropsMaxWait)
	}
}

func TestQueueFullRefusesPush(t *testing.T) {
	eng := &fakeEngine{}
	g := NewGate(Config{Limit: 1, MaxQueue: 2}, 1)
	q := NewQueue(g, func() time.Duration { return eng.now }, eng.schedule)
	g.TryAcquire(Interactive)
	if !q.Push(Interactive, func(bool) {}) || !q.Push(Interactive, func(bool) {}) {
		t.Fatal("push refused below capacity")
	}
	if q.Push(Interactive, func(bool) {}) {
		t.Fatal("push accepted at capacity")
	}
}

func TestQueueLIFOUnderOverload(t *testing.T) {
	eng := &fakeEngine{}
	// MaxQueue 4 so two waiters (>= half) flip Overloaded, activating
	// LIFO; CoDel stays off so the judge never interferes.
	g := NewGate(Config{Limit: 1, LIFO: true, MaxQueue: 4, MaxWait: time.Second}, 1)
	q := NewQueue(g, func() time.Duration { return eng.now }, eng.schedule)
	g.TryAcquire(Interactive)
	var got []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		q.Push(Interactive, func(ok bool) {
			if ok {
				got = append(got, name)
			}
		})
	}
	if !g.LIFOActive() {
		t.Fatal("LIFO not active with a half-full queue")
	}
	eng.advance(time.Millisecond)
	g.Release(eng.now, time.Millisecond, true)
	if len(got) != 1 || got[0] != "c" {
		t.Fatalf("LIFO handoff got %v, want [c]", got)
	}
}

func TestQueueCoDelDropsStaleWaiters(t *testing.T) {
	eng := &fakeEngine{}
	g := NewGate(Config{
		Limit: 1, CoDel: true,
		Target: 10 * time.Millisecond, Interval: 20 * time.Millisecond,
		MaxWait: 10 * time.Second,
	}, 1)
	q := NewQueue(g, func() time.Duration { return eng.now }, eng.schedule)
	g.TryAcquire(Interactive)
	admitted, dropped := 0, 0
	resume := func(ok bool) {
		if ok {
			admitted++
			// Hold the slot briefly, then release — sojourns stay
			// above target, so CoDel keeps judging.
			eng.schedule(50*time.Millisecond, func() { g.Release(eng.now, 50*time.Millisecond, true) })
		} else {
			dropped++
		}
	}
	for i := 0; i < 40; i++ {
		q.Push(Interactive, resume)
	}
	eng.advance(time.Millisecond)
	g.Release(eng.now, time.Millisecond, true)
	eng.advance(20 * time.Second)
	if dropped == 0 {
		t.Fatalf("CoDel never dropped (admitted=%d)", admitted)
	}
	if admitted+dropped != 40 {
		t.Fatalf("resumed %d+%d of 40 waiters", admitted, dropped)
	}
	if st := g.Stats(); st.DropsCoDel == 0 {
		t.Fatal("DropsCoDel = 0")
	}
}

// TestGateHotSwapStress races dispatchers against limit churn
// (SetLimit / Tighten) — run under -race in CI, kept on in -short.
func TestGateHotSwapStress(t *testing.T) {
	g := NewGate(Config{Limiter: LimiterGradient, Limit: 32, MinLimit: 4, MaxLimit: 64, CoDel: true}, 64)
	const workers = 8
	iters := 20000
	if testing.Short() {
		iters = 5000
	}
	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			switch i % 4 {
			case 0:
				g.SetLimit(4 + i%60)
			case 1:
				g.Tighten(true)
			case 2:
				g.Tighten(false)
			case 3:
				g.JudgeSojourn(time.Duration(i)*time.Millisecond, 100*time.Millisecond)
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cls := Interactive
			if w%3 == 0 {
				cls = Background
			}
			for i := 0; i < iters; i++ {
				if g.TryAcquire(cls) {
					g.Release(time.Duration(i)*time.Microsecond, time.Duration(i%2000)*time.Microsecond, i%7 != 0)
				} else {
					g.Drop(time.Duration(i)*time.Microsecond, cls, ReasonPriority)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	churn.Wait()
	if got := g.InFlight(); got != 0 {
		t.Fatalf("InFlight after stress = %d, want 0", got)
	}
	if l := g.Limit(); l < 4 || l > 64 {
		t.Fatalf("limit %d escaped [4, 64]", l)
	}
}

// TestAdmittedPathZeroAlloc locks the acceptance criterion: the
// admitted fast path — acquire, release, limiter feed — allocates
// nothing on either substrate (both drive these exact methods).
func TestAdmittedPathZeroAlloc(t *testing.T) {
	g := NewGate(Config{Limiter: LimiterGradient, CoDel: true, Limit: 64}, 64)
	now := time.Duration(0)
	allocs := testing.AllocsPerRun(2000, func() {
		now += 50 * time.Microsecond
		if g.TryAcquire(Interactive) {
			g.Release(now, time.Millisecond, true)
		}
	})
	// The adjustment trace appends (amortized, bounded at the ring
	// cap) are the only permitted allocations; at a fixed RTT the
	// limit converges and the trace goes quiet, so demand zero.
	if allocs != 0 {
		t.Fatalf("admitted path allocates %v/op", allocs)
	}
	gs := NewGate(*FixedShed(time.Second), 64)
	allocs = testing.AllocsPerRun(2000, func() {
		if gs.TryAcquire(Interactive) {
			gs.Release(0, time.Millisecond, true)
		}
	})
	if allocs != 0 {
		t.Fatalf("fixed-shed admitted path allocates %v/op", allocs)
	}
	// The wall-clock substrate's shape: the full arm, LIFO included, on
	// a gate that reads a real clock.
	gw := NewGate(Config{Limiter: LimiterGradient, CoDel: true, LIFO: true}, 64)
	epoch := time.Now()
	gw.SetClock(func() time.Duration { return time.Since(epoch) })
	allocs = testing.AllocsPerRun(2000, func() {
		if !gw.TryAcquire(Interactive) {
			t.Fatal("uncontended admit refused")
		}
		gw.Release(time.Since(epoch), time.Millisecond, true)
	})
	if allocs != 0 {
		t.Fatalf("wall-clock gradient+codel+lifo admitted path allocates %v/op", allocs)
	}
}

func TestDropRateWindow(t *testing.T) {
	g := NewGate(Config{Limit: 1}, 1)
	for i := 0; i < 10; i++ {
		g.Drop(time.Duration(i)*time.Millisecond, Interactive, ReasonMaxWait)
	}
	if r := g.DropRate(time.Second); r != 10 {
		t.Fatalf("DropRate = %v, want 10/s", r)
	}
	if r := g.DropRate(2 * time.Second); r != 0 {
		t.Fatalf("quiet window DropRate = %v, want 0", r)
	}
}
