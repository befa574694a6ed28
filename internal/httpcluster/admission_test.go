package httpcluster

import (
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"millibalance/internal/admission"
	"millibalance/internal/obs"
)

// TestResilienceDelegatesToAdmission pins the satellite refactor: a
// Resilience config with no explicit Admission arms a FixedShed gate —
// static limiter sized to the worker pool, MaxWait = ShedAfter — so the
// historical bounded-wait shed and the new plane are one code path.
func TestResilienceDelegatesToAdmission(t *testing.T) {
	app, err := StartAppServer(AppServerConfig{Name: "app1", Workers: 4, ServiceTime: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = app.Close() }()
	proxy, err := StartProxy(ProxyConfig{
		Workers:    3,
		Policy:     PolicyCurrentLoad,
		Mechanism:  MechanismModified,
		LB:         Config{Sweeps: 1},
		Resilience: &Resilience{ShedAfter: 80 * time.Millisecond, MaxRetries: -1},
	}, []*Backend{NewBackend("app1", app.URL(), 4)})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = proxy.Close() }()

	g := proxy.Admission()
	if g == nil {
		t.Fatal("Resilience armed but no admission gate")
	}
	st := g.Stats()
	if st.Limiter != admission.LimiterStatic || st.CoDel || st.Limit != 3 {
		t.Fatalf("delegated gate = %+v, want static limiter at the pool size without CoDel", st)
	}
	if g.MaxWait() != 80*time.Millisecond {
		t.Fatalf("MaxWait %v, want ShedAfter 80ms", g.MaxWait())
	}

	// Without either config there must be no gate — the paper's
	// baseline blocking behavior stays byte-identical.
	base, err := StartProxy(ProxyConfig{
		Workers: 2, Policy: PolicyCurrentLoad, Mechanism: MechanismModified,
	}, []*Backend{NewBackend("app1", app.URL(), 4)})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = base.Close() }()
	if base.Admission() != nil {
		t.Fatal("admission gate armed without Admission or Resilience config")
	}
}

// TestProxyAdmissionShedsUnderStall stalls the only backend under an
// explicitly armed codel+gradient plane and checks requests shed with
// 503 within the MaxWait bound, with gate drops and admission_drop
// events to show for it.
func TestProxyAdmissionShedsUnderStall(t *testing.T) {
	app, err := StartAppServer(AppServerConfig{Name: "app1", Workers: 4, ServiceTime: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = app.Close() }()
	proxy, err := StartProxy(ProxyConfig{
		Workers:       2,
		Policy:        PolicyCurrentLoad,
		Mechanism:     MechanismModified,
		LB:            Config{Sweeps: 1},
		EventCapacity: 1024,
		Admission: &admission.Config{
			Limiter: admission.LimiterGradient,
			CoDel:   true,
			LIFO:    true,
			MaxWait: 60 * time.Millisecond,
		},
	}, []*Backend{NewBackend("app1", app.URL(), 4)})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = proxy.Close() }()

	// Pin both admitted slots inside the stalled app tier, then overfill.
	app.Stall(time.Second)
	time.Sleep(5 * time.Millisecond)
	client := &http.Client{Timeout: 5 * time.Second}
	var wg sync.WaitGroup
	var sheds atomic.Uint64
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := client.Get(proxy.URL() + "/x")
			if err != nil {
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
			if resp.StatusCode == http.StatusServiceUnavailable {
				sheds.Add(1)
			}
		}()
	}
	wg.Wait()

	if sheds.Load() == 0 || proxy.Shed() == 0 {
		t.Fatalf("no sheds against a stalled tier (503s=%d, proxy.Shed=%d)", sheds.Load(), proxy.Shed())
	}
	if proxy.Admission().Dropped() == 0 {
		t.Fatal("gate recorded no drops")
	}
	drops := proxy.Events().Kind(obs.KindAdmissionDrop)
	if len(drops) == 0 {
		t.Fatal("no admission_drop events")
	}
	for _, ev := range drops {
		if ev.Reason == "" || ev.Class == "" || ev.Source != "proxy" {
			t.Fatalf("admission_drop event missing fields: %+v", ev)
		}
	}
}

// TestProxyAdmissionBackgroundPriority: background-class requests
// (X-Priority header) are confined to the limit's headroom and shed
// immediately — never queued — while interactive traffic still waits.
func TestProxyAdmissionBackgroundPriority(t *testing.T) {
	app, err := StartAppServer(AppServerConfig{Name: "app1", Workers: 8, ServiceTime: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = app.Close() }()
	proxy, err := StartProxy(ProxyConfig{
		Workers:   4,
		Policy:    PolicyCurrentLoad,
		Mechanism: MechanismModified,
		LB:        Config{Sweeps: 1},
		// Headroom 0.5 on a limit of 4: background admits stop at 2.
		Admission: &admission.Config{BackgroundHeadroom: 0.5, MaxWait: 50 * time.Millisecond},
	}, []*Backend{NewBackend("app1", app.URL(), 4)})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = proxy.Close() }()

	// Fill the background share by hand at the gate, then check a
	// background request sheds instantly while an interactive one lands.
	g := proxy.Admission()
	if !g.TryAcquire(admission.Background) || !g.TryAcquire(admission.Background) {
		t.Fatal("background headroom not available on an idle gate")
	}
	if g.TryAcquire(admission.Background) {
		t.Fatal("third background admit above 0.5 headroom of limit 4")
	}
	client := &http.Client{Timeout: 5 * time.Second}
	req, _ := http.NewRequest(http.MethodGet, proxy.URL()+"/x", nil)
	req.Header.Set("X-Priority", "background")
	start := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("background over headroom: status %d, want 503", resp.StatusCode)
	}
	if time.Since(start) > 25*time.Millisecond {
		t.Fatalf("background shed waited %v, want immediate", time.Since(start))
	}
	if g.Stats().DropsPriority == 0 {
		t.Fatal("no priority drop recorded")
	}

	resp, err = client.Get(proxy.URL() + "/x")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("interactive within the limit: status %d, want 200", resp.StatusCode)
	}
	g.Release(0, time.Millisecond, true)
	g.Release(0, time.Millisecond, true)
}

// TestAdmissionPlaneFastPathZeroAlloc: the uncontended wall-clock admit
// path — the one every request takes when the tier is healthy — must
// not allocate, same bar as the simulator gate: through the bare plane,
// and through a live proxy's worker acquire with the plane off, armed
// in full, and armed as the Resilience fixed-shed delegation.
func TestAdmissionPlaneFastPathZeroAlloc(t *testing.T) {
	g := admission.NewGate(admission.Config{Limiter: admission.LimiterGradient, CoDel: true}, 64)
	epoch := time.Now()
	now := func() time.Duration { return time.Since(epoch) }
	g.SetClock(now)
	pl := newAdmissionPlane(g, now, new(atomic.Int64))
	allocs := testing.AllocsPerRun(1000, func() {
		if !pl.admit(admission.Interactive) {
			t.Fatal("uncontended admit refused")
		}
		g.Release(now(), time.Millisecond, true)
	})
	if allocs != 0 {
		t.Fatalf("uncontended plane admit allocates %.1f/op, want 0", allocs)
	}
	for _, tc := range []struct {
		name string
		cfg  *admission.Config
	}{
		{"proxy disabled", nil},
		{"proxy admitted", fullAdmission()},
		{"proxy fixed-shed", admission.FixedShed(time.Second)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := startAcquireProxy(t, tc.cfg)
			allocs := testing.AllocsPerRun(1000, func() {
				if !p.admitRoundTrip() {
					t.Fatal("admit refused on an idle proxy")
				}
			})
			if allocs != 0 {
				t.Fatalf("worker acquire allocates %.1f/op, want 0", allocs)
			}
		})
	}
}

// fullAdmission is the plane's full arm, the one the overhead arms and
// the zero-alloc guards exercise.
func fullAdmission() *admission.Config {
	return &admission.Config{Limiter: admission.LimiterGradient, CoDel: true, LIFO: true}
}

// startAcquireProxy boots the minimal proxy the worker-acquire guards
// and benchmark arms run against: no telemetry, tracing or resilience,
// just the 64-slot worker pool and, optionally, the admission plane.
// Nothing is ever forwarded, so the backend needs no server behind it.
func startAcquireProxy(tb testing.TB, acfg *admission.Config) *Proxy {
	tb.Helper()
	p, err := StartProxy(ProxyConfig{
		Workers:   64,
		Policy:    PolicyCurrentLoad,
		Mechanism: MechanismModified,
		LB:        Config{Sweeps: 1},
		Admission: acfg,
	}, []*Backend{NewBackend("a", "u", 64)})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = p.Close() })
	return p
}

// admitRoundTrip performs one worker acquire/release round trip through
// whatever admission path the proxy is configured with. The release
// order mirrors handle's defers: worker slot first, then the gate, so a
// handed-off waiter never blocks on the worker pool.
func (p *Proxy) admitRoundTrip() bool {
	if !p.acquireWorker(admission.Interactive) {
		return false
	}
	if p.adm == nil {
		<-p.workers
		return true
	}
	admitAt := p.now()
	<-p.workers
	p.adm.Release(p.now(), p.now()-admitAt, true)
	return true
}

// preAdmissionPool reproduces the worker acquire as it was before the
// admission plane existed, the reference arm of
// BenchmarkTelemetryDisabledOverhead: a method call, a nonblocking
// select, one nil-pointer branch for the old resilience timer, and the
// release on the way out. The methods are pinned noinline because the
// proxy's are too large to inline — a flattened reference would charge
// the plane for call overhead the old code also paid.
type preAdmissionPool struct {
	workers chan struct{}
	resil   *time.Timer
}

//go:noinline
func (r *preAdmissionPool) acquire() bool {
	select {
	case r.workers <- struct{}{}:
		return true
	default:
	}
	if r.resil != nil {
		return false
	}
	r.workers <- struct{}{}
	return true
}

//go:noinline
func (r *preAdmissionPool) roundTrip() bool {
	if !r.acquire() {
		return false
	}
	<-r.workers
	return true
}

// TestAdmissionPlaneHandoff drives the parked-waiter path directly: a
// full gate, a queued waiter, and a release must hand the freed slot to
// the waiter rather than dropping it on the floor.
func TestAdmissionPlaneHandoff(t *testing.T) {
	g := admission.NewGate(admission.Config{Limiter: admission.LimiterStatic, Limit: 1, MaxWait: time.Second}, 1)
	epoch := time.Now()
	now := func() time.Duration { return time.Since(epoch) }
	g.SetClock(now)
	pl := newAdmissionPlane(g, now, new(atomic.Int64))

	if !pl.admit(admission.Interactive) {
		t.Fatal("first admit refused")
	}
	got := make(chan bool, 1)
	go func() { got <- pl.admit(admission.Interactive) }()
	// Wait until the second request is parked, then free the slot.
	deadline := time.Now().Add(time.Second)
	for g.Queued() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	g.Release(now(), time.Millisecond, true)
	select {
	case ok := <-got:
		if !ok {
			t.Fatal("handed-off waiter reported shed")
		}
	case <-time.After(time.Second):
		t.Fatal("waiter never woke after release")
	}
	if g.InFlight() != 1 || g.Queued() != 0 {
		t.Fatalf("in-flight %d queued %d after handoff, want 1/0", g.InFlight(), g.Queued())
	}
	g.Release(now(), time.Millisecond, true)
}
