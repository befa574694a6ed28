package faults

import (
	"errors"
	"io"
	"math/rand/v2"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"millibalance/internal/httpcluster"
	"millibalance/internal/obs"
)

// fakeStaller records stall windows.
type fakeStaller struct {
	mu    sync.Mutex
	calls []time.Duration
}

func (f *fakeStaller) Stall(d time.Duration) {
	f.mu.Lock()
	f.calls = append(f.calls, d)
	f.mu.Unlock()
}

func (f *fakeStaller) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.calls)
}

type fakeDelayer struct{ d atomic.Int64 }

func (f *fakeDelayer) SetExtraDelay(d time.Duration) { f.d.Store(int64(d)) }

type fakeRestarter struct {
	down    atomic.Bool
	crashes atomic.Int64
}

func (f *fakeRestarter) Crash() { f.down.Store(true); f.crashes.Add(1) }
func (f *fakeRestarter) Restart() error {
	f.down.Store(false)
	return nil
}

func TestPeriodicInjectorFiresAndLogs(t *testing.T) {
	st := &fakeStaller{}
	in := NewInjector(Freeze{Name: "app1", S: st}, Schedule{
		Kind: Periodic, Interval: 20 * time.Millisecond, Duration: 5 * time.Millisecond, Count: 3,
	})
	log := obs.NewEventLog(64)
	in.Arm(log, time.Now())
	in.Start()
	defer in.Stop()

	deadline := time.Now().Add(2 * time.Second)
	for in.Fired() < 3 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := in.Fired(); got != 3 {
		t.Fatalf("fired %d windows, want 3 (Count)", got)
	}
	time.Sleep(20 * time.Millisecond) // let the fault_end timers fire
	starts := log.Kind(obs.KindFaultStart)
	ends := log.Kind(obs.KindFaultEnd)
	if len(starts) != 3 || len(ends) != 3 {
		t.Fatalf("events: %d starts / %d ends, want 3/3", len(starts), len(ends))
	}
	ev := starts[0]
	if ev.Backend != "app1" || ev.Fault != "freeze" || ev.Window != 5*time.Millisecond || ev.Source != "freeze:periodic" {
		t.Fatalf("bad start event: %+v", ev)
	}
	if st.count() != 3 {
		t.Fatalf("staller called %d times", st.count())
	}
}

func TestOneShotInjectorFiresOnce(t *testing.T) {
	st := &fakeStaller{}
	in := NewInjector(GCPause{Name: "app2", S: st}, Schedule{
		Kind: OneShot, Interval: 10 * time.Millisecond, Duration: time.Millisecond,
	})
	in.Start()
	time.Sleep(60 * time.Millisecond)
	in.Stop()
	if got := in.Fired(); got != 1 {
		t.Fatalf("one-shot fired %d times", got)
	}
	if in.Name() != "gc_pause:oneshot" {
		t.Fatalf("name %q", in.Name())
	}
}

func TestInjectorStopHaltsSchedule(t *testing.T) {
	st := &fakeStaller{}
	in := NewInjector(Freeze{Name: "a", S: st}, Schedule{
		Kind: Periodic, Interval: 10 * time.Millisecond, Duration: time.Millisecond,
	})
	in.Start()
	time.Sleep(35 * time.Millisecond)
	in.Stop()
	in.Stop() // idempotent
	fired := in.Fired()
	if fired == 0 {
		t.Fatal("injector never fired")
	}
	time.Sleep(30 * time.Millisecond)
	if got := in.Fired(); got != fired {
		t.Fatalf("injector fired after Stop: %d → %d", fired, got)
	}
}

// TestInjectorWindowsFollowSchedule pins the wall driver apart from the
// chaos matrix: for a fixed Seed, the fault_start events' Window values
// are the lengths the schedule draws from the injector's source, a gap
// before each length, window after window.
func TestInjectorWindowsFollowSchedule(t *testing.T) {
	for _, sched := range []Schedule{
		{Kind: Periodic, Interval: 2 * time.Millisecond, Duration: time.Millisecond, Jitter: 0.5, Count: 6, Seed: 7},
		{Kind: Random, Interval: 2 * time.Millisecond, Duration: time.Millisecond, Count: 6, Seed: 7},
		{Kind: OneShot, Interval: time.Millisecond, Duration: 3 * time.Millisecond, Jitter: 0.5, Count: 1, Seed: 9},
	} {
		t.Run(sched.Kind.String(), func(t *testing.T) {
			in := NewInjector(Freeze{Name: "app1", S: &fakeStaller{}}, sched)
			log := obs.NewEventLog(64)
			in.Arm(log, time.Now())
			in.Start()
			deadline := time.Now().Add(2 * time.Second)
			for in.Fired() < sched.Count && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			in.Stop()
			starts := log.Kind(obs.KindFaultStart)
			if len(starts) != sched.Count {
				t.Fatalf("%d fault_start events, want %d", len(starts), sched.Count)
			}
			// The injector's source, seeded as run seeds it.
			rng := rand.New(rand.NewPCG(sched.Seed, sched.Seed^0x9e3779b97f4a7c15))
			for i, ev := range starts {
				sched.Gap(rng)
				if want := sched.Length(rng); ev.Window != want {
					t.Fatalf("window %d = %v, want %v", i, ev.Window, want)
				}
			}
		})
	}
}

func TestRandomScheduleIsSeededDeterministic(t *testing.T) {
	run := func(seed uint64) int {
		st := &fakeStaller{}
		in := NewInjector(Freeze{Name: "a", S: st}, Schedule{
			Kind: Random, Interval: 5 * time.Millisecond, Duration: time.Millisecond, Seed: seed, Count: 4,
		})
		in.Start()
		deadline := time.Now().Add(time.Second)
		for in.Fired() < 4 && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
		}
		in.Stop()
		return in.Fired()
	}
	if got := run(7); got != 4 {
		t.Fatalf("random schedule fired %d, want 4", got)
	}
}

func TestSlowShapeSetsAndClearsDelay(t *testing.T) {
	d := &fakeDelayer{}
	s := Slow{Name: "app1", D: d, Extra: 30 * time.Millisecond}
	s.Open(20 * time.Millisecond)
	if got := time.Duration(d.d.Load()); got != 30*time.Millisecond {
		t.Fatalf("delay during window = %v", got)
	}
	time.Sleep(60 * time.Millisecond)
	if got := time.Duration(d.d.Load()); got != 0 {
		t.Fatalf("delay after window = %v, want cleared", got)
	}
}

func TestCrashShapeCrashesAndRestarts(t *testing.T) {
	r := &fakeRestarter{}
	c := Crash{Name: "app1", R: r}
	c.Open(20 * time.Millisecond)
	if !r.down.Load() {
		t.Fatal("not crashed during window")
	}
	time.Sleep(60 * time.Millisecond)
	if r.down.Load() {
		t.Fatal("not restarted after window")
	}
}

func TestCorrelatedOpensAllShapes(t *testing.T) {
	s1, s2 := &fakeStaller{}, &fakeStaller{}
	c := Correlated{Freeze{Name: "a", S: s1}, Freeze{Name: "b", S: s2}}
	if c.Target() != "a+b" || c.Kind() != "correlated" {
		t.Fatalf("identity %s/%s", c.Kind(), c.Target())
	}
	c.Open(time.Millisecond)
	if s1.count() != 1 || s2.count() != 1 {
		t.Fatalf("opened %d/%d, want 1/1", s1.count(), s2.count())
	}
}

// TestTransportLatencyAndLoss: the network fault acts on the app
// server's connections. A request waits the injected latency; a lost one
// meets a reset with no reply; cleared, the server answers at once.
func TestTransportLatencyAndLoss(t *testing.T) {
	app, err := httpcluster.StartAppServer(httpcluster.AppServerConfig{Name: "app1", ServiceTime: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = app.Close() }()
	client := &http.Client{Transport: &http.Transport{}, Timeout: 5 * time.Second}
	defer client.CloseIdleConnections()
	get := func() error {
		resp, err := client.Get(app.URL() + "/x")
		if err != nil {
			return err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		return err
	}

	// An untouched server answers with no delay, once the client's
	// connection is up.
	if err := get(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := get(); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 20*time.Millisecond {
		t.Fatal("undegraded server delayed")
	}

	// Latency applies while degraded.
	app.SetNetFault(30*time.Millisecond, 0, 1)
	start = time.Now()
	if err := get(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Fatalf("degraded request took %v, want ≥ ~30ms", elapsed)
	}

	// Full loss resets every connection without a reply.
	app.SetNetFault(0, 1, 1)
	if err := get(); !errors.Is(err, syscall.ECONNRESET) {
		t.Fatalf("err = %v, want a reset connection", err)
	}

	// Clearing restores service.
	app.SetNetFault(0, 0, 0)
	if err := get(); err != nil {
		t.Fatalf("cleared server still failing: %v", err)
	}
}

// fakeNetFaulter records the open network fault.
type fakeNetFaulter struct {
	mu      sync.Mutex
	latency time.Duration
	loss    float64
	seed    uint64
}

func (f *fakeNetFaulter) SetNetFault(latency time.Duration, loss float64, seed uint64) {
	f.mu.Lock()
	f.latency, f.loss, f.seed = latency, loss, seed
	f.mu.Unlock()
}

func (f *fakeNetFaulter) open() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.latency > 0 || f.loss > 0
}

func TestNetDegradeShape(t *testing.T) {
	n := &fakeNetFaulter{}
	loss := NetDegrade{Name: "app2", N: n, Loss: 0.5}
	if loss.Kind() != "netloss" || loss.Target() != "app2" {
		t.Fatalf("identity %s/%s", loss.Kind(), loss.Target())
	}
	delay := NetDegrade{Name: "app2", N: n, Latency: 10 * time.Millisecond, Seed: 9}
	if delay.Kind() != "netdelay" {
		t.Fatalf("kind %q", delay.Kind())
	}
	delay.Open(20 * time.Millisecond)
	n.mu.Lock()
	latency, seed := n.latency, n.seed
	n.mu.Unlock()
	if latency != 10*time.Millisecond || seed != 9 {
		t.Fatalf("fault during window: latency %v, seed %d", latency, seed)
	}
	time.Sleep(60 * time.Millisecond)
	if n.open() {
		t.Fatal("fault not cleared after window")
	}
}

func TestParseScenario(t *testing.T) {
	specs, err := ParseScenario(
		"freeze:periodic:interval=2s:duration=300ms:jitter=0.25:target=app1, " +
			"netloss:oneshot:interval=5s:duration=1s:loss=0.25:target=app2," +
			"slow:random:delay=80ms:seed=9")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 {
		t.Fatalf("parsed %d specs", len(specs))
	}
	f := specs[0]
	if f.ShapeKind != "freeze" || f.Sched.Kind != Periodic || f.Sched.Interval != 2*time.Second ||
		f.Sched.Duration != 300*time.Millisecond || f.Sched.Jitter != 0.25 || f.Target != "app1" {
		t.Fatalf("freeze spec %+v", f)
	}
	n := specs[1]
	if n.ShapeKind != "netloss" || n.Sched.Kind != OneShot || n.Loss != 0.25 || n.Target != "app2" {
		t.Fatalf("netloss spec %+v", n)
	}
	s := specs[2]
	if s.ShapeKind != "slow" || s.Sched.Kind != Random || s.Delay != 80*time.Millisecond || s.Sched.Seed != 9 {
		t.Fatalf("slow spec %+v", s)
	}

	for _, bad := range []string{
		"",
		"freeze",
		"warp:periodic",
		"freeze:sometimes",
		"freeze:periodic:bogus=1",
		"freeze:periodic:interval=-2s",
		"netloss:oneshot:loss=1.5",
		"freeze:periodic:jitter=500ms",
		"freeze:periodic:duration",
	} {
		if _, err := ParseScenario(bad); err == nil {
			t.Fatalf("%q accepted", bad)
		}
	}
}

func TestSpecDefaults(t *testing.T) {
	s, err := ParseSpec("slow:periodic")
	if err != nil {
		t.Fatal(err)
	}
	if s.Delay != 50*time.Millisecond || s.Sched.Interval != 500*time.Millisecond || s.Sched.Duration != 200*time.Millisecond {
		t.Fatalf("slow defaults %+v", s)
	}
	n, _ := ParseSpec("netdelay:periodic")
	if n.Latency != 100*time.Millisecond {
		t.Fatalf("netdelay default latency %v", n.Latency)
	}
	l, _ := ParseSpec("netloss:periodic")
	if l.Loss != 0.5 {
		t.Fatalf("netloss default loss %v", l.Loss)
	}
}
