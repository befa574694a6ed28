package httpcluster

import (
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"millibalance/internal/probe"
)

// startPrequalTier boots n app servers behind a prequal proxy with a
// fast probe loop, no database.
func startPrequalTier(t *testing.T, n int, pcfg *probe.Config) (*Proxy, []*AppServer, func()) {
	t.Helper()
	var apps []*AppServer
	var backends []*Backend
	for i := 0; i < n; i++ {
		app, err := StartAppServer(AppServerConfig{
			Name:        "app" + string(rune('1'+i)),
			Workers:     64,
			ServiceTime: time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		apps = append(apps, app)
		backends = append(backends, NewBackend(app.Name(), app.URL(), 16))
	}
	proxy, err := StartProxy(ProxyConfig{
		Workers:   64,
		Policy:    PolicyPrequal,
		Mechanism: MechanismModified,
		Probe:     pcfg,
		LB:        Config{SweepPause: 10 * time.Millisecond},
	}, backends)
	if err != nil {
		t.Fatal(err)
	}
	return proxy, apps, func() {
		_ = proxy.Close()
		for _, a := range apps {
			_ = a.Close()
		}
	}
}

// TestPrequalEndToEnd drives traffic through a prequal proxy and checks
// the probing subsystem is live: requests succeed, both backends serve,
// and the pools hold fresh samples for every backend.
func TestPrequalEndToEnd(t *testing.T) {
	proxy, apps, shutdown := startPrequalTier(t, 2, &probe.Config{Interval: 5 * time.Millisecond})
	defer shutdown()

	time.Sleep(30 * time.Millisecond) // a few probe rounds
	client := &http.Client{Timeout: 5 * time.Second}
	for i := 0; i < 40; i++ {
		resp, err := client.Get(proxy.URL() + "/story")
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
	}
	if proxy.Served() != 40 {
		t.Fatalf("served %d, want 40", proxy.Served())
	}
	pools := proxy.ProbePools()
	if pools == nil {
		t.Fatal("prequal proxy has no probe pools")
	}
	for _, app := range apps {
		if pools.Depth(app.Name()) == 0 {
			t.Fatalf("%s: empty probe pool after traffic", app.Name())
		}
	}
}

// TestPrequalAvoidsStalledBackend is the headline behavior: a stalled
// backend stops answering probes, its pool ages past the TTL, and
// prequal stops routing to it — without consulting any counter and
// without any control-plane remediation.
func TestPrequalAvoidsStalledBackend(t *testing.T) {
	proxy, apps, shutdown := startPrequalTier(t, 2, &probe.Config{
		Interval: 5 * time.Millisecond,
		TTL:      60 * time.Millisecond,
	})
	defer shutdown()
	client := &http.Client{Timeout: 5 * time.Second}

	// Warm both pools.
	time.Sleep(30 * time.Millisecond)
	doRequestN(t, client, proxy.URL()+"/x", 10)

	// Freeze app1 well past the TTL and let its samples age out.
	apps[0].Stall(900 * time.Millisecond)
	time.Sleep(150 * time.Millisecond)

	pools := proxy.ProbePools()
	if d := pools.Depth(apps[0].Name()); d != 0 {
		t.Fatalf("stalled backend still has %d fresh samples", d)
	}
	if pools.Depth(apps[1].Name()) == 0 {
		t.Fatal("healthy backend's pool went empty")
	}

	// Mid-stall traffic must all land on the healthy backend.
	for i := 0; i < 20; i++ {
		resp, err := client.Get(proxy.URL() + "/x")
		if err != nil {
			t.Fatal(err)
		}
		backend := resp.Header.Get("X-Backend")
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		if backend != apps[1].Name() {
			t.Fatalf("request %d routed to %q during stall, want %s", i, backend, apps[1].Name())
		}
	}
}

func doRequestN(t *testing.T, client *http.Client, url string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		resp, err := client.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}
}

// TestPrequalSetPolicyReseed: a runtime swap to prequal clears the
// pools and fires an immediate probe round, so the incoming policy
// starts from live evidence.
func TestPrequalSetPolicyReseed(t *testing.T) {
	var apps []*AppServer
	var backends []*Backend
	for i := 0; i < 2; i++ {
		app, err := StartAppServer(AppServerConfig{
			Name: "app" + string(rune('1'+i)), Workers: 8, ServiceTime: time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		apps = append(apps, app)
		backends = append(backends, NewBackend(app.Name(), app.URL(), 8))
	}
	defer func() {
		for _, a := range apps {
			_ = a.Close()
		}
	}()
	// Probing armed explicitly while the static policy is current_load —
	// the swap-target scenario.
	proxy, err := StartProxy(ProxyConfig{
		Workers: 8, Policy: PolicyCurrentLoad, Mechanism: MechanismModified,
		Probe: &probe.Config{Interval: 5 * time.Millisecond},
	}, backends)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = proxy.Close() }()

	pools := proxy.ProbePools()
	// A poisoned sample that Clear must drop.
	pools.Observe("ghost", 999, time.Second)

	proxy.Balancer().SetPolicy(PolicyPrequal)
	if d := pools.Depth("ghost"); d != 0 {
		t.Fatalf("reseed left %d stale samples behind", d)
	}
	// The immediate probe round repopulates the real backends.
	deadline := time.Now().Add(2 * time.Second)
	for pools.Depth("app1") == 0 || pools.Depth("app2") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("reseed probe round never landed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := proxy.Balancer().CurrentPolicy(); got != PolicyPrequal {
		t.Fatalf("policy after swap = %v", got)
	}
}

// TestPrequalSwapStress races the async probe loop, live dispatch and
// concurrent SetPolicy swaps — the -race regression net for the probing
// subsystem's locking. Deliberately kept on in -short: it runs ~300 ms
// and is exactly the kind of interleaving CI must cover.
func TestPrequalSwapStress(t *testing.T) {
	proxy, apps, shutdown := startPrequalTier(t, 2, &probe.Config{
		Interval: 2 * time.Millisecond,
		TTL:      30 * time.Millisecond,
	})
	defer shutdown()
	client := &http.Client{Timeout: 5 * time.Second}

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Swapper: prequal <-> current_load as fast as it can.
	wg.Add(1)
	go func() {
		defer wg.Done()
		policies := []Policy{PolicyCurrentLoad, PolicyPrequal, PolicyRoundRobin, PolicyPrequal}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			proxy.Balancer().SetPolicy(policies[i%len(policies)])
			time.Sleep(time.Millisecond)
		}
	}()
	// Stall injector: keeps pools aging out mid-run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			apps[0].Stall(20 * time.Millisecond)
			time.Sleep(50 * time.Millisecond)
		}
	}()
	// Traffic.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := client.Get(proxy.URL() + "/x")
				if err != nil {
					continue
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				_ = resp.Body.Close()
			}
		}()
	}

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	if proxy.Served() == 0 {
		t.Fatal("no requests served under swap stress")
	}
}

// TestPrequalDispatchZeroAlloc is the deterministic guard CI runs by
// name: the prequal dispatch hot path — eligibility scan, pools.Pick,
// bookkeeping — must not allocate.
func TestPrequalDispatchZeroAlloc(t *testing.T) {
	cycle := prequalCycle()
	allocs := testing.AllocsPerRun(1000, func() {
		if err := cycle(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("prequal dispatch allocates %.1f/op, want 0", allocs)
	}
}

// The three cycles below are one acquire/release round trip each, over
// two in-memory 64-endpoint backends: the arms the dispatch benchmarks
// and TestDispatchBeatsMutexReference time against one another.

// prequalCycle dispatches under prequal with pools that hold
// non-expiring samples, isolating the dispatch path from probing I/O.
func prequalCycle() func() error {
	backends := []*Backend{NewBackend("a", "u", 64), NewBackend("b", "u", 64)}
	bal := NewBalancer(PolicyPrequal, MechanismModified, backends, Config{Sweeps: 1})
	start := time.Now()
	pools := probe.NewPools(probe.Config{TTL: time.Hour, ReuseBudget: 1 << 30},
		func() time.Duration { return time.Since(start) })
	pools.Observe("a", 1, time.Millisecond)
	pools.Observe("b", 2, 2*time.Millisecond)
	bal.SetProbePools(pools, nil)
	return balancerCycle(bal)
}

// currentLoadCycle dispatches under current_load, the baseline arm.
func currentLoadCycle() func() error {
	backends := []*Backend{NewBackend("a", "u", 64), NewBackend("b", "u", 64)}
	return balancerCycle(NewBalancer(PolicyCurrentLoad, MechanismModified, backends, Config{Sweeps: 1}))
}

func balancerCycle(bal *Balancer) func() error {
	return func() error {
		_, rel, err := bal.Acquire(128)
		if err != nil {
			return err
		}
		rel.Done(256)
		return nil
	}
}

// referenceCycle dispatches under current_load on the frozen mutex
// path (reference.go).
func referenceCycle() func() error {
	ref := NewReferenceBalancer(PolicyCurrentLoad, []string{"a", "b"}, 64, Config{Sweeps: 1})
	return func() error {
		_, rel, err := ref.Acquire(128)
		if err != nil {
			return err
		}
		rel.Done(256)
		return nil
	}
}

// BenchmarkPrequalDispatchOverhead holds the arms of the dispatch
// path's three timing ratios. Each was a pass/fail threshold of a
// per-PR report program that CI ran on every push until PR 21 retired
// it; a threshold survived as a go test guard only if it held 30 runs
// out of 30 on the unchanged tree (2 vCPUs, commit d90ea05):
//
//   - prequal over current_load, was "at most 30%": 15.8 / 21.1 / 25.6%
//     and 17.2 / 17.1 / 18.7% on two sets of three runs of the report;
//     -6.9% to +51.4% (median 19.6%) over thirty runs of fastestRounds,
//     four of them above 30%. Retired: the two arms differ by ~25 ns
//     and a preempted round moves that by more than the margin.
//   - current_load against reference_mutex, was "at most 80%":
//     55.9-59% on the report; 49.6-63.0% over thirty idle runs of
//     fastestRounds, 52.2-59.1% over thirty with both cores busy.
//     Kept: TestDispatchBeatsMutexReference.
//   - parallel at -cpu 4 against -cpu 1, was "at least 2x on a host
//     with 4 cores": no host so far has had them (it read 0.60-0.62x
//     on two), so it gated nothing. Retired; read it with -cpu 1,2,4.
//     That the arm allocates nothing is TestAcquireZeroAlloc/parallel.
func BenchmarkPrequalDispatchOverhead(b *testing.B) {
	run := func(b *testing.B, cycle func() error) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := cycle(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("prequal", func(b *testing.B) { run(b, prequalCycle()) })
	b.Run("current_load", func(b *testing.B) { run(b, currentLoadCycle()) })
	b.Run("reference_mutex", func(b *testing.B) { run(b, referenceCycle()) })
	b.Run("parallel", func(b *testing.B) {
		bal := NewBalancer(PolicyCurrentLoad, MechanismModified, parallelBackends(), Config{Sweeps: 1})
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, rel, err := bal.Acquire(128); err == nil {
					rel.Done(256)
				}
			}
		})
	})
}

// TestDispatchBeatsMutexReference is the one timing threshold that
// outlived the report program: the atomic-snapshot dispatch costs at
// most 80% of the frozen mutex path, both timed here, in this process.
// The arms alternate and each keeps its fastest round, so a preempted
// round costs nothing; see BenchmarkPrequalDispatchOverhead for the
// readings that let it stay.
func TestDispatchBeatsMutexReference(t *testing.T) {
	if testing.Short() {
		t.Skip("timing guard: the race detector taxes the two paths unequally")
	}
	cur, ref := fastestRounds(t, currentLoadCycle(), referenceCycle())
	if share := float64(cur) / float64(ref); share > 0.80 {
		t.Fatalf("current_load dispatch takes %v per 100k round trips, %.0f%% of the mutex reference's %v; want at most 80%%",
			cur, 100*share, ref)
	}
}

// fastestRounds times 100k-cycle rounds of a and b alternately and
// returns each arm's fastest of five.
func fastestRounds(t *testing.T, a, b func() error) (fastA, fastB time.Duration) {
	round := func(cycle func() error) time.Duration {
		start := time.Now()
		for i := 0; i < 100_000; i++ {
			if err := cycle(); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start)
	}
	round(a) // warm-up
	round(b)
	fastA, fastB = time.Hour, time.Hour
	for i := 0; i < 5; i++ {
		fastA = min(fastA, round(a))
		fastB = min(fastB, round(b))
	}
	return fastA, fastB
}
