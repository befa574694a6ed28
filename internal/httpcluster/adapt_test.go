package httpcluster

import (
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"millibalance/internal/adapt"
)

// TestBalancerRuntimeSwapReseeds covers the wall-clock swap surface at
// the unit level: counters survive, and current_load's invariant
// lb_value == in-flight holds immediately after swapping in.
func TestBalancerRuntimeSwapReseeds(t *testing.T) {
	backends := []*Backend{
		NewBackend("a", "http://a", 8),
		NewBackend("b", "http://b", 8),
	}
	bal := NewBalancer(PolicyTotalRequest, MechanismModified, backends, Config{})

	var releases []Release
	for i := 0; i < 5; i++ {
		be, release, err := bal.Acquire(100)
		if err != nil {
			t.Fatal(err)
		}
		_ = be
		releases = append(releases, release)
	}
	releases[0].Done(200) // one completion: 4 in flight, 5 dispatched

	bal.SetPolicy(PolicyCurrentLoad)
	if got, want := bal.CurrentPolicy(), PolicyCurrentLoad; got != want {
		t.Fatalf("policy = %v, want %v", got, want)
	}
	for _, be := range backends {
		if got, want := be.LBValue(), float64(be.Dispatched()-be.Completed()); got != want {
			t.Fatalf("%s: lb_value %v != in-flight %v after swap", be.Name(), got, want)
		}
	}
	for _, r := range releases[1:] {
		r.Done(200)
	}
	for _, be := range backends {
		if be.LBValue() != 0 {
			t.Fatalf("%s: lb_value %v after drain, want 0", be.Name(), be.LBValue())
		}
	}

	bal.SetMechanism(MechanismOriginal)
	if got := bal.CurrentMechanism(); got != MechanismOriginal {
		t.Fatalf("mechanism = %v after swap", got)
	}

	// round_robin rotates strictly through the backends.
	bal.SetPolicy(PolicyRoundRobin)
	seen := map[string]int{}
	for i := 0; i < 6; i++ {
		be, release, err := bal.Acquire(0)
		if err != nil {
			t.Fatal(err)
		}
		seen[be.Name()]++
		release.Done(0)
	}
	if seen["a"] != 3 || seen["b"] != 3 {
		t.Fatalf("round_robin distribution %v, want 3/3", seen)
	}
}

// TestBalancerQuarantineAndProbe covers drain and probe re-admission on
// the wall-clock balancer.
func TestBalancerQuarantineAndProbe(t *testing.T) {
	backends := []*Backend{
		NewBackend("a", "http://a", 8),
		NewBackend("b", "http://b", 8),
	}
	bal := NewBalancer(PolicyTotalRequest, MechanismModified, backends, Config{})

	var mu sync.Mutex
	var probes []bool
	bal.SetProbeHook(func(_ string, rt time.Duration, ok bool) {
		mu.Lock()
		probes = append(probes, ok)
		mu.Unlock()
	})

	if !bal.SetQuarantine("a", true) {
		t.Fatal("backend a not found")
	}
	for i := 0; i < 6; i++ {
		be, release, err := bal.Acquire(0)
		if err != nil {
			t.Fatal(err)
		}
		if be.Name() == "a" {
			t.Fatal("quarantined backend dispatched")
		}
		release.Done(0)
	}

	if !bal.ArmProbe("a") {
		t.Fatal("probe not armed")
	}
	be, release, err := bal.Acquire(0)
	if err != nil {
		t.Fatal(err)
	}
	if be.Name() != "a" {
		t.Fatalf("probe dispatched to %s, want a", be.Name())
	}
	release.Done(0)
	mu.Lock()
	defer mu.Unlock()
	if len(probes) != 1 || !probes[0] {
		t.Fatalf("probes = %v, want one successful probe", probes)
	}
}

// TestStartProxyRejectsUnrunnableAdaptTargets checks the ladder's swap
// targets against what the proxy's balancer runs: a misspelt target, or
// a policy only the simulator runs, is refused at start with the valid
// names, instead of a swap the controller logs but the balancer never
// makes.
func TestStartProxyRejectsUnrunnableAdaptTargets(t *testing.T) {
	policies := strings.Join(PolicyNames(), ", ")
	for _, tc := range []struct {
		cfg  adapt.Config
		want string
	}{
		{adapt.Config{PolicyTarget: "curent_load"}, `unknown adaptive policy "curent_load" (have ` + policies + ")"},
		{adapt.Config{FallbackPolicy: "random"}, `unknown adaptive policy "random" (have ` + policies + ")"},
		{adapt.Config{MechanismTarget: "modifed"}, `unknown adaptive mechanism "modifed"`},
	} {
		cfg := tc.cfg
		p, err := StartProxy(ProxyConfig{Adapt: &cfg}, []*Backend{NewBackend("app1", "http://127.0.0.1:1", 1)})
		if err == nil {
			_ = p.Close()
			t.Fatalf("%+v: StartProxy accepted an unrunnable target", tc.cfg)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%+v: error %q, want it to contain %q", tc.cfg, err, tc.want)
		}
	}
}

// TestHTTPAdaptiveQuarantineAndAdmin drives the full wall-clock loop: a
// stalled app server is detected from the balancer counters,
// quarantined, probed back in after the stall, and the whole story is
// served over /admin/adapt and /admin/adapt/decisions.
func TestHTTPAdaptiveQuarantineAndAdmin(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock adaptive loop")
	}
	db, err := StartDBServer(200 * time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = db.Close() }()
	var apps []*AppServer
	var backends []*Backend
	for _, name := range []string{"app1", "app2"} {
		app, err := StartAppServer(AppServerConfig{
			Name:        name,
			Workers:     32,
			ServiceTime: 2 * time.Millisecond,
			DBURL:       db.URL(),
			DBQueries:   1,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = app.Close() }()
		apps = append(apps, app)
		backends = append(backends, NewBackend(name, app.URL(), 4))
	}
	proxy, err := StartProxy(ProxyConfig{
		Workers:   64,
		Policy:    PolicyTotalRequest,
		Mechanism: MechanismModified,
		LB:        Config{SweepPause: 10 * time.Millisecond},
		Adapt: &adapt.Config{
			Tick:          20 * time.Millisecond,
			ProbeInterval: 60 * time.Millisecond,
			ProbeRTBudget: time.Second,
			MaxQuarantine: 3 * time.Second,
		},
	}, backends)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = proxy.Close() }()

	// Background load: enough concurrency to fill app1's 4-endpoint
	// pool when it stalls.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	client := &http.Client{Timeout: 10 * time.Second}
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := client.Get(proxy.URL() + "/story")
				if err == nil {
					_, _ = io.Copy(io.Discard, resp.Body)
					_ = resp.Body.Close()
				}
			}
		}()
	}
	defer func() { close(stop); wg.Wait() }()

	time.Sleep(200 * time.Millisecond)
	apps[0].Stall(500 * time.Millisecond)

	waitFor := func(what string, deadline time.Duration, cond func() bool) {
		t.Helper()
		end := time.Now().Add(deadline)
		for time.Now().Before(end) {
			if cond() {
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
		t.Fatalf("timed out waiting for %s; decisions: %v", what, proxy.Adapt().Log().Decisions())
	}
	ctrl := proxy.Adapt()
	waitFor("quarantine", 3*time.Second, func() bool {
		return ctrl.Log().Count(adapt.ActionQuarantine) > 0
	})
	waitFor("re-admission", 5*time.Second, func() bool {
		return ctrl.Log().Count(adapt.ActionReadmit) > 0
	})

	// Admin surfaces: state JSON and the decision log as JSONL,
	// round-tripping through adapt.ReadJSONL.
	resp, err := client.Get(proxy.URL() + "/admin/adapt")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/admin/adapt status %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "\"policy\"") {
		t.Fatalf("/admin/adapt payload missing policy: %s", body)
	}

	resp, err = client.Get(proxy.URL() + "/admin/adapt/decisions")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/admin/adapt/decisions status %d", resp.StatusCode)
	}
	decisions, err := adapt.ReadJSONL(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var sawQuarantine, sawReadmit bool
	for _, d := range decisions {
		switch d.Action {
		case adapt.ActionQuarantine:
			sawQuarantine = true
		case adapt.ActionReadmit:
			sawReadmit = true
		}
	}
	if !sawQuarantine || !sawReadmit {
		t.Fatalf("exported decisions missing quarantine/readmit: %v", decisions)
	}
}
