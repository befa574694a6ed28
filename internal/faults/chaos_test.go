package faults_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"millibalance/internal/adapt"
	"millibalance/internal/faults"
	"millibalance/internal/httpcluster"
	"millibalance/internal/obs"
)

// Chaos matrix: every fault shape against the original-mechanism
// baseline and the remedied proxy (modified get_endpoint +
// current_load + resilience), plus the adaptive control plane for the
// paper's flagship freeze shape. The assertions are relative — the
// remedy must do no worse than the baseline on the shape's symptom —
// so the matrix is robust to scheduler noise while still failing if a
// remedy regresses.

const (
	chaosClients  = 24
	chaosLoadTime = time.Second
)

type chaosArm struct {
	stats      *httpcluster.LoadStats
	maxWorkers int
	// maxGetEndpoint is the longest time any request spent inside
	// endpoint acquisition — the blocked-worker signature: under the
	// original mechanism a poller holds its web worker for up to the
	// full acquire window.
	maxGetEndpoint time.Duration
	shed           uint64
	retries        uint64
	faultsSeen     int
}

// share is the fraction of requests at or over the threshold.
func (a chaosArm) share(th time.Duration) float64 {
	total := a.stats.Total()
	if total == 0 {
		return 0
	}
	return float64(a.stats.CountOver(th)) / float64(total)
}

func (a chaosArm) failShare() float64 {
	total := a.stats.Total()
	if total == 0 {
		return 0
	}
	return float64(a.stats.Failures()) / float64(total)
}

// runChaosArm boots a fresh 3-backend tier, injects the shape
// periodically against the first backend, and drives closed-loop load.
func runChaosArm(t *testing.T, shape, arm string) chaosArm {
	t.Helper()

	var apps []*httpcluster.AppServer
	var backends []*httpcluster.Backend
	for _, name := range []string{"app1", "app2", "app3"} {
		app, err := httpcluster.StartAppServer(httpcluster.AppServerConfig{
			Name: name, Workers: 8, ServiceTime: 5 * time.Millisecond, ResponseBytes: 512,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = app.Close() }()
		apps = append(apps, app)
		// Endpoint pools sized so two healthy backends can absorb the
		// full client population; otherwise retries exhaust the healthy
		// pools and fall back onto the faulted Busy backend.
		backends = append(backends, httpcluster.NewBackend(name, app.URL(), 16))
	}

	// Faults are injected on the pooled transport the proxy would have
	// built for itself, so the matrix measures the keep-alive path.
	pooled := httpcluster.NewUpstreamTransport(backends)
	defer pooled.CloseIdleConnections()
	tr := faults.NewTransport(pooled, 42)
	resil := &httpcluster.Resilience{
		AttemptTimeout: 500 * time.Millisecond,
		MaxRetries:     2,
		RetryBackoff:   2 * time.Millisecond,
		ShedAfter:      200 * time.Millisecond,
		// The fault duty cycle here is far above the 20% default budget
		// ratio; a 1:1 budget still bounds retry amplification (one hop
		// per request on average) without starving the matrix.
		RetryBudget:    1,
		RetryBudgetCap: 200,
	}
	cfg := httpcluster.ProxyConfig{
		Workers:       64,
		Transport:     tr,
		EventCapacity: 4096,
		SpanCapacity:  16384,
		LB:            httpcluster.Config{},
	}
	switch arm {
	case "original":
		cfg.Policy = httpcluster.PolicyTotalRequest
		cfg.Mechanism = httpcluster.MechanismOriginal
	case "remedy":
		cfg.Policy = httpcluster.PolicyCurrentLoad
		cfg.Mechanism = httpcluster.MechanismModified
		cfg.Resilience = resil
	case "adaptive":
		cfg.Policy = httpcluster.PolicyTotalRequest
		cfg.Mechanism = httpcluster.MechanismOriginal
		cfg.Resilience = resil
		cfg.Adapt = &adapt.Config{
			Tick:          20 * time.Millisecond,
			Window:        200 * time.Millisecond,
			ProbeInterval: 60 * time.Millisecond,
			ProbeRTBudget: time.Second,
			MaxQuarantine: 2 * time.Second,
		}
	default:
		t.Fatalf("unknown arm %q", arm)
	}
	proxy, err := httpcluster.StartProxy(cfg, backends)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = proxy.Close() }()

	inj := buildInjector(t, shape, apps[0], tr)
	inj.Arm(proxy.Events(), proxy.Epoch())
	inj.Start()
	defer inj.Stop()

	// Sample the proxy's worker occupancy for the pile-up signature.
	maxWorkers := 0
	sampleDone := make(chan struct{})
	sampleStop := make(chan struct{})
	go func() {
		defer close(sampleDone)
		for {
			select {
			case <-sampleStop:
				return
			case <-time.After(5 * time.Millisecond):
				if n := proxy.WorkersInFlight(); n > maxWorkers {
					maxWorkers = n
				}
			}
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), chaosLoadTime)
	defer cancel()
	stats := httpcluster.RunLoad(ctx, proxy.URL(), httpcluster.LoadGenConfig{
		Clients: chaosClients, ThinkTime: time.Millisecond,
	}, 100*time.Millisecond, 250*time.Millisecond)
	close(sampleStop)
	<-sampleDone

	if stats.Total() == 0 {
		t.Fatalf("%s/%s: no requests completed", shape, arm)
	}
	var maxGE time.Duration
	for _, sp := range proxy.Tracer().Spans() {
		if d := sp.Duration(obs.StageGetEndpoint); d > maxGE {
			maxGE = d
		}
	}
	return chaosArm{
		stats:          stats,
		maxWorkers:     maxWorkers,
		maxGetEndpoint: maxGE,
		shed:           proxy.Shed(),
		retries:        proxy.Retries(),
		faultsSeen:     inj.Fired(),
	}
}

// buildInjector maps a shape name onto the live tier.
func buildInjector(t *testing.T, shape string, target *httpcluster.AppServer, tr *faults.Transport) *faults.Injector {
	t.Helper()
	host := strings.TrimPrefix(target.URL(), "http://")
	sched := faults.Schedule{Kind: faults.Periodic, Interval: 250 * time.Millisecond, Duration: 150 * time.Millisecond, Seed: 7}
	switch shape {
	case "freeze":
		return faults.NewInjector(faults.Freeze{Name: target.Name(), S: target}, sched)
	case "gc_pause":
		return faults.NewInjector(faults.GCPause{Name: target.Name(), S: target}, sched)
	case "slow":
		return faults.NewInjector(faults.Slow{Name: target.Name(), D: target, Extra: 150 * time.Millisecond},
			faults.Schedule{Kind: faults.Periodic, Interval: 250 * time.Millisecond, Duration: 200 * time.Millisecond, Seed: 7})
	case "crash":
		return faults.NewInjector(faults.Crash{Name: target.Name(), R: target},
			faults.Schedule{Kind: faults.Periodic, Interval: 400 * time.Millisecond, Duration: 150 * time.Millisecond, Seed: 7})
	case "netloss":
		return faults.NewInjector(faults.NetDegrade{T: tr, Host: host, Loss: 0.9},
			faults.Schedule{Kind: faults.Periodic, Interval: 250 * time.Millisecond, Duration: 200 * time.Millisecond, Seed: 7})
	default:
		t.Fatalf("unknown shape %q", shape)
		return nil
	}
}

func TestChaosMatrix(t *testing.T) {
	if testing.Short() && testing.Verbose() {
		t.Log("short mode: freeze and crash shapes only")
	}
	shapes := []string{"freeze", "crash", "slow", "netloss", "gc_pause"}
	if testing.Short() {
		shapes = []string{"freeze", "crash"}
	}
	for _, shape := range shapes {
		shape := shape
		t.Run(shape, func(t *testing.T) {
			orig := runChaosArm(t, shape, "original")
			remedy := runChaosArm(t, shape, "remedy")

			if orig.faultsSeen == 0 || remedy.faultsSeen == 0 {
				t.Fatalf("injector idle: orig=%d remedy=%d windows", orig.faultsSeen, remedy.faultsSeen)
			}

			switch shape {
			case "freeze", "gc_pause":
				// The baseline reproduces the paper's blocked-worker
				// signature: at least one worker spends a full poll
				// interval blocked inside get_endpoint on the frozen
				// backend's exhausted pool.
				if orig.maxGetEndpoint < 100*time.Millisecond {
					t.Errorf("original blocked-worker signature absent: max get_endpoint %v, want ≥ 100ms", orig.maxGetEndpoint)
				}
				// The remedy fails fast instead of polling.
				if remedy.maxGetEndpoint >= orig.maxGetEndpoint {
					t.Errorf("remedy max get_endpoint %v ≥ original %v", remedy.maxGetEndpoint, orig.maxGetEndpoint)
				}
				// And its tail share must not exceed the baseline's:
				// fail-fast + current_load route around the freeze.
				if rs, os := remedy.share(100*time.Millisecond), orig.share(100*time.Millisecond); rs > os+0.02 {
					t.Errorf("remedy slow-share %.3f > original %.3f", rs, os)
				}
			case "slow":
				if rs, os := remedy.share(100*time.Millisecond), orig.share(100*time.Millisecond); rs > os+0.02 {
					t.Errorf("remedy slow-share %.3f > original %.3f", rs, os)
				}
			case "crash", "netloss":
				// Retries turn hard upstream failures into successes.
				rf, of := remedy.failShare(), orig.failShare()
				if rf > of+0.02 {
					t.Errorf("remedy fail-share %.3f > original %.3f", rf, of)
				}
				if rf > 0.10 {
					t.Errorf("remedy fail-share %.3f, want < 0.10 with retries", rf)
				}
				if remedy.retries == 0 {
					t.Error("remedy recorded no retries under hard failures")
				}
			}

			t.Logf("%s: original total=%d fail=%.3f slow100=%.3f maxGE=%v | remedy total=%d fail=%.3f slow100=%.3f maxGE=%v shed=%d retries=%d",
				shape, orig.stats.Total(), orig.failShare(), orig.share(100*time.Millisecond), orig.maxGetEndpoint,
				remedy.stats.Total(), remedy.failShare(), remedy.share(100*time.Millisecond), remedy.maxGetEndpoint,
				remedy.shed, remedy.retries)

			if shape == "freeze" {
				adaptive := runChaosArm(t, shape, "adaptive")
				// The control plane must remediate: its tail share stays
				// within the baseline's, and it survives the run.
				if as, os := adaptive.share(100*time.Millisecond), orig.share(100*time.Millisecond); as > os+0.05 {
					t.Errorf("adaptive slow-share %.3f > original %.3f", as, os)
				}
				t.Logf("%s: adaptive total=%d fail=%.3f slow100=%.3f maxGE=%v",
					shape, adaptive.stats.Total(), adaptive.failShare(), adaptive.share(100*time.Millisecond), adaptive.maxGetEndpoint)
			}
		})
	}
}

// TestCorrelatedFreezeSheds: when every backend freezes at once there
// is nowhere to route; the resilient proxy must shed fast instead of
// accumulating blocked workers.
func TestCorrelatedFreezeSheds(t *testing.T) {
	var apps []*httpcluster.AppServer
	var backends []*httpcluster.Backend
	var shapes faults.Correlated
	for _, name := range []string{"app1", "app2"} {
		app, err := httpcluster.StartAppServer(httpcluster.AppServerConfig{
			Name: name, Workers: 4, ServiceTime: 5 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = app.Close() }()
		apps = append(apps, app)
		backends = append(backends, httpcluster.NewBackend(name, app.URL(), 4))
		shapes = append(shapes, faults.Freeze{Name: name, S: app})
	}
	proxy, err := httpcluster.StartProxy(httpcluster.ProxyConfig{
		Workers:   8,
		Policy:    httpcluster.PolicyCurrentLoad,
		Mechanism: httpcluster.MechanismModified,
		LB:        httpcluster.Config{Sweeps: 1},
		Resilience: &httpcluster.Resilience{
			AttemptTimeout: 2 * time.Second,
			MaxRetries:     -1,
			ShedAfter:      50 * time.Millisecond,
		},
	}, backends)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = proxy.Close() }()

	inj := faults.NewInjector(shapes, faults.Schedule{Kind: faults.OneShot, Interval: 50 * time.Millisecond, Duration: 700 * time.Millisecond})
	inj.Start()
	defer inj.Stop()

	ctx, cancel := context.WithTimeout(context.Background(), 600*time.Millisecond)
	defer cancel()
	stats := httpcluster.RunLoad(ctx, proxy.URL(), httpcluster.LoadGenConfig{Clients: 16, ThinkTime: time.Millisecond})
	if stats.Total() == 0 {
		t.Fatal("no requests completed")
	}
	if proxy.Shed() == 0 {
		t.Fatal("correlated freeze produced no shedding")
	}
	if apps[0].InFlight() > 8 {
		t.Fatalf("app1 in-flight %d, want bounded by its worker pool", apps[0].InFlight())
	}
}
