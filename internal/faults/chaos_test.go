package faults_test

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"strings"
	"syscall"
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

// chaosRows are the matrix's shapes, each injected on app1 as a
// scenario in the -faults grammar, with the error causes
// (httpcluster.Cause) its arms may answer with besides client_cancel,
// which every row allows because the load ends on a context deadline.
// A stall or a slow reply delays requests and fails none; a crash
// refuses dials and tears down the exchanges in flight; an injected
// loss resets the connection at the app server with no reply, after
// the proxy's replay of a reused connection, so the proxy counts it as
// reset.
var chaosRows = []struct {
	shape, scenario string
	causes          []string
}{
	{"freeze", "freeze:periodic:interval=250ms:duration=150ms:seed=7", nil},
	{"crash", "crash:periodic:interval=400ms:duration=150ms:seed=7", []string{"dial_refused", "reset", "cut_short"}},
	{"slow", "slow:periodic:interval=250ms:duration=200ms:delay=150ms:seed=7", nil},
	{"netloss", "netloss:periodic:interval=250ms:duration=200ms:loss=0.9:seed=7", []string{"reset"}},
	{"gc_pause", "gc_pause:periodic:interval=250ms:duration=150ms:seed=7", nil},
}

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
	causes         map[string]uint64
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

// runChaosArm boots a fresh 3-backend tier, injects the scenario
// against the first backend, and drives closed-loop load.
func runChaosArm(t *testing.T, scenario, arm string) chaosArm {
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

	specs, err := faults.ParseScenario(scenario)
	if err != nil {
		t.Fatal(err)
	}
	injs, err := faults.Bind(specs, apps)
	if err != nil {
		t.Fatal(err)
	}
	inj := injs[0]
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
		t.Fatalf("%s/%s: no requests completed", scenario, arm)
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
		causes:         proxy.ErrorCauses(),
	}
}

func TestChaosMatrix(t *testing.T) {
	if testing.Short() && testing.Verbose() {
		t.Log("short mode: freeze and crash shapes only")
	}
	rows := chaosRows
	if testing.Short() {
		rows = rows[:2] // freeze and crash
	}
	for _, row := range rows {
		shape := row.shape
		t.Run(shape, func(t *testing.T) {
			orig := runChaosArm(t, row.scenario, "original")
			remedy := runChaosArm(t, row.scenario, "remedy")

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

			checkCauses := func(arm string, a chaosArm) {
				t.Logf("%s: %s error causes %s", shape, arm, causeList(a.causes))
				for cause, n := range a.causes {
					if n > 0 && cause != "client_cancel" && !slices.Contains(row.causes, cause) {
						t.Errorf("%s %s: %d error replies for cause %s, allowed client_cancel and %v", shape, arm, n, cause, row.causes)
					}
				}
			}
			checkCauses("original", orig)
			checkCauses("remedy", remedy)

			if shape == "freeze" {
				adaptive := runChaosArm(t, row.scenario, "adaptive")
				// The control plane must remediate: its tail share stays
				// within the baseline's, and it survives the run.
				if as, os := adaptive.share(100*time.Millisecond), orig.share(100*time.Millisecond); as > os+0.05 {
					t.Errorf("adaptive slow-share %.3f > original %.3f", as, os)
				}
				t.Logf("%s: adaptive total=%d fail=%.3f slow100=%.3f maxGE=%v",
					shape, adaptive.stats.Total(), adaptive.failShare(), adaptive.share(100*time.Millisecond), adaptive.maxGetEndpoint)
				checkCauses("adaptive", adaptive)
			}
		})
	}
}

// TestNetLossResetsAtTheAppServer: a netloss window acts on the app
// server it names. A request sent to it straight meets a reset with no
// reply, the proxy, started as production starts it, answers its share
// with reset, the window's events name the backend, and once the window
// ends the server answers again.
func TestNetLossResetsAtTheAppServer(t *testing.T) {
	var apps []*httpcluster.AppServer
	var backends []*httpcluster.Backend
	for _, name := range []string{"app1", "app2"} {
		app, err := httpcluster.StartAppServer(httpcluster.AppServerConfig{Name: name, Workers: 4, ServiceTime: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = app.Close() }()
		apps = append(apps, app)
		backends = append(backends, httpcluster.NewBackend(name, app.URL(), 4))
	}
	proxy, err := httpcluster.StartProxy(httpcluster.ProxyConfig{
		Workers: 4, Policy: httpcluster.PolicyRoundRobin, Mechanism: httpcluster.MechanismModified, EventCapacity: 256,
	}, backends)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = proxy.Close() }()
	specs, err := faults.ParseScenario("netloss:oneshot:interval=10ms:duration=400ms:loss=1:seed=3:target=app2")
	if err != nil {
		t.Fatal(err)
	}
	injs, err := faults.Bind(specs, apps)
	if err != nil {
		t.Fatal(err)
	}
	inj := injs[0]
	inj.Arm(proxy.Events(), proxy.Epoch())
	inj.Start()
	defer inj.Stop()
	for deadline := time.Now().Add(2 * time.Second); inj.Fired() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the window never opened")
		}
	}

	// rawGet sends one GET on a connection of its own and returns what
	// came back before the connection ended.
	rawGet := func(addr string) (string, error) {
		c, err := net.Dial("tcp", strings.TrimPrefix(addr, "http://"))
		if err != nil {
			return "", err
		}
		defer func() { _ = c.Close() }()
		_ = c.SetDeadline(time.Now().Add(2 * time.Second))
		if _, err := io.WriteString(c, "GET /x HTTP/1.1\r\nHost: app\r\n\r\n"); err != nil {
			return "", err
		}
		got, err := bufio.NewReader(c).ReadString('\n')
		return got, err
	}
	if got, err := rawGet(apps[1].URL()); got != "" || !errors.Is(err, syscall.ECONNRESET) {
		t.Errorf("app2 in the window: read %q, %v; want nothing and a reset", got, err)
	}
	if got, err := rawGet(apps[0].URL()); err != nil || !strings.HasPrefix(got, "HTTP/1.1 200") {
		t.Errorf("app1 in app2's window: read %q, %v; want a 200", got, err)
	}
	client := &http.Client{Transport: &http.Transport{}, Timeout: 2 * time.Second}
	defer client.CloseIdleConnections()
	for i := 0; i < 8; i++ {
		resp, err := client.Get(proxy.URL() + "/x")
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}
	if causes := proxy.ErrorCauses(); causes["reset"] == 0 || proxy.Errors() != causes["reset"] {
		t.Errorf("proxy error causes %s, want reset alone", causeList(causes))
	}

	log := proxy.Events()
	for deadline := time.Now().Add(2 * time.Second); len(log.Kind(obs.KindFaultEnd)) == 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the window never closed")
		}
	}
	for _, kind := range []string{obs.KindFaultStart, obs.KindFaultEnd} {
		if evs := log.Kind(kind); len(evs) != 1 || evs[0].Backend != "app2" || evs[0].Fault != "netloss" {
			t.Errorf("%s events %+v, want one netloss event on app2", kind, evs)
		}
	}
	if got, err := rawGet(apps[1].URL()); err != nil || !strings.HasPrefix(got, "HTTP/1.1 200") {
		t.Errorf("app2 after the window: read %q, %v; want a 200", got, err)
	}
}

// causeList prints the non-zero error causes in name order.
func causeList(causes map[string]uint64) string {
	var out []string
	for c, n := range causes {
		if n > 0 {
			out = append(out, fmt.Sprintf("%s=%d", c, n))
		}
	}
	slices.Sort(out)
	return "[" + strings.Join(out, " ") + "]"
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
