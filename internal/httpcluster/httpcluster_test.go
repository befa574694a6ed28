package httpcluster

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"millibalance/internal/obs"
)

func TestParsePolicyAndMechanism(t *testing.T) {
	for _, name := range []string{"total_request", "total_traffic", "current_load"} {
		p, err := ParsePolicy(name)
		if err != nil || p.String() != name {
			t.Fatalf("ParsePolicy(%q) = %v, %v", name, p, err)
		}
	}
	if _, err := ParsePolicy("nope"); err == nil {
		t.Fatal("unknown policy accepted")
	}
	m, err := ParseMechanism("original")
	if err != nil || m != MechanismOriginal {
		t.Fatalf("ParseMechanism(original) = %v, %v", m, err)
	}
	if _, err := ParseMechanism("nope"); err == nil {
		t.Fatal("unknown mechanism accepted")
	}
}

func TestBackendEndpointPool(t *testing.T) {
	be := NewBackend("a", "http://127.0.0.1:1", 2)
	bal := NewBalancer(PolicyCurrentLoad, MechanismModified, []*Backend{be}, Config{Sweeps: 1})
	_, rel1, err := bal.Acquire(100)
	if err != nil {
		t.Fatal(err)
	}
	_, rel2, err := bal.Acquire(100)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := bal.Acquire(100); err == nil {
		t.Fatal("third acquire succeeded with pool of 2")
	}
	rel1.Done(10)
	rel2.Done(10)
	if _, rel, err := bal.Acquire(100); err != nil {
		t.Fatalf("acquire after release: %v", err)
	} else {
		rel.Done(0)
	}
}

func TestBalancerPolicyBookkeeping(t *testing.T) {
	a := NewBackend("a", "u", 10)
	b := NewBackend("b", "u", 10)
	bal := NewBalancer(PolicyCurrentLoad, MechanismModified, []*Backend{a, b}, Config{})
	be1, rel1, _ := bal.Acquire(0)
	be2, rel2, _ := bal.Acquire(0)
	if be1 == be2 {
		t.Fatalf("current_load sent both requests to %s", be1.Name())
	}
	if a.LBValue() != 1 || b.LBValue() != 1 {
		t.Fatalf("lb values %v/%v", a.LBValue(), b.LBValue())
	}
	rel1.Done(0)
	rel2.Done(0)
	if a.LBValue() != 0 || b.LBValue() != 0 {
		t.Fatalf("lb values after completion %v/%v", a.LBValue(), b.LBValue())
	}
}

func TestBalancerTotalTrafficBytes(t *testing.T) {
	a := NewBackend("a", "u", 10)
	bal := NewBalancer(PolicyTotalTraffic, MechanismModified, []*Backend{a}, Config{})
	_, rel, _ := bal.Acquire(300)
	if a.LBValue() != 0 {
		t.Fatalf("traffic lb before completion = %v", a.LBValue())
	}
	rel.Done(700)
	if a.LBValue() != 1000 {
		t.Fatalf("traffic lb = %v, want 1000", a.LBValue())
	}
}

func TestOriginalMechanismBlocksForWindow(t *testing.T) {
	a := NewBackend("a", "u", 1)
	bal := NewBalancer(PolicyTotalRequest, MechanismOriginal, []*Backend{a},
		Config{AcquireSleep: 20 * time.Millisecond, AcquireTimeout: 60 * time.Millisecond, Sweeps: 1})
	_, _, err := bal.Acquire(0) // hold the only endpoint
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, _, err = bal.Acquire(0)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("acquire succeeded with exhausted pool")
	}
	if elapsed < 50*time.Millisecond {
		t.Fatalf("original mechanism returned after %v, want ≥~60ms of polling", elapsed)
	}
	if a.State() != BackendBusy {
		t.Fatalf("state = %v after failure, want busy", a.State())
	}
}

func TestModifiedMechanismFailsFast(t *testing.T) {
	a := NewBackend("a", "u", 1)
	b := NewBackend("b", "u", 10)
	bal := NewBalancer(PolicyTotalRequest, MechanismModified, []*Backend{a, b}, Config{})
	_, _, err := bal.Acquire(0) // a (tie-break) holds its endpoint
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	be, rel, err := bal.Acquire(0) // b
	if err != nil {
		t.Fatal(err)
	}
	defer rel.Done(0)
	// Third: a has lb 1 = b lb 1, tie → a → instant fail → b.
	be3, rel3, err := bal.Acquire(0)
	if err != nil {
		t.Fatal(err)
	}
	defer rel3.Done(0)
	if time.Since(start) > 50*time.Millisecond {
		t.Fatalf("modified mechanism took %v", time.Since(start))
	}
	if be.Name() != "b" || be3.Name() != "b" {
		t.Fatalf("routed to %s/%s, want b/b", be.Name(), be3.Name())
	}
}

func TestBusyRecovery(t *testing.T) {
	a := NewBackend("a", "u", 1)
	bal := NewBalancer(PolicyTotalRequest, MechanismModified, []*Backend{a},
		Config{BusyRecovery: 30 * time.Millisecond, Sweeps: 1})
	_, _, _ = bal.Acquire(0)    // hold
	_, _, err := bal.Acquire(0) // fail → busy
	if err == nil || a.State() != BackendBusy {
		t.Fatalf("err=%v state=%v", err, a.State())
	}
	time.Sleep(40 * time.Millisecond)
	if a.State() != BackendAvailable {
		t.Fatalf("state = %v after recovery window", a.State())
	}
}

func TestParseBackendList(t *testing.T) {
	bes, err := ParseBackendList("a=http://x, b=http://y", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(bes) != 2 || bes[0].Name() != "a" || bes[1].URL() != "http://y" {
		t.Fatalf("parsed %+v", bes)
	}
	for _, bad := range []string{"", "nourl", "=x", "a="} {
		if _, err := ParseBackendList(bad, 5); err == nil {
			t.Fatalf("accepted %q", bad)
		}
	}
}

// startTier boots a db, n app servers and a proxy; the caller must Close
// everything via the returned shutdown function.
func startTier(t *testing.T, n int, policy Policy, mech Mechanism, endpoints int) (*Proxy, []*AppServer, func()) {
	t.Helper()
	db, err := StartDBServer(200 * time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	var apps []*AppServer
	var backends []*Backend
	for i := 0; i < n; i++ {
		app, err := StartAppServer(AppServerConfig{
			Name:        "app" + string(rune('1'+i)),
			Workers:     64,
			ServiceTime: 2 * time.Millisecond,
			DBURL:       db.URL(),
			DBQueries:   1,
		})
		if err != nil {
			t.Fatal(err)
		}
		apps = append(apps, app)
		backends = append(backends, NewBackend(app.Name(), app.URL(), endpoints))
	}
	proxy, err := StartProxy(ProxyConfig{
		Workers:   128,
		Policy:    policy,
		Mechanism: mech,
		LB:        Config{SweepPause: 20 * time.Millisecond},
	}, backends)
	if err != nil {
		t.Fatal(err)
	}
	return proxy, apps, func() {
		_ = proxy.Close()
		for _, a := range apps {
			_ = a.Close()
		}
		_ = db.Close()
	}
}

func TestHTTPEndToEnd(t *testing.T) {
	// total_request round-robins even under sequential load;
	// current_load would legitimately keep picking the first idle
	// backend when nothing is in flight.
	proxy, apps, shutdown := startTier(t, 2, PolicyTotalRequest, MechanismModified, 16)
	defer shutdown()

	client := &http.Client{Timeout: 5 * time.Second}
	for i := 0; i < 40; i++ {
		resp, err := client.Get(proxy.URL() + "/story")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		if len(body) == 0 {
			t.Fatal("empty body")
		}
	}
	if proxy.Served() != 40 {
		t.Fatalf("proxy served %d", proxy.Served())
	}
	a, b := apps[0].Served(), apps[1].Served()
	if a == 0 || b == 0 {
		t.Fatalf("unbalanced: %d/%d", a, b)
	}
}

func TestHTTPConcurrentLoadBalances(t *testing.T) {
	proxy, apps, shutdown := startTier(t, 2, PolicyTotalRequest, MechanismModified, 32)
	defer shutdown()

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Timeout: 5 * time.Second}
			for j := 0; j < 10; j++ {
				doRequest(context.Background(), client, proxy.URL()+"/x")
			}
		}()
	}
	wg.Wait()
	a, b := apps[0].Served(), apps[1].Served()
	total := a + b
	if total != 160 {
		t.Fatalf("served %d, want 160", total)
	}
	diff := int64(a) - int64(b)
	if diff < 0 {
		diff = -diff
	}
	if float64(diff)/float64(total) > 0.2 {
		t.Fatalf("distribution skew under concurrency: %d vs %d", a, b)
	}
}

// TestHTTPStallInstability demonstrates the paper's phenomenon over real
// sockets: with the original mechanism and total_request, a stalled
// backend captures the dispatch flow and the tail latency explodes; with
// current_load the stall barely registers.
func TestHTTPStallInstability(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second wall-clock run")
	}
	run := func(policy Policy, mech Mechanism) (*LoadStats, *Proxy, func(d time.Duration), func()) {
		proxy, apps, shutdown := startTier(t, 2, policy, mech, 4)
		return nil, proxy, apps[0].Stall, shutdown
	}

	measure := func(policy Policy, mech Mechanism) *LoadStats {
		_, proxy, stall, shutdown := run(policy, mech)
		defer shutdown()
		ctx, cancel := context.WithTimeout(context.Background(), 2500*time.Millisecond)
		defer cancel()
		// One 400 ms stall mid-run.
		timer := time.AfterFunc(800*time.Millisecond, func() { stall(400 * time.Millisecond) })
		defer timer.Stop()
		return RunLoad(ctx, proxy.URL(), LoadGenConfig{Clients: 24, ThinkTime: 10 * time.Millisecond}, 300*time.Millisecond)
	}

	original := measure(PolicyTotalRequest, MechanismOriginal)
	remedy := measure(PolicyCurrentLoad, MechanismModified)

	if original.Total() < 100 || remedy.Total() < 100 {
		t.Fatalf("too few requests: %d / %d", original.Total(), remedy.Total())
	}
	origSlow := float64(original.CountOver(300*time.Millisecond)) / float64(original.Total())
	remedySlow := float64(remedy.CountOver(300*time.Millisecond)) / float64(remedy.Total())
	if origSlow == 0 {
		t.Fatalf("original run shows no slow requests (max=%v) — stall had no effect", original.Max())
	}
	if remedySlow > origSlow/2 {
		t.Fatalf("remedy slow share %.3f not clearly below original %.3f", remedySlow, origSlow)
	}
	if remedy.Quantile(0.9) > original.Quantile(0.9) {
		t.Fatalf("remedy p90 %v worse than original %v", remedy.Quantile(0.9), original.Quantile(0.9))
	}
}

func TestAppServerStallFreezesProgress(t *testing.T) {
	app, err := StartAppServer(AppServerConfig{Name: "a", Workers: 8, ServiceTime: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = app.Close() }()
	app.Stall(300 * time.Millisecond)
	time.Sleep(10 * time.Millisecond) // let the stall goroutine take the lock
	client := &http.Client{Timeout: 5 * time.Second}
	start := time.Now()
	resp, err := client.Get(app.URL() + "/x")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if elapsed := time.Since(start); elapsed < 250*time.Millisecond {
		t.Fatalf("request finished in %v during a 300ms stall", elapsed)
	}
	if app.Served() != 1 {
		t.Fatalf("served = %d", app.Served())
	}
}

func TestDBServerQueryCount(t *testing.T) {
	db, err := StartDBServer(100 * time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = db.Close() }()
	client := &http.Client{Timeout: time.Second}
	for i := 0; i < 5; i++ {
		resp, err := client.Get(db.URL() + "/query")
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}
	if db.Queries() != 5 {
		t.Fatalf("queries = %d", db.Queries())
	}
}

func TestProxyRejectsWhenAllBackendsExhausted(t *testing.T) {
	app, err := StartAppServer(AppServerConfig{Name: "a", Workers: 4, ServiceTime: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = app.Close() }()
	app.Stall(2 * time.Second)
	time.Sleep(10 * time.Millisecond)

	backends := []*Backend{NewBackend("a", app.URL(), 1)}
	proxy, err := StartProxy(ProxyConfig{
		Workers: 8, Policy: PolicyTotalRequest, Mechanism: MechanismModified,
		LB: Config{Sweeps: 1},
	}, backends)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = proxy.Close() }()

	client := &http.Client{Timeout: 5 * time.Second}
	// First request occupies the single endpoint (stuck in the stall);
	// the second must be rejected with 503.
	go func() { _, _ = client.Get(proxy.URL() + "/x") }()
	time.Sleep(50 * time.Millisecond)
	resp, err := client.Get(proxy.URL() + "/x")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
}

func TestAdminStallEndpoint(t *testing.T) {
	app, err := StartAppServer(AppServerConfig{Name: "a", Workers: 8, ServiceTime: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = app.Close() }()
	client := &http.Client{Timeout: 5 * time.Second}

	resp, err := client.Post(app.URL()+"/admin/stall?d=200ms", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stall status %d", resp.StatusCode)
	}
	time.Sleep(10 * time.Millisecond)
	start := time.Now()
	resp, err = client.Get(app.URL() + "/x")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if elapsed := time.Since(start); elapsed < 150*time.Millisecond {
		t.Fatalf("request served in %v during admin-injected stall", elapsed)
	}
}

func TestAdminStallValidation(t *testing.T) {
	app, err := StartAppServer(AppServerConfig{Name: "a", Workers: 8, ServiceTime: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = app.Close() }()
	client := &http.Client{Timeout: time.Second}

	resp, _ := client.Get(app.URL() + "/admin/stall?d=100ms") // GET not allowed
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status %d", resp.StatusCode)
	}
	for _, q := range []string{"", "?d=nonsense", "?d=-5s", "?d=2h"} {
		resp, _ := client.Post(app.URL()+"/admin/stall"+q, "", nil)
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%q status %d", q, resp.StatusCode)
		}
	}
}

func TestAdminStatsEndpoints(t *testing.T) {
	proxy, apps, shutdown := startTier(t, 2, PolicyCurrentLoad, MechanismModified, 8)
	defer shutdown()
	client := &http.Client{Timeout: 5 * time.Second}

	// Generate a little traffic first.
	for i := 0; i < 5; i++ {
		doRequest(context.Background(), client, proxy.URL()+"/x")
	}

	var ps ProxyStats
	resp, err := client.Get(proxy.URL() + "/admin/stats")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&ps)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ps.Policy != "current_load" || ps.Served != 5 || len(ps.Backends) != 2 {
		t.Fatalf("proxy stats = %+v", ps)
	}
	for _, be := range ps.Backends {
		if be.State != "available" {
			t.Fatalf("backend %s state %s", be.Name, be.State)
		}
	}

	var as AppStats
	resp, err = client.Get(apps[0].URL() + "/admin/stats")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&as)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if as.Name != "app1" || as.Workers != 64 {
		t.Fatalf("app stats = %+v", as)
	}
}

func TestLoadStatsTimeline(t *testing.T) {
	app, err := StartAppServer(AppServerConfig{Name: "a", Workers: 16, ServiceTime: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = app.Close() }()
	proxy, err := StartProxy(ProxyConfig{
		Workers: 16, Policy: PolicyCurrentLoad, Mechanism: MechanismModified,
	}, []*Backend{NewBackend("a", app.URL(), 8)})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = proxy.Close() }()

	ctx, cancel := context.WithTimeout(context.Background(), 600*time.Millisecond)
	defer cancel()
	st := RunLoad(ctx, proxy.URL(), LoadGenConfig{Clients: 4, ThinkTime: 5 * time.Millisecond})
	tl := st.Timeline()
	if tl.Len() < 3 {
		t.Fatalf("timeline has %d windows for a 600ms run", tl.Len())
	}
	var events uint64
	for i := 0; i < tl.Len(); i++ {
		events += tl.At(i).Count
	}
	if events != st.Total() {
		t.Fatalf("timeline events %d != total %d", events, st.Total())
	}
}

func TestHTTPStickySessions(t *testing.T) {
	a := NewBackend("a", "u", 10)
	b := NewBackend("b", "u", 10)
	bal := NewBalancer(PolicyTotalRequest, MechanismModified, []*Backend{a, b},
		Config{StickySessions: true, Sweeps: 1})
	// First request of session s1 binds; later requests stay put even
	// when the other backend has a lower lb_value.
	be, rel, err := bal.AcquireSession("s1", 0)
	if err != nil {
		t.Fatal(err)
	}
	first := be.Name()
	rel.Done(0)
	for i := 0; i < 5; i++ {
		be, rel, err := bal.AcquireSession("s1", 0)
		if err != nil {
			t.Fatal(err)
		}
		if be.Name() != first {
			t.Fatalf("session moved from %s to %s", first, be.Name())
		}
		rel.Done(0)
	}
	if bal.Sessions() != 1 {
		t.Fatalf("Sessions = %d", bal.Sessions())
	}
	// Empty session keys never bind.
	_, rel2, err := bal.AcquireSession("", 0)
	if err != nil {
		t.Fatal(err)
	}
	rel2.Done(0)
	if bal.Sessions() != 1 {
		t.Fatalf("empty key bound: %d", bal.Sessions())
	}
}

func TestHTTPStickyFallbackRebinds(t *testing.T) {
	a := NewBackend("a", "u", 1)
	b := NewBackend("b", "u", 10)
	bal := NewBalancer(PolicyTotalRequest, MechanismModified, []*Backend{a, b},
		Config{StickySessions: true, Sweeps: 1})
	be1, _, err := bal.AcquireSession("s1", 0) // binds a (tie-break), holds its endpoint
	if err != nil || be1.Name() != "a" {
		t.Fatalf("first acquire: %v %v", be1, err)
	}
	be2, rel2, err := bal.AcquireSession("s1", 0) // a exhausted → fallback + rebind
	if err != nil || be2.Name() != "b" {
		t.Fatalf("fallback acquire: %v %v", be2, err)
	}
	rel2.Done(0)
	be3, rel3, err := bal.AcquireSession("s1", 0)
	if err != nil || be3.Name() != "b" {
		t.Fatalf("rebind not applied: %v %v", be3, err)
	}
	rel3.Done(0)
}

func TestHTTPWeightedDistribution(t *testing.T) {
	heavy := NewBackend("heavy", "u", 100)
	light := NewBackend("light", "u", 100)
	heavy.SetWeight(3)
	bal := NewBalancer(PolicyTotalRequest, MechanismModified, []*Backend{heavy, light}, Config{})
	counts := map[string]int{}
	for i := 0; i < 400; i++ {
		be, rel, err := bal.Acquire(0)
		if err != nil {
			t.Fatal(err)
		}
		counts[be.Name()]++
		rel.Done(0)
	}
	ratio := float64(counts["heavy"]) / float64(counts["light"])
	if ratio < 2.7 || ratio > 3.3 {
		t.Fatalf("heavy/light = %v (ratio %.2f), want ~3", counts, ratio)
	}
	if heavy.Weight() != 3 || light.Weight() != 1 {
		t.Fatalf("weights %v/%v", heavy.Weight(), light.Weight())
	}
}

// TestAdminTraceAndEventsEndpoints exercises the wall-clock
// observability surface: proxied requests produce lifecycle spans,
// dispatches produce decision events with the full candidate table, an
// exhausted endpoint pool drives the 3-state machine and a reject, and
// both logs stream as JSON Lines from the admin endpoints.
func TestAdminTraceAndEventsEndpoints(t *testing.T) {
	var apps []*AppServer
	var backends []*Backend
	for i := 0; i < 2; i++ {
		app, err := StartAppServer(AppServerConfig{
			Name:        "app" + string(rune('1'+i)),
			Workers:     8,
			ServiceTime: time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		apps = append(apps, app)
		backends = append(backends, NewBackend(app.Name(), app.URL(), 2))
	}
	proxy, err := StartProxy(ProxyConfig{
		Workers:       32,
		Policy:        PolicyTotalRequest,
		Mechanism:     MechanismModified,
		LB:            Config{SweepPause: 5 * time.Millisecond},
		SpanCapacity:  1 << 12,
		EventCapacity: 1 << 13,
	}, backends)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = proxy.Close()
		for _, a := range apps {
			_ = a.Close()
		}
	}()
	if proxy.Tracer() == nil || proxy.Events() == nil {
		t.Fatal("observability not enabled despite capacities")
	}

	client := &http.Client{Timeout: 5 * time.Second}
	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := client.Get(proxy.URL() + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		return resp, body
	}

	const okRequests = 20
	for i := 0; i < okRequests; i++ {
		if resp, body := get("/story"); resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
	}

	// Exhaust every endpoint pool: the modified mechanism fails fast on
	// each sweep, marking both backends Busy and rejecting the dispatch.
	setFree := func(be *Backend, from, to int) {
		t.Helper()
		be.mu.Lock()
		defer be.mu.Unlock()
		if be.free != from {
			t.Fatalf("%s: %d free endpoints, want %d", be.name, be.free, from)
		}
		be.free = to
	}
	for _, be := range backends {
		setFree(be, 2, 0)
	}
	if resp, _ := get("/story"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d with exhausted pools, want 503", resp.StatusCode)
	}
	for _, be := range backends {
		setFree(be, 0, 2)
	}
	// Dispatching to a Busy backend re-admits it: busy → available.
	if resp, body := get("/story"); resp.StatusCode != http.StatusOK {
		t.Fatalf("status after pool restore %d: %s", resp.StatusCode, body)
	}

	// --- /admin/trace ---
	resp, body := get("/admin/trace")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace endpoint status %d", resp.StatusCode)
	}
	type spanLine struct {
		ID     uint64        `json:"id"`
		Start  time.Duration `json:"start"`
		End    time.Duration `json:"end"`
		OK     bool          `json:"ok"`
		Stages obs.Breakdown `json:"stages"`
	}
	var spans []spanLine
	failedSpans := 0
	for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		var sl spanLine
		if err := json.Unmarshal([]byte(line), &sl); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		if sl.End <= sl.Start {
			t.Fatalf("span %d: end %v <= start %v", sl.ID, sl.End, sl.Start)
		}
		if !sl.OK {
			failedSpans++
			if sl.Stages.GetEndpoint <= 0 {
				t.Fatalf("rejected span %d spent no time in get_endpoint: %+v", sl.ID, sl.Stages)
			}
		} else if sl.Stages.AppThread <= 0 || sl.Stages.WebThread <= 0 {
			t.Fatalf("span %d missing app/web stage time: %+v", sl.ID, sl.Stages)
		}
		spans = append(spans, sl)
	}
	if len(spans) != okRequests+2 {
		t.Fatalf("%d spans, want %d", len(spans), okRequests+2)
	}
	if failedSpans != 1 {
		t.Fatalf("%d failed spans, want 1", failedSpans)
	}

	// --- /admin/events ---
	resp, body = get("/admin/events")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events endpoint status %d", resp.StatusCode)
	}
	var decisions, rejects int
	transitions := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		var ev obs.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", line, err)
		}
		switch ev.Kind {
		case obs.KindDecision:
			decisions++
			if ev.Chosen == "" || ev.Source != "proxy" {
				t.Fatalf("decision missing identity: %+v", ev)
			}
			if len(ev.Candidates) != 2 {
				t.Fatalf("decision has %d candidates: %+v", len(ev.Candidates), ev)
			}
			for _, cv := range ev.Candidates {
				if cv.Name == "" || cv.State == "" {
					t.Fatalf("incomplete candidate view: %+v", cv)
				}
			}
		case obs.KindState:
			transitions[ev.From+"->"+ev.To]++
			if ev.Backend == "" {
				t.Fatalf("state event without backend: %+v", ev)
			}
		case obs.KindReject:
			rejects++
		}
	}
	if decisions < okRequests+1 {
		t.Fatalf("%d decision events, want at least %d", decisions, okRequests+1)
	}
	if rejects != 1 {
		t.Fatalf("%d reject events, want 1", rejects)
	}
	if transitions["available->busy"] == 0 || transitions["busy->available"] == 0 {
		t.Fatalf("3-state transitions not recorded: %v", transitions)
	}

	// A proxy without capacities keeps the endpoints dark.
	plain, err := StartProxy(ProxyConfig{Workers: 4, Policy: PolicyTotalRequest, Mechanism: MechanismModified}, backends)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = plain.Close() }()
	for _, path := range []string{"/admin/trace", "/admin/events"} {
		resp, err := client.Get(plain.URL() + path)
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s on plain proxy: status %d, want 404", path, resp.StatusCode)
		}
	}
}
