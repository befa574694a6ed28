package httpcluster

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"millibalance/internal/admission"
	"millibalance/internal/faults"
	"millibalance/internal/probe"
)

// pooledClient is a test client with one keep-alive connection of its
// own, so nothing a test sends touches http.DefaultTransport.
func pooledClient(t *testing.T) *http.Client {
	t.Helper()
	c := &http.Client{Timeout: 5 * time.Second, Transport: newClientTransport()}
	t.Cleanup(c.CloseIdleConnections)
	return c
}

// get sends one GET and reports the status and how many body bytes
// arrived before the body ended or failed.
func get(c *http.Client, url string) (status int, n int64, err error) {
	resp, err := c.Get(url)
	if err != nil {
		return 0, 0, err
	}
	n, err = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	return resp.StatusCode, n, err
}

// within polls cond until it holds or d elapsed.
func within(d time.Duration, cond func() bool) bool {
	for deadline := time.Now().Add(d); ; time.Sleep(2 * time.Millisecond) {
		if cond() {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
	}
}

// TestClientCancelFreesWorkerAndEndpoint: the upstream attempt is bound
// to the client's connection in every configuration, so a client that
// gives up on a stalled backend releases its worker slot and endpoint
// token at once instead of holding them for the attempt timeout — a POST
// as well as a GET, though the proxy forwards no request body.
func TestClientCancelFreesWorkerAndEndpoint(t *testing.T) {
	for _, method := range []string{http.MethodGet, http.MethodPost} {
		t.Run(method, func(t *testing.T) {
			release := make(chan struct{})
			backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				select { // a stall that outlives the test's patience
				case <-release:
				case <-time.After(2 * time.Second):
				}
			}))
			defer backend.Close()
			defer close(release)

			be := NewBackend("app1", backend.URL, 4)
			proxy, err := StartProxy(ProxyConfig{Workers: 8, Policy: PolicyCurrentLoad, Mechanism: MechanismModified},
				[]*Backend{be})
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = proxy.Close() }()

			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			var body io.Reader
			if method == http.MethodPost {
				body = strings.NewReader(strings.Repeat("b", 2048))
			}
			req, err := http.NewRequestWithContext(ctx, method, proxy.URL()+"/x", body)
			if err != nil {
				t.Fatal(err)
			}
			if resp, err := pooledClient(t).Do(req); err == nil {
				_ = resp.Body.Close()
				t.Fatalf("request through a stalled backend answered with %d", resp.StatusCode)
			}
			gaveUp := time.Now()
			if !within(250*time.Millisecond, func() bool {
				return proxy.WorkersInFlight() == 0 && be.FreeEndpoints() == 4 && proxy.Served()+proxy.Errors() == 1
			}) {
				t.Fatalf("250ms after the client gave up: workers in flight %d (want 0), free endpoints %d (want 4), served+errors %d (want 1)",
					proxy.WorkersInFlight(), be.FreeEndpoints(), proxy.Served()+proxy.Errors())
			}
			t.Logf("slot and token back %v after the client gave up", time.Since(gaveUp).Round(time.Millisecond))
		})
	}
}

// TestTruncatedUpstreamBodyIsAnError: a backend that promises 16 KiB and
// closes after 1 KiB has failed the request. The proxy must say so
// everywhere it accounts an outcome — error counter, balancer ladder,
// span, admission release — and must not end the short reply cleanly.
func TestTruncatedUpstreamBodyIsAnError(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Length", "16384")
		_, _ = w.Write([]byte(strings.Repeat("x", 1024)))
		// Returning short of the declared length makes net/http close
		// the connection mid-body.
	}))
	defer backend.Close()

	be := NewBackend("app1", backend.URL, 4)
	proxy, err := StartProxy(ProxyConfig{
		Workers: 8, Policy: PolicyCurrentLoad, Mechanism: MechanismModified,
		SpanCapacity: 16,
		Admission:    &admission.Config{Limiter: admission.LimiterAIMD},
	}, []*Backend{be})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = proxy.Close() }()
	limit := proxy.Admission().Limit()

	status, n, err := get(pooledClient(t), proxy.URL()+"/x")
	if err == nil {
		t.Fatalf("client read a clean %d-byte reply (status %d) from a truncated upstream body", n, status)
	}
	if !within(time.Second, func() bool { return proxy.WorkersInFlight() == 0 && be.FreeEndpoints() == 4 }) {
		t.Fatalf("workers in flight %d, free endpoints %d after the failed reply", proxy.WorkersInFlight(), be.FreeEndpoints())
	}
	if s, e := proxy.Served(), proxy.Errors(); s != 0 || e != 1 {
		t.Fatalf("served %d errors %d, want 0 and 1", s, e)
	}
	if st := be.State(); st == BackendAvailable {
		t.Fatal("backend still Available: the truncated reply never reached the Busy/Error ladder")
	}
	spans := proxy.Tracer().Spans()
	if len(spans) != 1 || spans[0].OK {
		t.Fatalf("spans %+v, want one failed span", spans)
	}
	// AIMD backs off on a failed release and on nothing else here.
	if got := proxy.Admission().Limit(); got >= limit {
		t.Fatalf("admission limit %d after the failed reply, %d before: the release was reported as a success", got, limit)
	}
}

// countingFront serves h on a listener of its own and counts the
// connections it accepts: the exact, repeatable measure of how often a
// client tier dialled.
func countingFront(t *testing.T, h http.Handler) (url string, opened *atomic.Int64) {
	t.Helper()
	url, opened, _ = trackingFront(t, h, 0)
	return url, opened
}

// trackingFront is countingFront that also counts the connections still
// open, and closes one that sat idle for idle (0: never).
func trackingFront(t *testing.T, h http.Handler, idle time.Duration) (url string, opened, open *atomic.Int64) {
	t.Helper()
	opened, open = new(atomic.Int64), new(atomic.Int64)
	srv := httptest.NewUnstartedServer(h)
	srv.Config.IdleTimeout = idle
	srv.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		switch st {
		case http.StateNew:
			opened.Add(1)
			open.Add(1)
		case http.StateClosed, http.StateHijacked:
			open.Add(-1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)
	return srv.URL, opened, open
}

// countedListener counts the connections a server accepts on it and
// those it has closed, for a server that takes its listener: the DB stub
// (serveDB).
type countedListener struct {
	net.Listener
	opened, closed atomic.Int64
}

func countedListen(t *testing.T) *countedListener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return &countedListener{Listener: ln}
}

func (l *countedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.opened.Add(1)
	return &countedConn{Conn: c, closed: &l.closed}, nil
}

// open is how many accepted connections are still open.
func (l *countedListener) open() int64 { return l.opened.Load() - l.closed.Load() }

// closedLoop runs clients closed-loop clients of perClient GETs each, on
// a keep-alive connection of their own, and returns how many requests did
// not answer 200 with a body of size bytes.
func closedLoop(url string, clients, perClient int, size int64) int64 {
	var wg sync.WaitGroup
	var failures atomic.Int64
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &http.Client{Timeout: 5 * time.Second, Transport: newClientTransport()}
			defer c.CloseIdleConnections()
			for j := 0; j < perClient; j++ {
				if status, n, err := get(c, url); err != nil || status != http.StatusOK || n != size {
					failures.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return failures.Load()
}

// TestUpstreamConnectionsAreReused: sixteen closed-loop clients put at
// most sixteen requests in flight, so no tier may open more connections
// than that to any one server however many requests pass — 3200 here.
// On http.DefaultTransport (two idle connections per host) the counts
// were proportional to the request count.
func TestUpstreamConnectionsAreReused(t *testing.T) {
	const clients, perClient, appServers = 16, 200, 4

	dbLn := countedListen(t)
	db := serveDB(dbLn, 100*time.Microsecond)
	defer func() { _ = db.Close() }()
	dbURL := db.URL()

	var backends []*Backend
	var appOpened []*atomic.Int64
	for i := 0; i < appServers; i++ {
		app, err := StartAppServer(AppServerConfig{
			Name: "app" + string(rune('1'+i)), Workers: clients, ServiceTime: time.Millisecond,
			DBURL: dbURL, DBQueries: 1, ResponseBytes: 4096,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = app.Close() }()
		// The proxy reaches the app server's handlers through the
		// counting listener; the server's own listener stays unused.
		url, opened := countingFront(t, app.mux)
		backends = append(backends, NewBackend(app.Name(), url, clients))
		appOpened = append(appOpened, opened)
	}
	proxy, err := StartProxy(ProxyConfig{Workers: 64, Policy: PolicyCurrentLoad, Mechanism: MechanismModified}, backends)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = proxy.Close() }()

	if n := closedLoop(proxy.URL()+"/x", clients, perClient, 4096); n != 0 {
		t.Fatalf("%d of %d requests failed", n, clients*perClient)
	}
	if got := proxy.Served(); got != clients*perClient {
		t.Fatalf("proxy served %d, want %d", got, clients*perClient)
	}
	for i, opened := range appOpened {
		t.Logf("app%d: %d connections accepted", i+1, opened.Load())
		if n := opened.Load(); n < 1 || n > clients {
			t.Errorf("proxy opened %d connections to app%d, want 1..%d", n, i+1, clients)
		}
	}
	t.Logf("db: %d connections accepted", dbLn.opened.Load())
	if n := dbLn.opened.Load(); n < 1 || n > clients*appServers {
		t.Errorf("app servers opened %d connections to the DB, want 1..%d", n, clients*appServers)
	}
}

// TestPooledConnectionsSurviveCrashRestart: a crash tears down every
// pooled connection to the server. Once it is back, requests must go
// through on fresh connections without one failure or retry hop — stale
// pool entries may not turn a finished crash into a retry storm.
func TestPooledConnectionsSurviveCrashRestart(t *testing.T) {
	app, err := StartAppServer(AppServerConfig{Name: "app1", Workers: 8, ServiceTime: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = app.Close() }()
	proxy, err := StartProxy(ProxyConfig{
		Workers: 16, Policy: PolicyCurrentLoad, Mechanism: MechanismModified,
		Resilience: &Resilience{RetryBackoff: time.Millisecond},
	}, []*Backend{NewBackend("app1", app.URL(), 8)})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = proxy.Close() }()

	burst := func() {
		t.Helper()
		var wg sync.WaitGroup
		var failures atomic.Int64
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c := &http.Client{Timeout: 5 * time.Second, Transport: newClientTransport()}
				defer c.CloseIdleConnections()
				for j := 0; j < 10; j++ {
					if status, _, err := get(c, proxy.URL()+"/x"); err != nil || status != http.StatusOK {
						failures.Add(1)
					}
				}
			}()
		}
		wg.Wait()
		if n := failures.Load(); n != 0 {
			t.Fatalf("%d of 80 requests failed", n)
		}
	}
	burst() // fills the pool: up to eight idle connections to app1
	app.Crash()
	if err := app.Restart(); err != nil {
		t.Fatal(err)
	}
	burst()
	if e, r := proxy.Errors(), proxy.Retries(); e != 0 || r != 0 {
		t.Fatalf("after the restart: %d errors, %d retries, want none", e, r)
	}
}

// TestCloseReleasesOwnedConnections: every inter-tier connection belongs
// to the component that dialled it, and its Close lets go of it — the
// goroutine count returns to its starting level with no help from
// http.DefaultTransport.CloseIdleConnections.
func TestCloseReleasesOwnedConnections(t *testing.T) {
	base := runtime.NumGoroutine()

	db, err := StartDBServer(100 * time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	var apps []*AppServer
	var backends []*Backend
	for i := 0; i < 2; i++ {
		app, err := StartAppServer(AppServerConfig{
			Name: "app" + string(rune('1'+i)), Workers: 8, ServiceTime: time.Millisecond,
			DBURL: db.URL(), DBQueries: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		apps = append(apps, app)
		backends = append(backends, NewBackend(app.Name(), app.URL(), 8))
	}
	// Prequal arms the prober, whose probes ride the proxy's transport.
	proxy, err := StartProxy(ProxyConfig{
		Workers: 16, Policy: PolicyPrequal, Mechanism: MechanismModified,
		Probe: &probe.Config{Interval: 5 * time.Millisecond},
	}, backends)
	if err != nil {
		t.Fatal(err)
	}
	// The load ends by count, not at a deadline: a deadline cancels the
	// exchanges it cuts off, and a cancelled exchange closes its
	// connection instead of parking it. With every request answered, each
	// hop parked its connection before its caller read the reply.
	const clients, perClient = 8, 40
	if n := closedLoop(proxy.URL()+"/x", clients, perClient, 2048); n != 0 {
		t.Fatalf("load: %d of %d requests failed", n, clients*perClient)
	}
	owned := []*UpstreamTransport{proxy.owned, apps[0].db, apps[1].db}
	for i, tr := range owned {
		if idleConns(tr) == 0 {
			t.Errorf("transport %d of proxy, app1, app2 parked no connection under load", i)
		}
	}

	_ = proxy.Close()
	for _, a := range apps {
		_ = a.Close()
	}
	for i, tr := range owned {
		if n := idleConns(tr); n != 0 {
			t.Errorf("transport %d of proxy, app1, app2 still parks %d connections after Close", i, n)
		}
	}
	// The DB stub closes last, so the connections the app servers held
	// to it were theirs to release.
	if !within(2*time.Second, func() bool { return runtime.NumGoroutine() <= base+1 }) {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines with only the DB stub still up, %d before the tier started:\n%s",
			runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
	}
	_ = db.Close()
	if !within(2*time.Second, func() bool { return runtime.NumGoroutine() <= base }) {
		t.Fatalf("%d goroutines after Close, %d before the tier started", runtime.NumGoroutine(), base)
	}
}

// TestCloseWithRequestsInFlightLeavesNoConnection: Close is a hard stop
// that does not wait for handlers. Those still running when the proxy and
// the app server are closed — the app server's go on to query the DB —
// must not leave a connection to the next tier behind when they finish.
func TestCloseWithRequestsInFlightLeavesNoConnection(t *testing.T) {
	const inFlight = 4
	dbLn := countedListen(t)
	db := serveDB(dbLn, 20*time.Millisecond)
	defer func() { _ = db.Close() }()
	dbURL := db.URL()
	app, err := StartAppServer(AppServerConfig{
		Name: "app1", Workers: inFlight, ServiceTime: 60 * time.Millisecond, DBURL: dbURL, DBQueries: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	appURL, _, appOpen := trackingFront(t, app.mux, 0)
	proxy, err := StartProxy(ProxyConfig{Workers: inFlight, Policy: PolicyCurrentLoad, Mechanism: MechanismModified},
		[]*Backend{NewBackend("app1", appURL, inFlight)})
	if err != nil {
		t.Fatal(err)
	}

	// One full round first, so both tiers hold parked connections.
	round := func() *sync.WaitGroup {
		var wg sync.WaitGroup
		for i := 0; i < inFlight; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, _, _ = get(pooledClient(t), proxy.URL()+"/x") // the second round is cut off by Close
			}()
		}
		return &wg
	}
	round().Wait()
	if appOpen.Load() == 0 || dbLn.open() == 0 {
		t.Fatalf("after the first round: %d connections open to the app server, %d to the DB; want some parked", appOpen.Load(), dbLn.open())
	}
	wg := round()
	if !within(2*time.Second, func() bool { return app.InFlight() == inFlight }) {
		t.Fatalf("%d requests inside the app server, want %d", app.InFlight(), inFlight)
	}
	_ = proxy.Close()
	_ = app.Close()
	wg.Wait()
	if !within(2*time.Second, func() bool { return app.InFlight() == 0 && proxy.WorkersInFlight() == 0 }) {
		t.Fatalf("handlers did not finish: %d in the app server, %d in the proxy", app.InFlight(), proxy.WorkersInFlight())
	}
	if !within(2*time.Second, func() bool { return appOpen.Load() == 0 && dbLn.open() == 0 }) {
		t.Fatalf("after Close with %d requests in flight: %d connections still open to the app server, %d to the DB (%d dialled)",
			inFlight, appOpen.Load(), dbLn.open(), dbLn.opened.Load())
	}
}

// TestServerIdleCloseCostsOneRedial: a server that closes a kept-alive
// connection between two requests costs the next request one dial and
// nothing the client or the resilience layer can see.
func TestServerIdleCloseCostsOneRedial(t *testing.T) {
	app, err := StartAppServer(AppServerConfig{Name: "app1", Workers: 2, ServiceTime: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = app.Close() }()
	appURL, opened, open := trackingFront(t, app.mux, 20*time.Millisecond)
	proxy, err := StartProxy(ProxyConfig{Workers: 2, Policy: PolicyCurrentLoad, Mechanism: MechanismModified},
		[]*Backend{NewBackend("app1", appURL, 2)})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = proxy.Close() }()
	c := pooledClient(t)
	for i := int64(1); i <= 3; i++ {
		if status, _, err := get(c, proxy.URL()+"/x"); err != nil || status != http.StatusOK {
			t.Fatalf("request %d: status %d, %v", i, status, err)
		}
		if got := opened.Load(); got != i {
			t.Fatalf("request %d: %d connections dialled, want %d", i, got, i)
		}
		if !within(time.Second, func() bool { return open.Load() == 0 }) {
			t.Fatal("the server did not close the idle connection")
		}
	}
	if e, r := proxy.Errors(), proxy.Retries(); e != 0 || r != 0 {
		t.Fatalf("%d errors, %d retries, want none", e, r)
	}
}

// TestProxyAddedCostBudget holds the proxy to a budget for what it adds
// to a request over hitting the app server directly: the same serial
// client, the same 128-byte reply, 2 000 requests each way. Readings
// (go1.24, linux/amd64, 2 vCPUs), bytes and objects added per request:
// −48 to −13 B and −0.2 to 0.2 in six runs since the upstream exchange
// allocates nothing on a reused connection (TestFrontAllocs), so what is
// left is noise; 0.22 KB and 2.0 while the exchange allocated its
// context.AfterFunc, its body and the request-URI; 2.93 KB and 26.9 while
// net/http's server parsed each request a second time, built its header
// map and response, and the X-Backend header was set on an empty map and
// cloned; 4.9 KB and 50 while the attempt built a timeout context and a
// copied request and parsed the reply with http.ReadResponse; on
// net/http's Transport, before UpstreamTransport, 6.8 KB and 79.
func TestProxyAddedCostBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation guard: the race detector's runs use -short and allocate differently")
	}
	const requests, maxBytes, maxObjects = 2000, 200, 2
	app, err := StartAppServer(AppServerConfig{Name: "app1", Workers: 2, ServiceTime: time.Nanosecond, ResponseBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = app.Close() }()
	proxy, err := StartProxy(ProxyConfig{Workers: 2, Policy: PolicyCurrentLoad, Mechanism: MechanismModified},
		[]*Backend{NewBackend("app1", app.URL(), 2)})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = proxy.Close() }()
	c := pooledClient(t)
	cost := func(url string) (bytes, objects float64) {
		var before, after runtime.MemStats
		for i := -100; i < requests; i++ { // a hundred to warm both tiers' buffers and pools
			if i == 0 {
				runtime.ReadMemStats(&before)
			}
			if status, n, err := get(c, url); err != nil || status != http.StatusOK || n != 128 {
				t.Fatalf("%s: status %d, %d bytes, %v", url, status, n, err)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / requests, float64(after.Mallocs-before.Mallocs) / requests
	}
	directB, directN := cost(app.URL() + "/x")
	proxyB, proxyN := cost(proxy.URL() + "/x")
	t.Logf("direct %.0f B and %.1f objects per request, proxied %.0f and %.1f: the proxy adds %.0f B and %.1f objects",
		directB, directN, proxyB, proxyN, proxyB-directB, proxyN-directN)
	if addB, addN := proxyB-directB, proxyN-directN; addB > maxBytes || addN > maxObjects {
		t.Fatalf("the proxy adds %.0f B and %.1f objects to a request, budget %d B and %d", addB, addN, maxBytes, maxObjects)
	}
}

// TestProbesShareTheFaultWrappedTransport: probes and requests go
// through the one transport the proxy was handed, so network latency
// injected there shows in both.
func TestProbesShareTheFaultWrappedTransport(t *testing.T) {
	const injected = 60 * time.Millisecond
	app, err := StartAppServer(AppServerConfig{Name: "app1", Workers: 8, ServiceTime: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = app.Close() }()
	backends := []*Backend{NewBackend("app1", app.URL(), 8)}
	pooled := NewUpstreamTransport(backends)
	defer pooled.CloseIdleConnections()
	tr := faults.NewTransport(pooled, 1)
	proxy, err := StartProxy(ProxyConfig{
		Workers: 8, Policy: PolicyPrequal, Mechanism: MechanismModified,
		Probe:     &probe.Config{Interval: 5 * time.Millisecond, TTL: 500 * time.Millisecond},
		Transport: tr,
	}, backends)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = proxy.Close() }()

	// The app server has served nothing, so its EWMA is zero and each
	// probe reports its own round-trip time.
	probed := func() time.Duration {
		s, _ := proxy.ProbePools().Peek("app1")
		return s.Latency
	}
	if !within(2*time.Second, func() bool { return proxy.ProbePools().Depth("app1") > 0 }) {
		t.Fatal("no probe landed")
	}
	if d := probed(); d >= injected {
		t.Fatalf("probe took %v before any latency was injected", d)
	}
	tr.Degrade(strings.TrimPrefix(app.URL(), "http://"), injected, 0)
	if !within(2*time.Second, func() bool { return probed() >= injected }) {
		t.Fatalf("freshest probe took %v with %v injected on the proxy's transport", probed(), injected)
	}
	start := time.Now()
	if status, _, err := get(pooledClient(t), proxy.URL()+"/x"); err != nil || status != http.StatusOK {
		t.Fatalf("request: status %d, %v", status, err)
	}
	if d := time.Since(start); d < injected {
		t.Fatalf("request took %v with %v injected", d, injected)
	}
}

// TestAttemptDeadlineCoversTheBody: the attempt deadline bounds the body
// read as well as the wait for the header. A peer that sends the head and
// half of its body and then hangs fails the request near AttemptTimeout,
// and the worker slot, the endpoint token and the socket are let go.
func TestAttemptDeadlineCoversTheBody(t *testing.T) {
	p := startPeer(t, func(int, int, *http.Request, []byte) reply {
		return reply{raw: "HTTP/1.1 200 OK\r\nContent-Length: 2048\r\n\r\n" + strings.Repeat("x", 1024), hang: true}
	})
	be := NewBackend("app1", p.url(), 4)
	proxy, err := StartProxy(ProxyConfig{
		Workers: 8, Policy: PolicyCurrentLoad, Mechanism: MechanismModified,
		Resilience: &Resilience{AttemptTimeout: 100 * time.Millisecond, MaxRetries: -1},
	}, []*Backend{be})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = proxy.Close() }()
	start := time.Now()
	status, n, err := get(pooledClient(t), proxy.URL()+"/x")
	if took := time.Since(start); err == nil || took > time.Second {
		t.Fatalf("client read status %d, %d bytes, error %v after %v; want an error within 1s", status, n, err, took)
	}
	if !within(time.Second, func() bool {
		return proxy.WorkersInFlight() == 0 && be.FreeEndpoints() == 4 && p.open.Load() == 0
	}) {
		t.Fatalf("workers in flight %d (want 0), free endpoints %d (want 4), peer connections open %d (want 0)",
			proxy.WorkersInFlight(), be.FreeEndpoints(), p.open.Load())
	}
	if e := proxy.Errors(); e != 1 {
		t.Fatalf("%d errors, want 1", e)
	}
}

// TestRoundTripBuildsOneRequestShape pins what an upstream attempt
// forwards, whichever arm carries it — the proxy's own transport or a
// caller-supplied one: GET <backend base path><request path> with the
// path's escaping kept, no query, no body, the backend's Host and no other
// header, and the attempt deadline. On the supplied arm the deadline rides
// a context derived from the client connection's, released when the body
// is closed.
func TestRoundTripBuildsOneRequestShape(t *testing.T) {
	const wantLine = "GET /base/a%2Fb HTTP/1.1"
	type seen struct {
		line, host string
		headers    int
		length     int64
		body       bool
		deadline   time.Time
	}
	start := func(t *testing.T, cfg ProxyConfig, be *Backend) *Proxy {
		t.Helper()
		proxy, err := StartProxy(cfg, []*Backend{be})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = proxy.Close() })
		return proxy
	}
	// send puts one POST with a query and a body through the proxy and
	// returns what reached the upstream.
	send := func(t *testing.T, proxy *Proxy, got <-chan seen) seen {
		t.Helper()
		resp, err := pooledClient(t).Post(proxy.URL()+"/a%2Fb?q=1", "text/plain", strings.NewReader("body"))
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		return <-got
	}
	check := func(t *testing.T, s seen, host string, attempt time.Duration, sent time.Time) {
		t.Helper()
		if s.line != wantLine || s.host != host || s.headers != 0 {
			t.Errorf("upstream read %q for host %q with %d other headers, want %q for %q and none", s.line, s.host, s.headers, wantLine, host)
		}
		if s.length != 0 || s.body {
			t.Errorf("upstream read a body: Content-Length %d", s.length)
		}
		if left := s.deadline.Sub(sent); left > attempt+time.Second || left < attempt-time.Second {
			t.Errorf("attempt deadline %v after the request, want %v", left, attempt)
		}
	}
	for _, resil := range []*Resilience{nil, {AttemptTimeout: 3 * time.Second}} {
		attempt := defaultAttemptTimeout
		if resil != nil {
			attempt = resil.AttemptTimeout
		}
		t.Run(fmt.Sprintf("native/attempt=%v", attempt), func(t *testing.T) {
			got := make(chan seen, 1)
			p := startPeer(t, func(_, _ int, req *http.Request, body []byte) reply {
				got <- seen{line: req.Method + " " + req.RequestURI + " " + req.Proto, host: req.Host, headers: len(req.Header),
					length: req.ContentLength, body: len(body) > 0}
				return reply{raw: lengthReply(2)}
			})
			// The proxy drives any *UpstreamTransport it is handed through
			// forward, as it does the one it builds; this one logs deadlines.
			be := NewBackend("app1", p.url()+"/base", 2)
			tr := NewUpstreamTransport([]*Backend{be})
			t.Cleanup(tr.CloseIdleConnections) // after the proxy's Close
			var deadlines deadlineLog
			dial := tr.dial
			tr.dial = func(ctx context.Context, network, addr string) (net.Conn, error) {
				c, err := dial(ctx, network, addr)
				if err != nil {
					return nil, err
				}
				return &deadlineConn{Conn: c, log: &deadlines}, nil
			}
			proxy := start(t, ProxyConfig{Workers: 2, Transport: tr, Resilience: resil}, be)
			sent := time.Now()
			s := send(t, proxy, got)
			s.deadline = deadlines.first()
			check(t, s, p.ln.Addr().String(), attempt, sent)
		})
		t.Run(fmt.Sprintf("supplied/attempt=%v", attempt), func(t *testing.T) {
			got := make(chan seen, 1)
			ctxs := make(chan context.Context, 1)
			rt := roundTripFunc(func(req *http.Request) (*http.Response, error) {
				deadline, _ := req.Context().Deadline()
				got <- seen{line: req.Method + " " + req.URL.RequestURI() + " HTTP/1.1", host: req.Host, headers: len(req.Header),
					length: req.ContentLength, body: req.Body != nil && req.Body != http.NoBody, deadline: deadline}
				ctxs <- req.Context()
				return &http.Response{StatusCode: http.StatusOK, Body: io.NopCloser(strings.NewReader("ok"))}, nil
			})
			be := NewBackend("app1", "http://10.0.0.1:8080/base", 2)
			proxy := start(t, ProxyConfig{Workers: 2, Transport: rt, Resilience: resil}, be)
			sent := time.Now()
			check(t, send(t, proxy, got), "10.0.0.1:8080", attempt, sent)
			<-ctxs

			// One attempt called directly, under a connection context the
			// test holds: the attempt's context derives from it, and closing
			// the body releases it.
			type key struct{}
			conn := context.WithValue(context.Background(), key{}, "client")
			_, _, body, err := proxy.roundTrip(conn, new(exchangeSlot), []byte("/a%2Fb"), be, time.Now().Add(proxy.attemptTimeout))
			if err != nil {
				t.Fatal(err)
			}
			<-got
			ctx := <-ctxs
			if ctx.Value(key{}) != "client" {
				t.Error("attempt context does not derive from the client's")
			}
			if ctx.Err() != nil {
				t.Error("attempt context ended before the body was closed")
			}
			_ = body.Close()
			if ctx.Err() == nil {
				t.Error("closing the body did not release the attempt context")
			}
		})
	}
	t.Run("unparseable backend URL", func(t *testing.T) {
		proxy := start(t, ProxyConfig{Workers: 2}, NewBackend("bad", "http://[::1", 1))
		if status, _, err := get(pooledClient(t), proxy.URL()+"/"); err != nil || status != http.StatusBadGateway {
			t.Errorf("status %d, %v; want 502", status, err)
		}
	})
}

// deadlineLog keeps the socket deadlines a transport set, in order.
type deadlineLog struct {
	mu  sync.Mutex
	set []time.Time
}

// first returns the first deadline set, or the zero time.
func (l *deadlineLog) first() time.Time {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.set) == 0 {
		return time.Time{}
	}
	return l.set[0]
}

// deadlineConn logs every SetDeadline on the connection.
type deadlineConn struct {
	net.Conn
	log *deadlineLog
}

func (c *deadlineConn) SetDeadline(d time.Time) error {
	c.log.mu.Lock()
	c.log.set = append(c.log.set, d)
	c.log.mu.Unlock()
	return c.Conn.SetDeadline(d)
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestRunLoadThinkTime: a zero think time is a tight closed loop that
// still stops with the context; a positive one is still waited out, on
// the one timer each client reuses.
func TestRunLoadThinkTime(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte("ok"))
	}))
	defer srv.Close()
	for _, think := range []time.Duration{0, 2 * time.Millisecond} {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		start := time.Now()
		stats := RunLoad(ctx, srv.URL, LoadGenConfig{Clients: 4, ThinkTime: think})
		cancel()
		if d := time.Since(start); d > time.Second {
			t.Fatalf("think %v: RunLoad returned %v after a 100ms deadline", think, d)
		}
		if stats.Total() < 4 || stats.Failures() > 4 {
			t.Fatalf("think %v: %d requests, %d failed", think, stats.Total(), stats.Failures())
		}
		if think > 0 && stats.Total() > 4*(100/2+2) {
			t.Fatalf("think %v: %d requests in 100ms from 4 clients: the think time was skipped", think, stats.Total())
		}
	}
}
