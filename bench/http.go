package main

import (
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"millibalance/internal/httpcluster"
)

// stackConfig describes one loopback deployment: optional DB stub, app
// servers, and the proxy over them.
type stackConfig struct {
	apps      int
	app       httpcluster.AppServerConfig // Name and DBURL are filled per server
	dbQuery   time.Duration               // 0: no DB tier
	endpoints int
	proxy     httpcluster.ProxyConfig
}

// stack is a running deployment.
type stack struct {
	cfg      stackConfig
	db       *httpcluster.DBServer
	apps     []*httpcluster.AppServer
	backends []*httpcluster.Backend
	proxy    *httpcluster.Proxy
	names    map[string]int
}

func startStack(cfg stackConfig) (*stack, error) {
	s := &stack{cfg: cfg, names: map[string]int{}}
	fail := func(err error) (*stack, error) {
		s.close()
		return nil, err
	}
	if cfg.dbQuery > 0 {
		db, err := httpcluster.StartDBServer(cfg.dbQuery)
		if err != nil {
			return fail(err)
		}
		s.db = db
	}
	for i := 0; i < cfg.apps; i++ {
		ac := cfg.app
		ac.Name = fmt.Sprintf("app%d", i+1)
		if s.db != nil {
			ac.DBURL = s.db.URL()
		}
		app, err := httpcluster.StartAppServer(ac)
		if err != nil {
			return fail(err)
		}
		s.apps = append(s.apps, app)
		s.backends = append(s.backends, httpcluster.NewBackend(ac.Name, app.URL(), cfg.endpoints))
		s.names[ac.Name] = i
	}
	p, err := httpcluster.StartProxy(cfg.proxy, s.backends)
	if err != nil {
		return fail(err)
	}
	s.proxy = p
	return s, nil
}

func (s *stack) proxyTarget() *target {
	return &target{url: s.proxy.URL(), viaProxy: true, bodyLen: s.cfg.app.ResponseBytes, backends: s.names}
}

func (s *stack) directTarget(app int) *target {
	return &target{url: s.apps[app].URL(), bodyLen: s.cfg.app.ResponseBytes}
}

// close shuts everything down, proxy first so no request is in flight
// towards a closing backend. Server.Close reports only listener errors,
// which a benchmark that is done with the listener does not act on.
func (s *stack) close() {
	if s.proxy != nil {
		_ = s.proxy.Close()
	}
	for _, a := range s.apps {
		_ = a.Close()
	}
	if s.db != nil {
		_ = s.db.Close()
	}
	// The proxy (untraced) and the app servers' DB clients pool their
	// upstream connections in http.DefaultTransport.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// checkQuiescent is the conservation check after the clients stopped:
// no token, worker slot or request may be left behind, and the proxy
// must have answered exactly what was sent through it.
func (s *stack) checkQuiescent(sentViaProxy int64) error {
	deadline := time.Now().Add(2 * time.Second)
	var err error
	for {
		err = s.quiescentOnce(sentViaProxy)
		if err == nil || time.Now().After(deadline) {
			return err
		}
		// A handler returns its slot just after the client has the
		// reply; give it a moment.
		time.Sleep(5 * time.Millisecond)
	}
}

func (s *stack) quiescentOnce(sentViaProxy int64) error {
	for _, be := range s.backends {
		if n := be.InFlight(); n != 0 {
			return fmt.Errorf("backend %s has %d requests in flight at quiescence", be.Name(), n)
		}
		if n := be.FreeEndpoints(); n != s.cfg.endpoints {
			return fmt.Errorf("backend %s has %d free endpoints at quiescence, want %d", be.Name(), n, s.cfg.endpoints)
		}
	}
	if n := s.proxy.WorkersInFlight(); n != 0 {
		return fmt.Errorf("proxy holds %d worker slots at quiescence", n)
	}
	if got := int64(s.proxy.Served() + s.proxy.Errors()); got != sentViaProxy {
		return fmt.Errorf("proxy answered %d requests (served+errors), clients sent %d", got, sentViaProxy)
	}
	return nil
}

// waitGoroutines waits for the goroutine count to return to base after
// every server and client of a workload was closed.
func waitGoroutines(base int) error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return nil
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			return fmt.Errorf("%d goroutines after Close, %d before the workload:\n%s", n, base, firstLines(string(buf), 60))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func firstLines(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}

// setupRepeated sets the stack up `times` times, keeps the last one and
// returns the median set-up time: start every server, then warm the path
// with 500 requests. Set-up is a metric of its own so that work moved
// out of the measured interval still shows.
func setupRepeated(times int, cfg stackConfig, warm func(*stack) error) (*stack, float64, error) {
	var secs []float64
	for i := 0; ; i++ {
		t0 := time.Now()
		st, err := startStack(cfg)
		if err != nil {
			return nil, 0, err
		}
		if err := warm(st); err != nil {
			st.close()
			return nil, 0, fmt.Errorf("warm-up: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		if i == times-1 {
			return st, median(secs), nil
		}
		st.close()
	}
}

const warmupRequests = 500

// warmSerial sends the warm-up through one connection.
func warmSerial(st *stack) error {
	g := newGenerator(nil)
	hc := newHTTPClient(1)
	defer hc.CloseIdleConnections()
	t := st.proxyTarget()
	for i := 0; i < warmupRequests; i++ {
		if _, _, err := g.do(hc, t, plainGET); err != nil {
			return err
		}
	}
	return nil
}

// floorServer is a bench-owned HTTP server with a fixed reply: the same
// generator against it measures generator + loopback alone.
type floorServer struct {
	srv *http.Server
	ln  net.Listener
	wg  sync.WaitGroup
}

func startFloorServer(bodyLen int) (*floorServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	payload := []byte(strings.Repeat("x", bodyLen))
	f := &floorServer{ln: ln}
	f.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write(payload) // a failed write shows as a failed request at the client
	})}
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		_ = f.srv.Serve(ln) // ErrServerClosed on shutdown
	}()
	return f, nil
}

func (f *floorServer) url() string { return "http://" + f.ln.Addr().String() }

func (f *floorServer) close() {
	_ = f.srv.Close()
	f.wg.Wait()
}

// floorP50 runs one serial client against a floor server for d and
// returns the median latency in microseconds.
func floorP50(bodyLen int, d time.Duration) (float64, int, error) {
	f, err := startFloorServer(bodyLen)
	if err != nil {
		return 0, 0, err
	}
	defer f.close()
	g := newGenerator(nil)
	hc := newHTTPClient(1)
	defer hc.CloseIdleConnections()
	t := &target{url: f.url(), bodyLen: bodyLen}
	var lats []float64
	for end := time.Now().Add(d); time.Now().Before(end); {
		lat, _, err := g.do(hc, t, plainGET)
		if err != nil {
			return 0, 0, fmt.Errorf("floor arm: %w", err)
		}
		lats = append(lats, float64(lat)/float64(time.Microsecond))
	}
	sort.Float64s(lats)
	return quantile(lats, 0.5), len(lats), nil
}

// setClientMetrics reports the generator's view of one arm's latencies
// (microseconds, ascending).
func (r *report) setClientMetrics(sorted []float64, perSecond float64, tl tally) {
	n := len(sorted)
	r.set("client.req_per_s", perSecond, n)
	r.set("client.fail_share", float64(tl.failed)/float64(tl.attempted), int(tl.attempted))
	r.set("client.lat_p90_us", quantile(sorted, 0.90), n)
	r.set("client.lat_p99_us", quantile(sorted, 0.99), n)
	r.set("client.lat_top_us", topQuantile(sorted), n)
	r.set("client.lat_max_us", quantile(sorted, 1), n)
}

// setProxyCounters reports the httpcluster layer's own counters.
func (r *report) setProxyCounters(st *stack) {
	p := st.proxy
	r.set("httpcluster.served", float64(p.Served()), 0)
	r.set("httpcluster.errors", float64(p.Errors()), 0)
	r.set("httpcluster.shed", float64(p.Shed()), 0)
	r.set("httpcluster.retries", float64(p.Retries()), 0)
	r.set("httpcluster.rejects", float64(p.Balancer().Rejects()), 0)
	var minD, maxD, total uint64
	for i, be := range st.backends {
		d := be.Dispatched()
		total += d
		if i == 0 || d < minD {
			minD = d
		}
		if d > maxD {
			maxD = d
		}
	}
	if minD > 0 {
		r.set("httpcluster.dispatch_spread", float64(maxD)/float64(minD), 0)
	}
	if total > 0 {
		// app1 is the backend proxy_mbneck stalls.
		r.set("httpcluster.stalled_dispatch_share", float64(st.backends[0].Dispatched())/float64(total), int(total))
	}
}

// setTraceMetrics derives the proxy-self and upstream layers from the
// traced requests that went through the proxy.
func (r *report) setTraceMetrics(tr *tracer) {
	var self, rt, getConn, ttfb []float64
	var trips, dials, reused, total int64
	for i := range tr.used() {
		rec := &tr.recs[i]
		if rec.end == 0 {
			continue
		}
		total++
		if rec.reused {
			reused++
		}
		n := int64(rec.upTrips.Load())
		if !rec.viaProxy || n == 0 {
			continue
		}
		trips += n
		dials += int64(rec.upDials.Load())
		up := float64(rec.upTotalNs.Load()) / 1e3
		rt = append(rt, up)
		self = append(self, float64(rec.end-rec.start)/1e3-up)
		if a, b := rec.upGetConn.Load(), rec.upGotConn.Load(); a > 0 && b >= a {
			getConn = append(getConn, float64(b-a)/1e3)
		}
		if a, b := rec.upWrote.Load(), rec.upFirst.Load(); a > 0 && b >= a {
			ttfb = append(ttfb, float64(b-a)/1e3)
		}
	}
	for _, v := range [][]float64{self, rt, getConn, ttfb} {
		sort.Float64s(v)
	}
	r.set("proxy.self_p50_us", quantile(self, 0.5), len(self))
	r.set("proxy.self_p99_us", quantile(self, 0.99), len(self))
	r.set("upstream.roundtrip_p50_us", quantile(rt, 0.5), len(rt))
	r.set("upstream.roundtrip_p99_us", quantile(rt, 0.99), len(rt))
	r.set("upstream.get_conn_p50_us", quantile(getConn, 0.5), len(getConn))
	r.set("upstream.get_conn_p99_us", quantile(getConn, 0.99), len(getConn))
	r.set("upstream.ttfb_p50_us", quantile(ttfb, 0.5), len(ttfb))
	r.set("upstream.round_trips", float64(trips), 0)
	r.set("upstream.dials", float64(dials), 0)
	if trips > 0 {
		r.set("upstream.dial_share", float64(dials)/float64(trips), int(trips))
	}
	if total > 0 {
		r.set("client.conn_reuse_share", float64(reused)/float64(total), int(total))
	}
}

// finishHTTPTrace reports what both HTTP workloads derive the same way
// from a traced phase on st: the proxy-self and upstream layers, the
// proxy's counters, the tracing overhead against the untraced phase, the
// floor arm, the balancer micro-timings, and the span file.
func (r *report) finishHTTPTrace(o options, st *stack, tr *tracer, policy httpcluster.Policy, tracedP50, untracedP50 float64, floorFor time.Duration) error {
	r.setTraceMetrics(tr)
	r.setProxyCounters(st)
	r.set("trace.overhead_p50_us", tracedP50-untracedP50, 0)
	r.set("trace.overhead_share", (tracedP50-untracedP50)/untracedP50, 0)
	floor, n, err := floorP50(bareBodyLen, floorFor)
	if err != nil {
		return err
	}
	r.set("client.floor_p50_us", floor, n)
	r.setHTTPMicroTimings(policy)
	path, err := writeSpans(o.dir, fmt.Sprintf("%s-seed%d.spans.jsonl", o.workload, o.seed), tr.spans())
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	r.Artifacts = append(r.Artifacts, path)
	return nil
}
