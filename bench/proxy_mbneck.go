package main

import (
	"fmt"
	"math/rand/v2"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"millibalance/internal/admission"
	"millibalance/internal/httpcluster"
	"millibalance/internal/probe"
	"millibalance/internal/telemetry"
)

// proxy_mbneck: the paper's scenario over real sockets. Four app servers
// with 8 ms of service and one 0.5 ms DB query per request, 16 KiB
// replies, app1 stalled for 200 ms every 2 s, 16 closed-loop clients and
// every plane of the proxy armed. Concurrency (about four in flight per
// backend, above MaxIdleConnsPerHost = 2), larger bodies, a
// millibottleneck and the planes on the request path are the layers
// proxy_bare bypasses. Closed loop because RUBBoS clients wait for their
// reply; 16 connections exceed nproc on purpose: the clients wait on the
// 8 ms service sleep, so the scheduler is not what is measured, and fewer
// connections cannot exceed the idle-connection limit the workload exists
// to exercise.
const (
	mbClients    = 16
	mbBodyLen    = 16 << 10
	mbSLO        = 100 * time.Millisecond // half a stall
	mbStallEvery = 2 * time.Second
	mbStallFor   = 200 * time.Millisecond
	mbPostShare  = 0.10
	mbStickShare = 0.25
)

func mbneckStackConfig(transport http.RoundTripper) stackConfig {
	return stackConfig{
		apps:      4,
		app:       httpcluster.AppServerConfig{Workers: 210, ServiceTime: 8 * time.Millisecond, DBQueries: 1, ResponseBytes: mbBodyLen},
		dbQuery:   500 * time.Microsecond,
		endpoints: endpointsPer,
		proxy: httpcluster.ProxyConfig{
			Workers:       200,
			Policy:        httpcluster.PolicyPrequal,
			Mechanism:     httpcluster.MechanismModified,
			LB:            httpcluster.Config{StickySessions: true},
			Probe:         &probe.Config{},
			Resilience:    &httpcluster.Resilience{},
			Admission:     &admission.Config{Limiter: admission.LimiterAIMD, CoDel: true, LIFO: true},
			Telemetry:     &telemetry.Config{},
			SpanCapacity:  4096,
			EventCapacity: 65536,
			Transport:     transport,
		},
	}
}

// planFor returns client i's request mix: a deterministic stream drawn
// from (seed, i), 90 % GET / 10 % POST with a 2 KiB body, 25 % carrying
// one of 64 JSESSIONID cookies.
func planFor(seed uint64, client int) func() reqPlan {
	rng := rand.New(rand.NewPCG(seed, uint64(client)+1))
	return func() reqPlan {
		p := reqPlan{post: rng.Float64() < mbPostShare, session: -1}
		if rng.Float64() < mbStickShare {
			p.session = rng.IntN(len(sessionIDs))
		}
		return p
	}
}

// mbRun is what one measured phase of proxy_mbneck yields.
type mbRun struct {
	lat       []float64 // microseconds, ascending, correct replies only
	t         tally
	secs      float64
	use       usage
	stalls    int
	slow      int64 // replies slower than the SLO
	violation int64 // sticky requests served by another backend than their session's first
}

// measureMbneck runs the closed-loop clients against pick(i) for d.
// stall, when non-nil, is called every 2 s starting one second in.
func measureMbneck(seed uint64, g *generator, pick func(client int) *target, d time.Duration, stall func()) (*mbRun, error) {
	run := &mbRun{}
	var pinned [64]atomic.Int32 // session → first backend index + 1
	var violations atomic.Int64
	lats := make([][]float64, mbClients)
	tallies := make([]tally, mbClients)

	stop := make(chan struct{})
	var stallWG sync.WaitGroup
	if stall != nil {
		stallWG.Add(1)
		go func() {
			defer stallWG.Done()
			timer := time.NewTimer(mbStallEvery / 2)
			defer timer.Stop()
			for {
				select {
				case <-stop:
					return
				case <-timer.C:
					stall()
					run.stalls++
					timer.Reset(mbStallEvery)
				}
			}
		}()
	}

	u0 := readUsage()
	end := u0.at.Add(d)
	var wg sync.WaitGroup
	for i := 0; i < mbClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			hc := newHTTPClient(1)
			defer hc.CloseIdleConnections()
			next, t := planFor(seed, i), pick(i)
			for time.Now().Before(end) {
				p := next()
				lat, backend, err := g.do(hc, t, p)
				tallies[i].note(lat, mbSLO, err)
				if err != nil {
					continue
				}
				lats[i] = append(lats[i], float64(lat)/float64(time.Microsecond))
				if p.session >= 0 && backend >= 0 {
					want := int32(backend) + 1
					if !pinned[p.session].CompareAndSwap(0, want) && pinned[p.session].Load() != want {
						violations.Add(1)
					}
				}
			}
		}(i)
	}
	wg.Wait()
	u1 := readUsage()
	close(stop)
	stallWG.Wait()

	run.secs = u1.at.Sub(u0.at).Seconds()
	run.use = u1.sub(u0)
	run.violation = violations.Load()
	for i := range lats {
		run.lat = append(run.lat, lats[i]...)
		run.t.merge(tallies[i])
	}
	if run.t.incorrect != nil {
		return nil, run.t.incorrect
	}
	if len(run.lat) == 0 {
		return nil, fmt.Errorf("proxy_mbneck completed no request")
	}
	sort.Float64s(run.lat)
	limit := float64(mbSLO) / float64(time.Microsecond)
	run.slow = int64(len(run.lat) - sort.SearchFloat64s(run.lat, limit+1e-9))
	return run, nil
}

// warmConcurrent sends the warm-up from all sixteen clients so every
// connection pool on the path is populated.
func warmConcurrent(st *stack) error {
	g := newGenerator(nil)
	t := st.proxyTarget()
	errs := make(chan error, mbClients)
	for i := 0; i < mbClients; i++ {
		go func(n int) {
			hc := newHTTPClient(1)
			defer hc.CloseIdleConnections()
			for ; n > 0; n-- {
				if _, _, err := g.do(hc, t, plainGET); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(warmupShare(i))
	}
	var first error
	for i := 0; i < mbClients; i++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// warmupShare splits the 500 warm-up requests over the clients.
func warmupShare(client int) int {
	n := warmupRequests / mbClients
	if client < warmupRequests%mbClients {
		n++
	}
	return n
}

func runProxyMbneck(o options, rep *report) error {
	rep.Params = map[string]any{
		"backends": 4, "service_time": "8ms", "db_query": "0.5ms", "response_bytes": mbBodyLen,
		"app_workers": 210, "proxy_workers": 200, "endpoints_per_backend": endpointsPer,
		"policy": "prequal", "mechanism": "modified_get_endpoint",
		"planes":  "probe, resilience, admission aimd+codel+lifo, telemetry 50ms, spans 4096, events 65536, sticky sessions",
		"clients": mbClients, "loop": "closed, zero think time", "stall": "app1 200ms every 2s",
		"mix": "90% GET / 10% POST 2KiB, 25% with one of 64 JSESSIONID", "slo_ms": 100,
		"warmup_requests": warmupRequests,
	}
	baseGoroutines := runtime.NumGoroutine()
	setups := 3
	if o.short {
		setups = 1
	}
	measured := time.Duration(o.seconds * float64(time.Second))
	untraced := measured
	if o.trace {
		untraced = measured / 4
	}

	var st *stack
	var setupS float64
	err := rep.timed("setup", func() (err error) {
		st, setupS, err = setupRepeated(setups, mbneckStackConfig(nil), warmConcurrent)
		return err
	})
	if err != nil {
		return err
	}
	var run *mbRun
	err = rep.timed("measure", func() (err error) {
		proxy := st.proxyTarget()
		run, err = measureMbneck(o.seed, newGenerator(nil), func(int) *target { return proxy }, untraced,
			func() { st.apps[0].Stall(mbStallFor) })
		return err
	})
	if err == nil {
		err = st.checkQuiescent(run.t.attempted + warmupRequests)
	}
	st.close()
	if err != nil {
		return err
	}

	ok := int64(len(run.lat))
	rep.Attempted = run.t.attempted
	rep.Failed = run.t.failed
	rep.set("setup_s", setupS, setups)
	rep.set("ops_per_s", float64(ok)/run.secs, int(ok))
	rep.set("lat_p50_us", quantile(run.lat, 0.5), int(ok))
	rep.set("slo_share", float64(run.t.withinSLO)/float64(run.t.attempted), int(run.t.attempted))
	rep.set("alloc_bytes_per_op", float64(run.use.totalAlloc)/float64(ok), int(ok))
	if o.trace {
		if err := traceProxyMbneck(o, rep, measured, quantile(run.lat, 0.5)); err != nil {
			return err
		}
	}
	return waitGoroutines(baseGoroutines)
}

func traceProxyMbneck(o options, rep *report, measured time.Duration, untracedP50 float64) error {
	tr := newTracer(int(measured.Seconds()*4000) + 1000)
	tt := &tracingTransport{base: http.DefaultTransport, t: tr}
	return rep.timed("trace", func() error {
		st, _, err := setupRepeated(1, mbneckStackConfig(tt), warmConcurrent)
		if err != nil {
			return err
		}
		defer st.close()
		proxy := st.proxyTarget()
		run, err := measureMbneck(o.seed, newGenerator(tr), func(int) *target { return proxy }, measured/2,
			func() { st.apps[0].Stall(mbStallFor) })
		if err != nil {
			return err
		}
		if err := st.checkQuiescent(run.t.attempted + warmupRequests); err != nil {
			return err
		}
		p50 := quantile(run.lat, 0.5)
		rep.setClientMetrics(run.lat, float64(len(run.lat))/run.secs, run.t)
		rep.set("client.lat_p50_us", p50, len(run.lat))
		rep.setProcessMetrics(run.use, int64(len(run.lat)))
		rep.set("httpcluster.sticky_violations", float64(run.violation), 0)
		rep.set("mbneck.stalls", float64(run.stalls), 0)
		rep.set("mbneck.slow_share", float64(run.slow)/float64(len(run.lat)), len(run.lat))
		if run.stalls > 0 {
			rep.set("mbneck.slow_per_stall", float64(run.slow)/float64(run.stalls), run.stalls)
		}
		rep.setPlaneCounters(st)

		// Direct arm: the same sixteen clients spread over the backends,
		// no proxy and no stalls.
		direct, err := measureMbneck(o.seed, newGenerator(nil),
			func(i int) *target { return st.directTarget(i % len(st.apps)) }, measured/8, nil)
		if err != nil {
			return fmt.Errorf("direct arm: %w", err)
		}
		rep.set("backend.direct_p50_us", quantile(direct.lat, 0.5), len(direct.lat))
		rep.set("backend.direct_p99_us", quantile(direct.lat, 0.99), len(direct.lat))
		rep.set("proxy.added_p50_us", p50-quantile(direct.lat, 0.5), len(run.lat))
		rep.set("proxy.added_p99_us", quantile(run.lat, 0.99)-quantile(direct.lat, 0.99), len(run.lat))

		return rep.finishHTTPTrace(o, st, tr, httpcluster.PolicyPrequal, p50, untracedP50, measured/8)
	})
}

// setPlaneCounters reads what the control and observation planes did
// during the traced phase from the proxy's own accessors.
func (r *report) setPlaneCounters(st *stack) {
	p := st.proxy
	if g := p.Admission(); g != nil {
		s := g.Stats()
		r.set("admission.sheds", float64(s.Dropped), 0)
		r.set("admission.limit_final", float64(s.Limit), 0)
	}
	if pools := p.ProbePools(); pools != nil {
		depth := 0
		for _, be := range st.backends {
			depth += pools.Depth(be.Name())
		}
		r.set("probe.pool_depth", float64(depth)/float64(len(st.backends)), len(st.backends))
	}
	if tl := p.Timeline(); tl != nil {
		samples := 0
		for _, tk := range tl.Tracks() {
			samples += tk.Len()
		}
		r.set("telemetry.samples", float64(samples), 0)
	}
	if ev := p.Events(); ev != nil {
		r.set("obs.events", float64(ev.Appended()), 0)
	}
}
