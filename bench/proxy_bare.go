package main

import (
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"time"

	"millibalance/internal/httpcluster"
)

// proxy_bare: smallest message, no backend work, no concurrency. One
// serial closed-loop client on one keep-alive connection alternates
// 250 ms slices between the proxy and app1 directly, so the per-request
// cost of net/http accept/parse, Proxy.handle, Acquire/Release, the
// upstream round trip and the body copy is the whole latency, and the
// interleaved direct arm cancels the slow drift of a shared machine.
const (
	bareSlice    = 250 * time.Millisecond
	bareBodyLen  = 128
	bareSLO      = 10 * time.Millisecond
	bareApps     = 4
	endpointsPer = 25
)

func bareStackConfig(transport http.RoundTripper) stackConfig {
	return stackConfig{
		apps: bareApps,
		// 1 ns is the smallest service time the stub accepts: its eight
		// slices round to Sleep(0), so the backend does no work.
		app:       httpcluster.AppServerConfig{Workers: 64, ServiceTime: time.Nanosecond, ResponseBytes: bareBodyLen},
		endpoints: endpointsPer,
		proxy: httpcluster.ProxyConfig{
			Workers:   64,
			Policy:    httpcluster.PolicyCurrentLoad,
			Mechanism: httpcluster.MechanismModified,
			Transport: transport, // nil unless traced; every optional plane stays nil
		},
	}
}

// sliceStat is one 250 ms slice of the serial client.
type sliceStat struct {
	proxy bool
	n     int
	secs  float64
	p50   float64 // microseconds
	use   usage   // whole-process delta over the slice
}

// bareRun is what one measured phase of proxy_bare yields.
type bareRun struct {
	slices           []sliceStat
	pairs            []pair
	proxyLat, dirLat []float64 // microseconds, every request
	proxyT, dirT     tally
}

func measureBare(st *stack, g *generator, d time.Duration) (*bareRun, error) {
	hc := newHTTPClient(2) // one connection per arm
	defer hc.CloseIdleConnections()
	targets := [2]*target{st.directTarget(0), st.proxyTarget()}
	run := &bareRun{}
	var buf []float64
	end := time.Now().Add(d)
	for i := 0; time.Now().Before(end); i++ {
		arm := (i + 1) % 2 // start on the proxy
		t, tl, all := targets[arm], &run.dirT, &run.dirLat
		if arm == 1 {
			tl, all = &run.proxyT, &run.proxyLat
		}
		buf = buf[:0]
		u0 := readUsage()
		for sliceEnd := u0.at.Add(bareSlice); time.Now().Before(sliceEnd); {
			lat, _, err := g.do(hc, t, plainGET)
			tl.note(lat, bareSLO, err)
			if err == nil {
				buf = append(buf, float64(lat)/float64(time.Microsecond))
			}
		}
		u1 := readUsage()
		*all = append(*all, buf...)
		sort.Float64s(buf)
		run.slices = append(run.slices, sliceStat{
			proxy: arm == 1, n: len(buf), secs: u1.at.Sub(u0.at).Seconds(),
			p50: quantile(buf, 0.5), use: u1.sub(u0),
		})
	}
	if err := run.proxyT.incorrect; err != nil {
		return nil, err
	}
	if err := run.dirT.incorrect; err != nil {
		return nil, err
	}
	if len(run.proxyLat) == 0 || len(run.dirLat) == 0 {
		return nil, fmt.Errorf("proxy_bare completed no request on one arm (proxy %d, direct %d)", len(run.proxyLat), len(run.dirLat))
	}
	sort.Float64s(run.proxyLat)
	sort.Float64s(run.dirLat)
	run.pairs = pairSlices(run.slices)
	if len(run.pairs) == 0 {
		return nil, fmt.Errorf("proxy_bare measured no complete slice pair in %v", d)
	}
	return run, nil
}

// pair is a proxy slice and the direct slice that follows it. How much
// worse than nominal the direct slice was, in latency and in rate, is the
// slowdown the host imposed on both (reference.go).
type pair struct {
	proxy, direct     sliceStat
	slowLat, slowRate float64
}

func pairSlices(slices []sliceStat) []pair {
	var out []pair
	for i := 0; i+1 < len(slices); i += 2 {
		p, d := slices[i], slices[i+1]
		if p.n > 0 && d.n > 0 {
			out = append(out, pair{
				proxy: p, direct: d,
				slowLat:  d.p50 / refDirectNominalUs,
				slowRate: refDirectNominalRate / d.rate(),
			})
		}
	}
	return out
}

// overPairs is the median over slice pairs of f: a shared machine slows
// whole stretches of a run, so no number here is a mean over requests.
func (b *bareRun) overPairs(f func(pair) float64) (float64, int) {
	var v []float64
	for _, p := range b.pairs {
		v = append(v, f(p))
	}
	return median(v), len(v)
}

func (s sliceStat) rate() float64 { return float64(s.n) / s.secs }

// proxyUsage sums the whole-process usage of the proxy slices only, so
// the direct arm's cheaper requests do not dilute the per-op cost.
func (b *bareRun) proxyUsage() (usage, int64) {
	var u usage
	var ops int64
	for _, s := range b.slices {
		if s.proxy {
			u.add(s.use)
			ops += int64(s.n)
		}
	}
	return u, ops
}

func runProxyBare(o options, rep *report) error {
	rep.Params = map[string]any{
		"backends": bareApps, "service_time": "1ns", "response_bytes": bareBodyLen,
		"endpoints_per_backend": endpointsPer, "policy": "current_load", "mechanism": "modified_get_endpoint",
		"clients": 1, "loop": "closed, zero think time", "slice_ms": 250, "slo_ms": 10,
		"warmup_requests": warmupRequests,
	}
	baseGoroutines := runtime.NumGoroutine()
	setups := 5
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
		st, setupS, err = setupRepeated(setups, bareStackConfig(nil), warmSerial)
		return err
	})
	if err != nil {
		return err
	}
	var run *bareRun
	g := newGenerator(nil)
	g.ids.Add(int64(o.seed%(1<<20)) << 20) // the seed's only input here: the request ids
	err = rep.timed("measure", func() (err error) {
		run, err = measureBare(st, g, untraced)
		return err
	})
	if err == nil {
		err = st.checkQuiescent(run.proxyT.attempted + warmupRequests)
	}
	st.close()
	if err != nil {
		return err
	}

	// Latency and rate of each proxy slice are divided by the slowdown
	// its direct neighbour saw; then the median over pairs.
	p50, pairs := run.overPairs(func(p pair) float64 { return p.proxy.p50 / p.slowLat })
	rate, _ := run.overPairs(func(p pair) float64 { return p.proxy.rate() * p.slowRate })
	slow, _ := run.overPairs(func(p pair) float64 { return p.slowLat })
	use, ops := run.proxyUsage()
	for _, p := range run.pairs {
		rep.Raw["slice_p50_us_proxy"] = append(rep.Raw["slice_p50_us_proxy"], p.proxy.p50)
		rep.Raw["slice_p50_us_direct"] = append(rep.Raw["slice_p50_us_direct"], p.direct.p50)
		rep.Raw["slice_req_per_s_proxy"] = append(rep.Raw["slice_req_per_s_proxy"], p.proxy.rate())
		rep.Raw["slice_req_per_s_direct"] = append(rep.Raw["slice_req_per_s_direct"], p.direct.rate())
	}
	rep.Attempted = run.proxyT.attempted + run.dirT.attempted
	rep.Failed = run.proxyT.failed + run.dirT.failed
	rep.set("setup_s", setupS, setups)
	rep.set("ops_per_s", rate, pairs)
	rep.set("lat_p50_us", p50, pairs)
	rep.set("slo_share", float64(run.proxyT.withinSLO)/float64(run.proxyT.attempted), int(run.proxyT.attempted))
	rep.set("alloc_bytes_per_op", float64(use.totalAlloc)/float64(ops), int(ops))
	rep.set("ref.slowdown", slow, pairs)
	if o.trace {
		if err := traceProxyBare(o, rep, measured, p50); err != nil {
			return err
		}
	}
	return waitGoroutines(baseGoroutines)
}

// traceProxyBare is the traced run: the same workload with the tracing
// transport in the proxy and httptrace in the generator, then the floor
// arm and the layer micro-timings.
func traceProxyBare(o options, rep *report, measured time.Duration, untracedP50 float64) error {
	tr := newTracer(int(measured.Seconds()*20000) + 1000)
	tt := &tracingTransport{base: http.DefaultTransport, t: tr}
	return rep.timed("trace", func() error {
		st, _, err := setupRepeated(1, bareStackConfig(tt), warmSerial)
		if err != nil {
			return err
		}
		defer st.close()
		run, err := measureBare(st, newGenerator(tr), measured/2)
		if err != nil {
			return err
		}
		if err := st.checkQuiescent(run.proxyT.attempted + warmupRequests); err != nil {
			return err
		}
		// The layer numbers are raw wall-clock medians over pairs; only
		// the tracing overhead is compared in corrected terms.
		p50, pairs := run.overPairs(func(p pair) float64 { return p.proxy.p50 / p.slowLat })
		rawP50, _ := run.overPairs(func(p pair) float64 { return p.proxy.p50 })
		direct, _ := run.overPairs(func(p pair) float64 { return p.direct.p50 })
		added, _ := run.overPairs(func(p pair) float64 { return p.proxy.p50 - p.direct.p50 })
		rate, _ := run.overPairs(func(p pair) float64 { return p.proxy.rate() })
		use, ops := run.proxyUsage()
		rep.setClientMetrics(run.proxyLat, rate, run.proxyT)
		rep.set("client.lat_p50_us", rawP50, pairs)
		rep.set("backend.direct_p50_us", direct, len(run.dirLat))
		rep.set("backend.direct_p99_us", quantile(run.dirLat, 0.99), len(run.dirLat))
		rep.set("proxy.added_p50_us", added, pairs)
		rep.set("proxy.added_p99_us", quantile(run.proxyLat, 0.99)-quantile(run.dirLat, 0.99), len(run.proxyLat))
		rep.setProcessMetrics(use, ops)
		return rep.finishHTTPTrace(o, st, tr, httpcluster.PolicyCurrentLoad, p50, untracedP50, measured/8)
	})
}
