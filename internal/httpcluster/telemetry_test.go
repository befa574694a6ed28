package httpcluster

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"millibalance/internal/adapt"
	"millibalance/internal/admission"
	"millibalance/internal/telemetry"
)

// startTelemetryTier brings up a one-backend tier with every admin
// surface armed: spans, events, the adaptive controller and the
// telemetry sampler. The app server is returned too so tests can hit
// its own admin surface (/admin/probe).
func startTelemetryTier(t *testing.T) (*Proxy, *AppServer, func()) {
	t.Helper()
	app, err := StartAppServer(AppServerConfig{Name: "app1", Workers: 16, ServiceTime: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := StartProxy(ProxyConfig{
		Workers:       16,
		Policy:        PolicyCurrentLoad,
		Mechanism:     MechanismModified,
		SpanCapacity:  1024,
		EventCapacity: 1024,
		Adapt:         &adapt.Config{},
		Admission:     &admission.Config{Limiter: admission.LimiterGradient, CoDel: true},
		Telemetry:     &telemetry.Config{Interval: 5 * time.Millisecond},
	}, []*Backend{NewBackend("app1", app.URL(), 8)})
	if err != nil {
		_ = app.Close()
		t.Fatal(err)
	}
	return proxy, app, func() {
		_ = proxy.Close()
		_ = app.Close()
	}
}

// TestAdminStreamHeaders locks down the content-type contract of the
// streaming admin endpoints: JSONL streams declare x-ndjson and every
// stream forbids content sniffing, because they echo request-derived
// strings and must never be interpreted as HTML.
func TestAdminStreamHeaders(t *testing.T) {
	proxy, app, shutdown := startTelemetryTier(t)
	defer shutdown()
	client := &http.Client{Timeout: 5 * time.Second}
	doRequest(context.Background(), client, proxy.URL()+"/x")

	cases := []struct {
		base        string
		path        string
		contentType string
	}{
		{proxy.URL(), "/admin/trace", "application/x-ndjson"},
		{proxy.URL(), "/admin/events", "application/x-ndjson"},
		{proxy.URL(), "/admin/adapt/decisions", "application/x-ndjson"},
		{proxy.URL(), "/admin/admission", "application/x-ndjson"},
		{proxy.URL(), "/admin/timeline", "application/x-ndjson"},
		{proxy.URL(), "/metrics", promContentType},
		// The app server's probe endpoint follows the same convention:
		// it echoes a configured backend name into the stream, so it
		// must never be sniffed into HTML either.
		{app.URL(), "/admin/probe", "application/x-ndjson"},
	}
	for _, tc := range cases {
		resp, err := client.Get(tc.base + tc.path)
		if err != nil {
			t.Fatalf("%s: %v", tc.path, err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", tc.path, resp.StatusCode)
		}
		if got := resp.Header.Get("Content-Type"); got != tc.contentType {
			t.Fatalf("%s: Content-Type %q, want %q", tc.path, got, tc.contentType)
		}
		if got := resp.Header.Get("X-Content-Type-Options"); got != "nosniff" {
			t.Fatalf("%s: X-Content-Type-Options %q, want nosniff", tc.path, got)
		}
	}
}

// TestProxyTelemetryExport drives traffic through a telemetry-armed
// proxy and checks both export formats carry the expected tracks.
func TestProxyTelemetryExport(t *testing.T) {
	proxy, _, shutdown := startTelemetryTier(t)
	defer shutdown()
	client := &http.Client{Timeout: 5 * time.Second}
	for i := 0; i < 10; i++ {
		doRequest(context.Background(), client, proxy.URL()+"/x")
	}
	time.Sleep(25 * time.Millisecond) // a few sampler ticks

	get := func(path string) string {
		t.Helper()
		resp, err := client.Get(proxy.URL() + path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, resp.StatusCode, body)
		}
		return string(body)
	}

	metrics := get("/metrics")
	for _, want := range []string{
		"# TYPE millibalance_goroutines gauge",
		"# TYPE millibalance_completed_total counter",
		`millibalance_in_flight{source="app1"}`,
		`millibalance_workers_busy{source="proxy"}`,
		`millibalance_accept_wait{source="proxy"}`,
		`millibalance_admission_limit{source="proxy"}`,
		`millibalance_admission_drop_rate{source="proxy"}`,
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, metrics)
		}
	}

	timeline := get("/admin/timeline")
	for _, want := range []string{
		`"source":"proxy","signal":"goroutines"`,
		`"source":"app1","signal":"pool_free"`,
		`"source":"app1","signal":"completed_total"`,
	} {
		if !strings.Contains(timeline, want) {
			t.Fatalf("/admin/timeline missing %q", want)
		}
	}

	// The completed counter must have caught up with the traffic.
	tr := proxy.Timeline().Lookup("app1", telemetry.SignalCompleted)
	if tr == nil {
		t.Fatal("no completed_total track")
	}
	if p, ok := tr.Latest(); !ok || p.V < 10 {
		t.Fatalf("completed_total latest = %+v, want >= 10", p)
	}
}

// TestProxyTelemetryDisabled404 keeps the pay-for-what-you-use
// contract visible at the HTTP surface.
func TestProxyTelemetryDisabled404(t *testing.T) {
	app, err := StartAppServer(AppServerConfig{Name: "a", Workers: 4, ServiceTime: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = app.Close() }()
	proxy, err := StartProxy(ProxyConfig{
		Workers: 4, Policy: PolicyCurrentLoad, Mechanism: MechanismModified,
	}, []*Backend{NewBackend("a", app.URL(), 4)})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = proxy.Close() }()
	if proxy.Timeline() != nil {
		t.Fatal("Timeline non-nil without ProxyConfig.Telemetry")
	}
	client := &http.Client{Timeout: 5 * time.Second}
	for _, path := range []string{"/metrics", "/admin/timeline"} {
		resp, err := client.Get(proxy.URL() + path)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s with telemetry off: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestTelemetryDisabledDispatchZeroAlloc is the deterministic guard CI
// runs by name: with no telemetry armed, the balancer dispatch hot path
// must not allocate, so arming the sampler is genuinely opt-in cost.
func TestTelemetryDisabledDispatchZeroAlloc(t *testing.T) {
	backends := []*Backend{NewBackend("a", "u", 64), NewBackend("b", "u", 64)}
	bal := NewBalancer(PolicyCurrentLoad, MechanismModified, backends, Config{Sweeps: 1})
	allocs := testing.AllocsPerRun(1000, func() {
		_, rel, err := bal.Acquire(128)
		if err != nil {
			t.Fatal(err)
		}
		rel.Done(256)
	})
	if allocs != 0 {
		t.Fatalf("dispatch with telemetry disabled allocates %.1f/op, want 0", allocs)
	}
}

// BenchmarkTelemetryDisabledOverhead holds the arms that show what a
// plane costs the foreground path when it is off, and when it is on.
//
// disabled / enabled: the dispatch hot path with telemetry off (0
// allocs/op: TestTelemetryDisabledDispatchZeroAlloc) and with a live
// 50 ms wall sampler reading the same backends' gauges.
//
// pre_admission / admission_disabled / admission_admitted: the proxy's
// worker acquire as it was before the admission plane existed, through
// a live proxy with the plane off, and with the full arm on (0
// allocs/op on both: TestAdmissionPlaneFastPathZeroAlloc).
//
// Two ratios here were 5% pass/fail thresholds of the per-PR report
// program CI ran on every push until PR 21 retired it. Neither became a
// go test guard: on the unchanged tree (2 vCPUs, commit d90ea05) the
// readings straddle zero, so what they measure is the host.
//
//   - admission_disabled over pre_admission, was "at most 5%": +1.3 /
//     +9.8 / -2.1% and +0.4 / +0.4 / -2.4% on two sets of three runs.
//     The +9.8% failed the step, as about one push in three did with no
//     code change; the arms differ by one nil check.
//   - a simulated run with 50 ms telemetry sampling over one without,
//     was "at most 5%": -5.6% when BENCH_PR6.json was recorded, +4.4%
//     and -0.9 / +0.5 / +0.2% since. Its arms are whole cluster runs,
//     which `go run -C bench . -compare` times (sim_paper has the
//     planes off, sim_full on) over alternating pairs, reporting the
//     spread beside the median.
func BenchmarkTelemetryDisabledOverhead(b *testing.B) {
	run := func(b *testing.B, enabled bool) {
		backends := []*Backend{NewBackend("a", "u", 64), NewBackend("b", "u", 64)}
		bal := NewBalancer(PolicyCurrentLoad, MechanismModified, backends, Config{Sweeps: 1})
		if enabled {
			s := telemetry.NewWallSampler("bench", telemetry.Config{})
			for _, be := range backends {
				be := be
				s.Register(be.Name(), telemetry.SignalInFlight, func() float64 { return float64(be.InFlight()) })
				s.Register(be.Name(), telemetry.SignalCompleted, func() float64 { return float64(be.Completed()) })
			}
			s.Start()
			defer s.Stop()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, rel, err := bal.Acquire(128)
			if err != nil {
				b.Fatal(err)
			}
			rel.Done(256)
		}
	}
	b.Run("disabled", func(b *testing.B) { run(b, false) })
	b.Run("enabled", func(b *testing.B) { run(b, true) })

	acquire := func(b *testing.B, roundTrip func() bool) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !roundTrip() {
				b.Fatal("worker acquire refused on an idle pool")
			}
		}
	}
	b.Run("pre_admission", func(b *testing.B) {
		acquire(b, (&preAdmissionPool{workers: make(chan struct{}, 64)}).roundTrip)
	})
	b.Run("admission_disabled", func(b *testing.B) { acquire(b, startAcquireProxy(b, nil).admitRoundTrip) })
	b.Run("admission_admitted", func(b *testing.B) { acquire(b, startAcquireProxy(b, fullAdmission()).admitRoundTrip) })
}
