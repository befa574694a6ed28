// Command httpdemo demonstrates the paper's instability over real
// loopback HTTP: it boots a database stub, application servers and a
// web-tier proxy, drives closed-loop clients, injects a millibottleneck
// (a stall) on one application server mid-run, and prints the latency
// profile. Run it once per configuration to compare:
//
//	httpdemo -policy total_request -mechanism original
//	httpdemo -policy current_load  -mechanism modified
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"strings"
	"time"

	"millibalance/internal/adapt"
	"millibalance/internal/admission"
	"millibalance/internal/faults"
	"millibalance/internal/httpcluster"
	"millibalance/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "httpdemo:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("httpdemo", flag.ContinueOnError)
	policyName := fs.String("policy", "total_request",
		"load balancing policy: "+strings.Join(httpcluster.PolicyNames(), ", "))
	mechName := fs.String("mechanism", "original", "original or modified")
	apps := fs.Int("apps", 2, "application servers")
	clients := fs.Int("clients", 24, "closed-loop clients")
	duration := fs.Duration("duration", 3*time.Second, "load duration")
	stallAt := fs.Duration("stall-at", time.Second, "when to inject the millibottleneck")
	stallFor := fs.Duration("stall-for", 400*time.Millisecond, "millibottleneck length")
	endpoints := fs.Int("endpoints", 4, "proxy endpoint pool per backend")
	obsOn := fs.Bool("obs", false, "arm span tracing and the balancer event log (GET /admin/trace and /admin/events on the proxy)")
	adaptive := fs.Bool("adaptive", false, "arm the adaptive control plane (GET /admin/adapt and /admin/adapt/decisions; implies -obs)")
	faultSpec := fs.String("faults", "", "fault scenario, e.g. 'freeze:periodic:interval=1s:duration=300ms:jitter=0.2:target=app1,netloss:oneshot:interval=2s:duration=500ms' (jitter is a fraction of each gap and window; replaces the single scripted stall; implies -obs)")
	resilient := fs.Bool("resilience", false, "arm the proxy resilience layer: attempt deadlines, budgeted retries, fast-fail shedding")
	admSpec := fs.String("admission", "", "arm the proxy admission plane (GET /admin/admission): + joined tokens from static[:n], aimd, gradient, codel, lifo")
	telemetryOn := fs.Bool("telemetry", false, "arm the 50 ms telemetry sampler (GET /metrics and /admin/timeline on the proxy)")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	policy, err := httpcluster.ParsePolicy(*policyName)
	if err != nil {
		return err
	}
	mech, err := httpcluster.ParseMechanism(*mechName)
	if err != nil {
		return err
	}
	scenario := *faultSpec
	if scenario == "" { // the single scripted stall
		scenario = fmt.Sprintf("freeze:oneshot:interval=%v:duration=%v:target=app1", *stallAt, *stallFor)
	}
	specs, err := faults.ParseScenario(scenario)
	if err != nil {
		return err
	}

	db, err := httpcluster.StartDBServer(200 * time.Microsecond)
	if err != nil {
		return err
	}
	defer func() { _ = db.Close() }()

	var appServers []*httpcluster.AppServer
	var backends []*httpcluster.Backend
	for i := 0; i < *apps; i++ {
		name := fmt.Sprintf("app%d", i+1)
		app, err := httpcluster.StartAppServer(httpcluster.AppServerConfig{
			Name:        name,
			Workers:     64,
			ServiceTime: 2 * time.Millisecond,
			DBURL:       db.URL(),
			DBQueries:   1,
		})
		if err != nil {
			return err
		}
		defer func() { _ = app.Close() }()
		appServers = append(appServers, app)
		backends = append(backends, httpcluster.NewBackend(name, app.URL(), *endpoints))
	}

	pcfg := httpcluster.ProxyConfig{
		Workers:   128,
		Policy:    policy,
		Mechanism: mech,
	}
	if *obsOn || *adaptive || *faultSpec != "" {
		pcfg.SpanCapacity = 1 << 16
		pcfg.EventCapacity = 1 << 17
	}
	if *adaptive {
		pcfg.Adapt = &adapt.Config{}
	}
	if *resilient {
		pcfg.Resilience = &httpcluster.Resilience{}
	}
	if *admSpec != "" {
		acfg, err := admission.ParseSpec(*admSpec)
		if err != nil {
			return err
		}
		pcfg.Admission = acfg
	}
	if *telemetryOn {
		pcfg.Telemetry = &telemetry.Config{}
	}
	if *pprofAddr != "" {
		stopProf, err := servePprof(*pprofAddr)
		if err != nil {
			return err
		}
		defer stopProf()
	}
	proxy, err := httpcluster.StartProxy(pcfg, backends)
	if err != nil {
		return err
	}
	defer func() { _ = proxy.Close() }()

	injectors, err := faults.Bind(specs, appServers)
	if err != nil {
		return err
	}

	fmt.Printf("3-tier loopback cluster: proxy %s → %d app servers → db %s\n",
		proxy.URL(), *apps, db.URL())
	if *obsOn || *adaptive {
		fmt.Printf("observability: GET %s/admin/trace and %s/admin/events (JSONL)\n",
			proxy.URL(), proxy.URL())
	}
	if *adaptive {
		fmt.Printf("adaptive: GET %s/admin/adapt (state) and %s/admin/adapt/decisions (JSONL)\n",
			proxy.URL(), proxy.URL())
	}
	if *telemetryOn {
		fmt.Printf("telemetry: GET %s/metrics (Prometheus) and %s/admin/timeline (JSONL)\n",
			proxy.URL(), proxy.URL())
	}
	if proxy.Admission() != nil {
		fmt.Printf("admission: GET %s/admin/admission (JSONL gate snapshot + limit history)\n",
			proxy.URL())
	}
	fmt.Printf("policy=%s mechanism=%s resilience=%v; fault scenario: %s\n",
		policy, mech, *resilient, scenario)
	for _, inj := range injectors {
		inj.Arm(proxy.Events(), proxy.Epoch())
		inj.Start()
		defer inj.Stop()
	}

	ctx, cancel := context.WithTimeout(context.Background(), *duration)
	defer cancel()
	stats := httpcluster.RunLoad(ctx, proxy.URL(), httpcluster.LoadGenConfig{
		Clients:   *clients,
		ThinkTime: 10 * time.Millisecond,
	}, 100*time.Millisecond, 300*time.Millisecond)

	fmt.Printf("\nrequests: %d total, %d failed, %d rejected by the balancer\n",
		stats.Total(), stats.Failures(), proxy.Balancer().Rejects())
	for _, inj := range injectors {
		fmt.Printf("fault %s on %s: %d windows\n", inj.Name(), inj.Shape().Target(), inj.Fired())
	}
	if *faultSpec != "" || *resilient {
		fmt.Printf("resilience: shed=%d retries=%d\n", proxy.Shed(), proxy.Retries())
	}
	fmt.Printf("latency: mean=%v p50=%v p90=%v p99=%v max=%v\n",
		stats.Mean().Round(time.Microsecond*100), stats.Quantile(0.5).Round(time.Microsecond*100),
		stats.Quantile(0.9).Round(time.Microsecond*100), stats.Quantile(0.99).Round(time.Microsecond*100),
		stats.Max().Round(time.Millisecond))
	fmt.Printf("slow requests: ≥100ms: %d, ≥300ms: %d\n",
		stats.CountOver(100*time.Millisecond), stats.CountOver(300*time.Millisecond))
	for _, be := range proxy.Balancer().Backends() {
		fmt.Printf("backend %s: dispatched=%d completed=%d lb_value=%.0f state=%v\n",
			be.Name(), be.Dispatched(), be.Completed(), be.LBValue(), be.State())
	}
	if *adaptive {
		st := proxy.Adapt().State()
		fmt.Printf("adaptive: decisions=%d policy=%s mechanism=%s quarantined=%d fallback=%v\n",
			st.Decisions, st.Policy, st.Mechanism, len(st.Quarantined), st.Fallback)
	}
	if g := proxy.Admission(); g != nil {
		st := g.Stats()
		fmt.Printf("admission: limiter=%s limit=%d admitted=%d dropped=%d (priority=%d queue_full=%d max_wait=%d codel=%d)\n",
			st.Limiter, st.Limit, st.Admitted, st.Dropped,
			st.DropsPriority, st.DropsQueueFull, st.DropsMaxWait, st.DropsCoDel)
	}
	fmt.Println("\nlatency timeline (mean/max ms per 100ms window):")
	tl := stats.Timeline()
	for i := 0; i < tl.Len(); i++ {
		w := tl.At(i)
		if w.Count == 0 {
			continue
		}
		fmt.Printf("  t=%4.1fs  n=%-4d mean=%7.1f  max=%7.1f\n",
			tl.Start(i).Seconds(), w.Count, w.Mean(), w.Max)
	}
	return nil
}

// servePprof serves the net/http/pprof handlers on their own listener,
// registered on a private mux so the profiling surface only exists when
// asked for — the default-mux side effect of importing net/http/pprof
// is deliberately not relied on.
func servePprof(addr string) (stop func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	fmt.Printf("pprof: http://%s/debug/pprof/\n", ln.Addr())
	return func() { _ = srv.Close() }, nil
}
