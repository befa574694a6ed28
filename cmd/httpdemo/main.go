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
	faultSpec := fs.String("faults", "", "fault scenario, e.g. 'freeze:periodic:interval=1s:duration=300ms:target=app1,netloss:oneshot:interval=2s:duration=500ms' (replaces the single scripted stall; implies -obs)")
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
	var specs []faults.Spec
	if *faultSpec != "" {
		if specs, err = faults.ParseScenario(*faultSpec); err != nil {
			return err
		}
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
	if *obsOn || *adaptive || len(specs) > 0 {
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
	var transport *faults.Transport
	if len(specs) > 0 {
		// The fault wrapper sits on the pooled transport the proxy would
		// have built for itself, so injected latency is added to the same
		// keep-alive path the unfaulted demo measures.
		pooled := httpcluster.NewUpstreamTransport(backends)
		defer pooled.CloseIdleConnections()
		transport = faults.NewTransport(pooled, 1)
		pcfg.Transport = transport
	}
	proxy, err := httpcluster.StartProxy(pcfg, backends)
	if err != nil {
		return err
	}
	defer func() { _ = proxy.Close() }()

	injectors, err := buildInjectors(specs, appServers, transport)
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
	if len(injectors) > 0 {
		fmt.Printf("policy=%s mechanism=%s resilience=%v; fault scenario: %s\n",
			policy, mech, *resilient, *faultSpec)
		for _, inj := range injectors {
			inj.Arm(proxy.Events(), proxy.Epoch())
			inj.Start()
			defer inj.Stop()
		}
	} else {
		fmt.Printf("policy=%s mechanism=%s; stalling app1 for %v at t=%v\n",
			policy, mech, *stallFor, *stallAt)
		timer := time.AfterFunc(*stallAt, func() {
			fmt.Printf("!! millibottleneck: app1 frozen for %v\n", *stallFor)
			appServers[0].Stall(*stallFor)
		})
		defer timer.Stop()
	}

	ctx, cancel := context.WithTimeout(context.Background(), *duration)
	defer cancel()
	stats := httpcluster.RunLoad(ctx, proxy.URL(), httpcluster.LoadGenConfig{
		Clients:   *clients,
		ThinkTime: 10 * time.Millisecond,
	}, 100*time.Millisecond, 300*time.Millisecond)

	fmt.Printf("\nrequests: %d total, %d failed, %d rejected by the balancer\n",
		stats.Total(), stats.Failures(), proxy.Balancer().Rejects())
	if len(injectors) > 0 || *resilient {
		for _, inj := range injectors {
			fmt.Printf("fault %s on %s: %d windows\n", inj.Name(), inj.Shape().Target(), inj.Fired())
		}
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

// buildInjectors resolves parsed fault specs against the live tier:
// each spec's target names an app server (default: the first), and the
// network shapes degrade that server's host on the proxy's transport.
func buildInjectors(specs []faults.Spec, apps []*httpcluster.AppServer, tr *faults.Transport) ([]*faults.Injector, error) {
	byName := make(map[string]*httpcluster.AppServer, len(apps))
	for _, app := range apps {
		byName[app.Name()] = app
	}
	var out []*faults.Injector
	for _, spec := range specs {
		target := spec.Target
		if target == "" {
			target = apps[0].Name()
		}
		app, ok := byName[target]
		if !ok {
			return nil, fmt.Errorf("fault target %q: no such app server", target)
		}
		var shape faults.Shape
		switch spec.ShapeKind {
		case "freeze":
			shape = faults.Freeze{Name: app.Name(), S: app}
		case "gc_pause":
			shape = faults.GCPause{Name: app.Name(), S: app}
		case "slow":
			shape = faults.Slow{Name: app.Name(), D: app, Extra: spec.Delay}
		case "crash":
			shape = faults.Crash{Name: app.Name(), R: app}
		case "netdelay", "netloss":
			shape = faults.NetDegrade{
				T:       tr,
				Host:    strings.TrimPrefix(app.URL(), "http://"),
				Latency: spec.Latency,
				Loss:    spec.Loss,
			}
		default:
			return nil, fmt.Errorf("fault shape %q not supported by httpdemo", spec.ShapeKind)
		}
		out = append(out, spec.Bind(shape))
	}
	return out, nil
}
