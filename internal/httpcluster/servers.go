package httpcluster

import (
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"millibalance/internal/adapt"
	"millibalance/internal/admission"
	"millibalance/internal/obs"
	"millibalance/internal/probe"
	"millibalance/internal/telemetry"
)

// The three servers bound how long a client may take to send a request
// header and how long a kept-alive connection may sit idle. The idle
// bound is longer than the inter-tier transport's (upstreamIdleAge), so
// the client side lets go of a connection first.
const (
	serverReadHeaderTimeout = 10 * time.Second
	serverIdleTimeout       = 120 * time.Second
)

func newServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: serverReadHeaderTimeout, IdleTimeout: serverIdleTimeout}
}

// AppServerConfig sizes a loopback application server.
type AppServerConfig struct {
	// Name identifies the server.
	Name string
	// Workers bounds concurrently served requests (Tomcat maxThreads).
	Workers int
	// ServiceTime is the nominal per-request service time.
	ServiceTime time.Duration
	// DBURL, when non-empty, makes each request issue DBQueries round
	// trips to the database stub.
	DBURL     string
	DBQueries int
	// ResponseBytes sizes the response payload.
	ResponseBytes int
}

// AppServer is a real HTTP application server whose progress can be
// frozen by Stall — the loopback equivalent of a dirty-page-flush
// millibottleneck. Service time is consumed in slices with a stall gate
// between them, so an open stall window freezes in-flight requests too,
// matching the simulated CPU model.
type AppServer struct {
	cfg      AppServerConfig
	addr     string
	mux      *http.ServeMux
	workers  chan struct{}
	stallMu  sync.RWMutex
	served   atomic.Uint64
	inflight atomic.Int64
	// db carries the DB queries: a transport this server owns, pooled to
	// Workers connections — that many handlers can be at the DB at once.
	// Close releases it. dbURL is the URL every query sends GET to, parsed
	// once; nil without a DB tier.
	db      *UpstreamTransport
	dbURL   *url.URL
	payload []byte
	wg      sync.WaitGroup

	// extraDelay is fault-injected additional service time per request
	// (nanoseconds), the slow-response degradation shape.
	extraDelay atomic.Int64

	// ewmaLat is the request-latency EWMA served at GET /admin/probe,
	// stored as float64 bits so readers and the CAS update loop stay
	// lock-free.
	ewmaLat atomic.Uint64

	// srvMu guards the listener/server pair across Crash/Restart/Close.
	srvMu  sync.Mutex
	ln     net.Listener
	srv    *http.Server
	down   bool
	closed bool
}

// StartAppServer launches the server on an ephemeral loopback port.
func StartAppServer(cfg AppServerConfig) (*AppServer, error) {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.ServiceTime <= 0 {
		cfg.ServiceTime = 2 * time.Millisecond
	}
	if cfg.ResponseBytes <= 0 {
		cfg.ResponseBytes = 2048
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("httpcluster: listen: %w", err)
	}
	a := &AppServer{
		cfg:     cfg,
		addr:    ln.Addr().String(),
		ln:      ln,
		workers: make(chan struct{}, cfg.Workers),
		db:      newUpstreamTransport(cfg.Workers),
		payload: []byte(strings.Repeat("x", cfg.ResponseBytes)),
	}
	if cfg.DBURL != "" && cfg.DBQueries > 0 {
		u, err := url.Parse(cfg.DBURL + "/query")
		if err != nil {
			_ = ln.Close() // never served
			return nil, fmt.Errorf("httpcluster: %s: DB URL: %w", cfg.Name, err)
		}
		a.dbURL = u
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/", a.handle)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	a.adminMux(mux)
	a.mux = mux
	a.srv = newServer(mux)
	a.wg.Add(1)
	go func(srv *http.Server, ln net.Listener) {
		defer a.wg.Done()
		// ErrServerClosed is the normal shutdown path.
		_ = srv.Serve(ln)
	}(a.srv, ln)
	return a, nil
}

// URL returns the server's base URL. The address is stable across
// Crash/Restart cycles.
func (a *AppServer) URL() string { return "http://" + a.addr }

// Name returns the configured name.
func (a *AppServer) Name() string { return a.cfg.Name }

// Served reports completed requests.
func (a *AppServer) Served() uint64 { return a.served.Load() }

// InFlight reports requests currently inside the server.
func (a *AppServer) InFlight() int { return int(a.inflight.Load()) }

// Stall freezes request progress for d: in-flight requests pause at the
// next stall gate and new requests block at the first. It returns
// immediately.
func (a *AppServer) Stall(d time.Duration) {
	a.wg.Add(1)
	go func() {
		defer a.wg.Done()
		a.stallMu.Lock()
		time.Sleep(d)
		a.stallMu.Unlock()
	}()
}

// SetExtraDelay injects (or, with zero, clears) additional per-request
// service time — the slow-response degradation fault shape. The delay
// applies to requests in flight as well, spread over their remaining
// service slices.
func (a *AppServer) SetExtraDelay(d time.Duration) {
	if d < 0 {
		d = 0
	}
	a.extraDelay.Store(int64(d))
}

// ExtraDelay reads the currently injected additional service time.
func (a *AppServer) ExtraDelay() time.Duration {
	return time.Duration(a.extraDelay.Load())
}

// Crash closes the server abruptly — the listener stops accepting and
// every open connection (including the proxy's pooled keep-alives) is
// torn down, so in-flight requests fail the way a process crash fails
// them. The bound address is retained for Restart. A no-op while
// already down or closed.
func (a *AppServer) Crash() {
	a.srvMu.Lock()
	defer a.srvMu.Unlock()
	if a.down || a.closed {
		return
	}
	a.down = true
	_ = a.srv.Close()
}

// Restart re-listens on the original address and serves again — the
// delayed-restart half of the crash fault. A no-op when the server is
// up; an error when the address cannot be rebound or the server was
// Closed for good.
func (a *AppServer) Restart() error {
	a.srvMu.Lock()
	defer a.srvMu.Unlock()
	if a.closed {
		return fmt.Errorf("httpcluster: %s closed", a.cfg.Name)
	}
	if !a.down {
		return nil
	}
	ln, err := net.Listen("tcp", a.addr)
	if err != nil {
		return fmt.Errorf("httpcluster: restart %s: %w", a.cfg.Name, err)
	}
	a.ln = ln
	a.srv = newServer(a.mux)
	a.down = false
	a.wg.Add(1)
	go func(srv *http.Server, ln net.Listener) {
		defer a.wg.Done()
		_ = srv.Serve(ln)
	}(a.srv, ln)
	return nil
}

// Down reports whether the server is crashed (between Crash and a
// successful Restart).
func (a *AppServer) Down() bool {
	a.srvMu.Lock()
	defer a.srvMu.Unlock()
	return a.down
}

// Close shuts the server down permanently.
func (a *AppServer) Close() error {
	a.srvMu.Lock()
	a.closed = true
	var err error
	if !a.down {
		err = a.srv.Close()
		a.down = true
	}
	a.srvMu.Unlock()
	a.wg.Wait()
	a.db.CloseIdleConnections()
	return err
}

// stallGate blocks while a stall window is open.
func (a *AppServer) stallGate() {
	a.stallMu.RLock()
	//lint:ignore SA2001 the lock is a pure gate: acquiring it at all is the wait
	a.stallMu.RUnlock()
}

const serviceSlices = 8

func (a *AppServer) handle(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	a.inflight.Add(1)
	defer a.inflight.Add(-1)
	a.workers <- struct{}{}
	defer func() { <-a.workers }()

	slice := (a.cfg.ServiceTime + a.ExtraDelay()) / serviceSlices
	for i := 0; i < serviceSlices; i++ {
		a.stallGate()
		time.Sleep(slice)
	}
	for i := 0; i < a.cfg.DBQueries && a.dbURL != nil; i++ {
		if err := a.queryDB(r.Context()); err != nil {
			http.Error(w, "db error: "+err.Error(), http.StatusBadGateway)
			return
		}
	}
	a.stallGate()
	a.served.Add(1)
	a.recordLatency(time.Since(start))
	w.Header().Set("X-App-Server", a.cfg.Name)
	_, _ = w.Write(a.payload)
}

// dbQueryTimeout bounds one DB query, reply body included.
const dbQueryTimeout = 5 * time.Second

// queryDB sends one query and discards the reply. It runs under the
// handler's context, so a request whose client has gone — or whose server
// was closed — stops querying.
func (a *AppServer) queryDB(ctx context.Context) error {
	_, body, err := a.db.forward(ctx, time.Now().Add(dbQueryTimeout), a.dbURL, a.dbURL.RequestURI())
	if err != nil {
		return err
	}
	_, err = io.Copy(io.Discard, body)
	_ = body.Close() // always nil
	return err
}

// appEWMAAlpha weights the latest request latency in the server's EWMA.
const appEWMAAlpha = 0.2

// recordLatency folds one completed request's latency into the EWMA
// with a lock-free CAS loop; the first observation seeds it directly.
// Negative samples (a stepped clock) are clamped to zero, and a
// non-finite EWMA state — which would otherwise propagate through every
// subsequent CAS fold, since NaN arithmetic is absorbing — is reseeded
// from the sample instead of folded.
func (a *AppServer) recordLatency(d time.Duration) {
	if d < 0 {
		d = 0
	}
	for {
		old := a.ewmaLat.Load()
		cur := math.Float64frombits(old)
		next := float64(d)
		if old != 0 && isFinite(cur) {
			next = cur + appEWMAAlpha*(float64(d)-cur)
		}
		if a.ewmaLat.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// isFinite reports whether v is a usable float (not NaN, not ±Inf).
func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// EWMALatency reads the request-latency estimate served at
// GET /admin/probe (zero until the first request completes).
func (a *AppServer) EWMALatency() time.Duration {
	return time.Duration(math.Float64frombits(a.ewmaLat.Load()))
}

// DBServer is the database stub: each query burns a fixed service time
// and returns a small payload.
type DBServer struct {
	ln      net.Listener
	srv     *http.Server
	queries atomic.Uint64
	wg      sync.WaitGroup
}

// StartDBServer launches the stub on an ephemeral loopback port.
// queryTime is the per-query service time.
func StartDBServer(queryTime time.Duration) (*DBServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("httpcluster: listen: %w", err)
	}
	d := &DBServer{ln: ln}
	mux := http.NewServeMux()
	mux.HandleFunc("/query", func(w http.ResponseWriter, _ *http.Request) {
		time.Sleep(queryTime)
		d.queries.Add(1)
		fmt.Fprintln(w, `{"rows":1}`)
	})
	d.srv = newServer(mux)
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		_ = d.srv.Serve(ln)
	}()
	return d, nil
}

// URL returns the stub's base URL.
func (d *DBServer) URL() string { return "http://" + d.ln.Addr().String() }

// Queries reports served queries.
func (d *DBServer) Queries() uint64 { return d.queries.Load() }

// Close shuts the stub down.
func (d *DBServer) Close() error {
	err := d.srv.Close()
	d.wg.Wait()
	return err
}

// ProxyConfig sizes the web-tier reverse proxy.
type ProxyConfig struct {
	// Workers bounds concurrently proxied requests (Apache
	// MaxClients); excess requests queue on the semaphore like
	// connections in an accept backlog.
	Workers int
	// Policy, Mechanism and LB configure the balancer.
	Policy    Policy
	Mechanism Mechanism
	LB        Config
	// SpanCapacity, when positive, traces every proxied request into a
	// bounded ring of lifecycle spans served at GET /admin/trace.
	SpanCapacity int
	// EventCapacity, when positive, records balancer decisions, state
	// transitions and rejects into a bounded event log served at
	// GET /admin/events.
	EventCapacity int
	// Adapt, when non-nil, arms the millibottleneck-aware adaptive
	// control plane (internal/adapt): a controller goroutine watches
	// the balancer for stalled backends, quarantines them, hot-swaps
	// policy/mechanism under sustained VLRT or reject pressure, and
	// serves its state at GET /admin/adapt and its decision log at
	// GET /admin/adapt/decisions.
	Adapt *adapt.Config
	// Probe, when non-nil, tunes the asynchronous probing subsystem
	// (internal/probe) behind the prequal policy. Probing also arms
	// implicitly — with defaults — whenever prequal is the configured
	// Policy or appears among the adaptive ladder's swap targets;
	// otherwise the prober, its goroutines and the /admin/probe polling
	// never exist.
	Probe *probe.Config
	// Transport, when non-nil, carries the upstream requests and the
	// probes in place of the pooled transport the proxy otherwise builds
	// and owns (NewUpstreamTransport) — the injection point for
	// internal/faults' network latency/loss RoundTripper. The caller
	// keeps ownership: Proxy.Close leaves it alone. A supplied transport
	// other than an *UpstreamTransport learns each attempt's deadline from
	// a context derived from the client's, one per attempt; the proxy's own
	// transport takes the deadline directly.
	Transport http.RoundTripper
	// Resilience, when non-nil, arms the graceful-degradation path:
	// per-attempt deadlines, bounded budgeted retries and fast-fail
	// load shedding. Nil preserves the paper's baseline blocking
	// behavior. Its bounded-wait shed is implemented by the admission
	// plane: when Admission is nil, a Resilience config arms an
	// admission.FixedShed gate with the same ShedAfter bound.
	Resilience *Resilience
	// Admission, when non-nil, arms the overload-control plane
	// (internal/admission) in front of the worker pool: an adaptive
	// concurrency limiter (static/aimd/gradient), optional CoDel
	// discipline on the pre-dispatch wait, and two-class priority
	// shedding (X-Priority: background requests only get the limit's
	// headroom and never queue). The gate's state streams at
	// GET /admin/admission. Nil together with a nil Resilience keeps
	// the paper's baseline unbounded blocking wait.
	Admission *admission.Config
	// Telemetry, when non-nil, arms the fine-grained resource timeline
	// sampler (internal/telemetry): a background goroutine records
	// proxy worker saturation, accept-queue wait, per-backend
	// in-flight/pool/completion gauges and Go runtime signals at the
	// configured sub-second interval (default 50 ms). The timeline is
	// exported as Prometheus text at GET /metrics and as JSON Lines at
	// GET /admin/timeline. Nil keeps the dispatch hot path free of any
	// sampling work.
	Telemetry *telemetry.Config
}

// Proxy is the web tier: an HTTP server that forwards each request to
// the backend its balancer picks, holding a worker slot for the full
// request lifetime (including any time the original get_endpoint spends
// polling a stalled backend).
type Proxy struct {
	cfg     ProxyConfig
	bal     *Balancer
	ln      net.Listener
	srv     *http.Server
	workers chan struct{}
	served  atomic.Uint64
	errors  atomic.Uint64
	wg      sync.WaitGroup

	// upstream carries every request and probe to the app tier; owned is
	// the same transport when the proxy built it (ProxyConfig.Transport
	// nil) and nil otherwise.
	upstream       http.RoundTripper
	owned          *UpstreamTransport
	attemptTimeout time.Duration

	epoch  time.Time
	tracer *obs.Tracer
	events *obs.EventLog
	reqID  atomic.Uint64
	adaptC *adapt.Controller
	adaptR *adaptRunner

	resil   *Resilience
	budget  *retryBudget
	shed    atomic.Uint64
	retries atomic.Uint64

	adm      *admission.Gate
	admPlane *admissionPlane

	sampler *telemetry.WallSampler
	waiting atomic.Int64 // requests blocked on a worker slot

	pools  *probe.Pools
	prober *probe.WallProber
}

// StartProxy launches the proxy over the given backends.
func StartProxy(cfg ProxyConfig, backends []*Backend) (*Proxy, error) {
	if cfg.Workers < 1 {
		cfg.Workers = 64
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("httpcluster: listen: %w", err)
	}
	p := &Proxy{
		cfg:     cfg,
		bal:     NewBalancer(cfg.Policy, cfg.Mechanism, backends, cfg.LB),
		ln:      ln,
		workers: make(chan struct{}, cfg.Workers),
		epoch:   time.Now(),

		upstream:       cfg.Transport,
		attemptTimeout: defaultAttemptTimeout,
	}
	if p.upstream == nil {
		p.owned = NewUpstreamTransport(backends)
		p.upstream = p.owned
	}
	if cfg.Resilience != nil {
		r := cfg.Resilience.withDefaults()
		p.resil = &r
		p.budget = newRetryBudget(r.RetryBudget, r.RetryBudgetCap)
		p.attemptTimeout = r.AttemptTimeout
	}
	if cfg.SpanCapacity > 0 {
		p.tracer = obs.NewTracer(cfg.SpanCapacity)
	}
	if cfg.EventCapacity > 0 {
		p.events = obs.NewEventLog(cfg.EventCapacity)
		p.bal.SetEventLog(p.events, "proxy", p.epoch)
	}
	acfg := cfg.Admission
	if acfg == nil && p.resil != nil {
		// The historical fixed bounded-wait shed is an admission preset:
		// a static gate sized to the worker pool with a ShedAfter wait.
		acfg = admission.FixedShed(p.resil.ShedAfter)
	}
	if acfg != nil {
		p.armAdmission(*acfg)
	}
	p.armProbing(backends)
	if cfg.Adapt != nil {
		p.armAdapt(*cfg.Adapt)
	}
	if cfg.Telemetry != nil {
		p.armTelemetry(*cfg.Telemetry)
	}
	p.srv = newServer(p.adminHandler(p.handle))
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		_ = p.srv.Serve(ln)
	}()
	return p, nil
}

// URL returns the proxy's base URL.
func (p *Proxy) URL() string { return "http://" + p.ln.Addr().String() }

// Balancer exposes the proxy's balancer for inspection.
func (p *Proxy) Balancer() *Balancer { return p.bal }

// Served and Errors report response counters.
func (p *Proxy) Served() uint64 { return p.served.Load() }

// Errors reports requests answered with an error.
func (p *Proxy) Errors() uint64 { return p.errors.Load() }

// Shed reports requests fast-failed at the worker-pool door.
func (p *Proxy) Shed() uint64 { return p.shed.Load() }

// Retries reports resilience-layer retry hops.
func (p *Proxy) Retries() uint64 { return p.retries.Load() }

// WorkersInFlight reports occupied proxy worker slots.
func (p *Proxy) WorkersInFlight() int { return len(p.workers) }

// Epoch returns the proxy's start time (the zero point of its span and
// event timestamps).
func (p *Proxy) Epoch() time.Time { return p.epoch }

// Tracer exposes the span ring (nil when tracing is disabled).
func (p *Proxy) Tracer() *obs.Tracer { return p.tracer }

// Events exposes the event log (nil when events are disabled).
func (p *Proxy) Events() *obs.EventLog { return p.events }

// now returns the span/event timestamp: wall time since the proxy
// started.
func (p *Proxy) now() time.Duration { return time.Since(p.epoch) }

// Close shuts the proxy down.
func (p *Proxy) Close() error {
	err := p.srv.Close()
	p.wg.Wait()
	if p.adaptR != nil {
		p.adaptR.close()
	}
	if p.prober != nil {
		p.prober.Stop()
	}
	p.sampler.Stop()
	if p.owned != nil {
		p.owned.CloseIdleConnections()
	}
	return err
}

// armAdmission builds the gate and its goroutine wait plane. Limits are
// clamped to the worker pool — the gate must never promise concurrency
// the pool cannot run, or admitted requests would block on the worker
// channel and re-create the pile-up the plane exists to prevent. Called
// from StartProxy before the listener serves traffic.
func (p *Proxy) armAdmission(acfg admission.Config) {
	if acfg.Limit > p.cfg.Workers {
		acfg.Limit = p.cfg.Workers
	}
	if acfg.MaxLimit > p.cfg.Workers {
		acfg.MaxLimit = p.cfg.Workers
	}
	g := admission.NewGate(acfg, p.cfg.Workers)
	g.SetClock(p.now)
	g.SetDropHook(func(now time.Duration, cls admission.Class, r admission.Reason) {
		if p.events != nil {
			p.events.Append(obs.Event{
				T: now, Kind: obs.KindAdmissionDrop, Source: "proxy",
				Reason: r.String(), Class: cls.String(),
			})
		}
	})
	p.adm = g
	p.admPlane = newAdmissionPlane(g, p.now, &p.waiting)
}

// Admission exposes the admission gate (nil unless ProxyConfig.Admission
// or ProxyConfig.Resilience armed it).
func (p *Proxy) Admission() *admission.Gate { return p.adm }

// armProbing builds the probe pools, wires them into the balancer and
// starts the wall prober when this proxy can dispatch through prequal:
// an explicit ProxyConfig.Probe, prequal as the configured policy, or
// prequal anywhere in the adaptive ladder's swap targets. Called from
// StartProxy before armAdapt so a controller-driven swap to prequal
// finds the reseed hook already in place.
func (p *Proxy) armProbing(backends []*Backend) {
	need := p.cfg.Probe != nil || p.cfg.Policy == PolicyPrequal
	if ac := p.cfg.Adapt; ac != nil && (ac.PolicyTarget == "prequal" || ac.FallbackPolicy == "prequal") {
		need = true
	}
	if !need {
		return
	}
	var pcfg probe.Config
	if p.cfg.Probe != nil {
		pcfg = *p.cfg.Probe
	}
	// The pools share the proxy's epoch so probe sample ages line up
	// with span and event timestamps.
	p.pools = probe.NewPools(pcfg, p.now)
	targets := make([]probe.WallTarget, 0, len(backends))
	for _, be := range backends {
		targets = append(targets, probe.WallTarget{Name: be.Name(), URL: be.URL()})
	}
	// Rate-couple the probe loop to the proxy's served counter and carry
	// probes over the same (possibly fault-wrapped) transport as
	// requests, so probes see the network the traffic sees.
	p.prober = probe.NewWallProber(p.pools, targets, p.served.Load, p.upstream)
	p.bal.SetProbePools(p.pools, p.prober.Reseed)
	p.prober.Start()
}

// ProbePools exposes the probing subsystem's pools (nil when probing is
// not armed).
func (p *Proxy) ProbePools() *probe.Pools { return p.pools }

// armTelemetry builds the wall sampler over the proxy's own gauges and
// the balancer's per-backend counters. Called from StartProxy before
// the listener serves traffic.
func (p *Proxy) armTelemetry(tcfg telemetry.Config) {
	s := telemetry.NewWallSampler("proxy", tcfg)
	s.Register("proxy", telemetry.SignalWorkersBusy, func() float64 {
		return float64(len(p.workers))
	})
	s.Register("proxy", telemetry.SignalAcceptWait, func() float64 {
		return float64(p.waiting.Load())
	})
	if p.adm != nil {
		s.Register("proxy", telemetry.SignalAdmitLimit, func() float64 {
			return float64(p.adm.Limit())
		})
		s.Register("proxy", telemetry.SignalAdmitInFlight, func() float64 {
			return float64(p.adm.InFlight())
		})
		s.Register("proxy", telemetry.SignalAdmitQueue, func() float64 {
			return float64(p.adm.Queued())
		})
		s.Register("proxy", telemetry.SignalAdmitDropRate, func() float64 {
			return p.adm.DropRate(p.now())
		})
	}
	for _, be := range p.bal.Backends() {
		be := be
		s.Register(be.Name(), telemetry.SignalInFlight, func() float64 {
			return float64(be.InFlight())
		})
		s.Register(be.Name(), telemetry.SignalPoolFree, func() float64 {
			return float64(be.FreeEndpoints())
		})
		s.Register(be.Name(), telemetry.SignalCompleted, func() float64 {
			return float64(be.Completed())
		})
		if p.pools != nil {
			name := be.Name()
			s.Register(name, telemetry.SignalProbePoolDepth, func() float64 {
				return float64(p.pools.Depth(name))
			})
			s.Register(name, telemetry.SignalProbeStalenessMs, func() float64 {
				age, ok := p.pools.Staleness(name)
				if !ok {
					return -1
				}
				return float64(age) / float64(time.Millisecond)
			})
		}
	}
	p.sampler = s
	s.Start()
}

// Timeline exposes the telemetry timeline (nil when telemetry is
// disabled).
func (p *Proxy) Timeline() *telemetry.Timeline { return p.sampler.Timeline() }

func (p *Proxy) handle(w http.ResponseWriter, r *http.Request) {
	// All span calls are nil-safe no-ops when tracing is disabled. The
	// wall-clock stage mapping mirrors the simulation's: worker wait →
	// web accept-queue, worker occupancy → web thread, AcquireSession →
	// get_endpoint, upstream round trip → app thread.
	start := p.now()
	sp := p.tracer.Start(p.reqID.Add(1), start)
	sp.Enter(obs.StageWebAcceptQueue, start)
	if !p.acquireWorker(classify(r)) {
		sp.Exit(obs.StageWebAcceptQueue, p.now())
		p.shed.Add(1)
		if p.events != nil {
			p.events.Append(obs.Event{T: p.now(), Kind: obs.KindShed, Source: "proxy"})
		}
		p.noteError(sp, start)
		http.Error(w, "proxy saturated", http.StatusServiceUnavailable)
		return
	}
	// Defer order matters: the worker slot (registered second, released
	// first) must be free before the gate release wakes a waiter, so the
	// woken request's worker acquisition never blocks.
	admOK := false
	if p.adm != nil {
		admitAt := p.now()
		defer func() { p.adm.Release(p.now(), p.now()-admitAt, admOK) }()
	}
	defer func() { <-p.workers }()
	sp.Exit(obs.StageWebAcceptQueue, p.now())
	sp.Enter(obs.StageWebThread, p.now())

	reqBytes := r.ContentLength
	if reqBytes < 0 {
		reqBytes = 0
	}
	session := ""
	if cookie, err := r.Cookie("JSESSIONID"); err == nil {
		session = cookie.Value
	}

	p.budget.deposit()
	maxAttempts := 1
	if p.resil != nil {
		maxAttempts = 1 + p.resil.MaxRetries
	}
	failStatus := http.StatusServiceUnavailable
	failMsg := ErrNoBackend.Error()
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			if !p.budget.withdraw() {
				break
			}
			p.retries.Add(1)
			if p.events != nil {
				p.events.Append(obs.Event{T: p.now(), Kind: obs.KindRetry, Source: "proxy"})
			}
			time.Sleep(p.resil.RetryBackoff << (attempt - 1))
		}

		sp.Enter(obs.StageGetEndpoint, p.now())
		var be *Backend
		var rel Release
		var err error
		if attempt == 0 {
			be, rel, err = p.bal.AcquireSession(session, reqBytes)
		} else {
			// Retries skip stickiness: the pinned backend just failed,
			// so the hop must be free to land elsewhere.
			be, rel, err = p.bal.Acquire(reqBytes)
		}
		sp.Exit(obs.StageGetEndpoint, p.now())
		if err != nil {
			failStatus = http.StatusServiceUnavailable
			failMsg = err.Error()
			continue
		}

		sp.Enter(obs.StageAppThread, p.now())
		status, body, err := p.roundTrip(r, be)
		if err != nil {
			sp.Exit(obs.StageAppThread, p.now())
			rel.Fail()
			failStatus = http.StatusBadGateway
			failMsg = "upstream: " + err.Error()
			continue
		}
		if status >= 500 && p.resil != nil && attempt < maxAttempts-1 {
			_, _ = io.Copy(io.Discard, body)
			_ = body.Close()
			sp.Exit(obs.StageAppThread, p.now())
			rel.Fail()
			failStatus = status
			failMsg = fmt.Sprintf("upstream status %d", status)
			if text := http.StatusText(status); text != "" {
				failMsg += " " + text
			}
			continue
		}

		w.Header().Set("X-Backend", be.Name())
		w.WriteHeader(status)
		n, copyErr := io.Copy(w, body)
		_ = body.Close()
		sp.Exit(obs.StageAppThread, p.now())
		if copyErr != nil {
			// The status line is out, so the attempt can be neither
			// retried nor answered with an error status; abort the
			// connection instead of ending a truncated reply cleanly.
			rel.Fail()
			p.noteError(sp, start)
			panic(http.ErrAbortHandler)
		}
		rel.Done(n)
		p.served.Add(1)
		admOK = status < 500
		p.tracer.Finish(sp, p.now(), admOK)
		p.adaptOutcome(start, admOK)
		return
	}
	p.noteError(sp, start)
	http.Error(w, failMsg, failStatus)
}

// noteError accounts one request answered with an error: the counter,
// the failed span, the adaptive controller's outcome stream. Every
// request ends in exactly one of noteError and the served counter.
func (p *Proxy) noteError(sp *obs.Span, start time.Duration) {
	p.errors.Add(1)
	p.tracer.Finish(sp, p.now(), false)
	p.adaptOutcome(start, false)
}

// acquireWorker claims a proxy worker slot. With the admission plane
// armed (explicitly, or via the Resilience fixed-shed delegation) the
// gate decides: its limit never exceeds the pool, so the worker send
// after admission cannot be the blocking wait the plane just bounded.
// Without any plane it blocks indefinitely — the paper's pile-up
// behavior, where every blocked goroutine is a consumed web-tier thread.
func (p *Proxy) acquireWorker(cls admission.Class) bool {
	if p.adm != nil {
		if !p.admPlane.admit(cls) {
			return false
		}
		p.workers <- struct{}{}
		return true
	}
	select {
	case p.workers <- struct{}{}:
		return true
	default:
	}
	// Contended: count the wait so the telemetry accept_wait gauge sees
	// queued requests the way the simulator's accept queue does.
	p.waiting.Add(1)
	defer p.waiting.Add(-1)
	p.workers <- struct{}{}
	return true
}

// adaptOutcome streams one client-observed outcome into the adaptive
// controller; a no-op when the control plane is off.
func (p *Proxy) adaptOutcome(start time.Duration, ok bool) {
	if p.adaptC == nil {
		return
	}
	now := p.now()
	p.adaptC.OnOutcome(now, now-start, ok)
}

// ParseBackendList parses "name=url,name=url" into backends with the
// given endpoint pool size, for CLI use.
func ParseBackendList(spec string, endpoints int) ([]*Backend, error) {
	if spec == "" {
		return nil, fmt.Errorf("httpcluster: empty backend list")
	}
	var out []*Backend
	for _, part := range strings.Split(spec, ",") {
		name, url, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" || url == "" {
			return nil, fmt.Errorf("httpcluster: bad backend %q (want name=url)", part)
		}
		out = append(out, NewBackend(name, url, endpoints))
	}
	return out, nil
}
