package httpcluster

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"millibalance/internal/adapt"
	"millibalance/internal/admission"
	"millibalance/internal/h1"
	"millibalance/internal/obs"
	"millibalance/internal/planes"
	"millibalance/internal/probe"
	"millibalance/internal/telemetry"
)

// The servers bound how long a client may take to send a request header
// and how long a kept-alive connection may sit idle. The idle bound is
// longer than the inter-tier transport's (upstreamIdleAge), so the client
// side lets go of a connection first.
const (
	serverReadHeaderTimeout = 10 * time.Second
	serverIdleTimeout       = 120 * time.Second
)

// newServer is the app server's net/http server. The proxy and the DB stub
// are fronts (front.go); the app server stays on net/http because
// proxy_bare's direct arm, the bench's latency reference, goes through it
// (DESIGN.md §16).
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
	handler  http.Handler // the open network fault's gate, then the mux
	workers  chan struct{}
	stallMu  sync.RWMutex
	served   atomic.Uint64
	inflight atomic.Int64
	// db carries the DB queries: a transport this server owns, pooled to
	// Workers connections — that many handlers can be at the DB at once.
	// Close releases it. dbURL is the URL every query sends GET to, parsed
	// once; nil without a DB tier. dbSlots keeps the requests' slots for
	// their queries (*dbSlot).
	db      *UpstreamTransport
	dbURL   *url.URL
	dbSlots sync.Pool
	payload []byte
	wg      sync.WaitGroup

	// extraDelay is fault-injected additional service time per request
	// (nanoseconds), the slow-response degradation shape.
	extraDelay atomic.Int64

	// netFault is the open network fault (SetNetFault); nil when none is.
	netFault atomic.Pointer[netFault]

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
	a.handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if f := a.netFault.Load(); f != nil && !f.pass(w, r) {
			return
		}
		mux.ServeHTTP(w, r)
	})
	a.srv = newServer(a.handler)
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

// SetNetFault opens, or with zero latency and loss clears, a network
// fault on the server's connections — the netdelay and netloss fault
// shapes. Every request, /admin/probe's included, waits latency before it
// takes a worker, and is then lost with probability loss: its connection
// is reset without a reply. The loss draws come from a source seeded by
// seed (0: a fixed default), anew for each fault opened. Requests already
// past the fault are not affected.
func (a *AppServer) SetNetFault(latency time.Duration, loss float64, seed uint64) {
	if latency <= 0 && loss <= 0 {
		a.netFault.Store(nil)
		return
	}
	if seed == 0 {
		seed = 0x6e6574
	}
	a.netFault.Store(&netFault{latency: latency, loss: loss, rng: rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))})
}

// netFault is one open network fault.
type netFault struct {
	latency time.Duration
	loss    float64
	mu      sync.Mutex
	rng     *rand.Rand
}

// pass holds the request for the fault's latency, then draws its loss. It
// reports false for a request that goes no further: one whose client left
// during the wait, or one that is lost, whose connection it resets —
// hijacked, its linger set to 0, closed.
func (f *netFault) pass(w http.ResponseWriter, r *http.Request) bool {
	if f.latency > 0 {
		t := time.NewTimer(f.latency)
		defer t.Stop()
		select {
		case <-t.C:
		case <-r.Context().Done():
			return false
		}
	}
	if f.loss <= 0 {
		return true
	}
	f.mu.Lock()
	lost := f.rng.Float64() < f.loss
	f.mu.Unlock()
	if !lost {
		return true
	}
	c, _, err := http.NewResponseController(w).Hijack()
	if err != nil {
		panic(http.ErrAbortHandler) // net/http closes the connection without a reply
	}
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetLinger(0) // close sends a reset
	}
	_ = c.Close() // the loss
	return false
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
	a.srv = newServer(a.handler)
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
	if a.dbURL != nil && a.cfg.DBQueries > 0 {
		if err := a.queryDB(r.Context()); err != nil {
			http.Error(w, "db error: "+err.Error(), http.StatusBadGateway)
			return
		}
	}
	a.stallGate()
	a.served.Add(1)
	a.recordLatency(time.Since(start))
	// No header: /admin/probe names the server, the proxy names the
	// backend in X-Backend, and a header set here costs net/http a map.
	_, _ = w.Write(a.payload)
}

// dbQueryTimeout bounds one DB query, reply body included.
const dbQueryTimeout = 5 * time.Second

// dbSlot is the slot one request's DB queries run on, and its abort as a
// func value made once, so arming it per request allocates nothing of
// its own.
type dbSlot struct {
	slot  exchangeSlot
	abort func()
}

// queryDB sends the request's DB queries, one after another, and
// discards the replies. The handler's context is net/http's only signal
// that the app's client has gone, so one context.AfterFunc on it per
// request fires the queries' slot: a request whose client has gone — or
// whose server was closed — stops querying at once. A slot whose abort
// did not run goes back to the pool.
func (a *AppServer) queryDB(ctx context.Context) error {
	ds, _ := a.dbSlots.Get().(*dbSlot)
	if ds == nil {
		ds = new(dbSlot)
		ds.abort = ds.slot.abort
	}
	stop := context.AfterFunc(ctx, ds.abort)
	var err error
	for i := 0; i < a.cfg.DBQueries && err == nil; i++ {
		var body io.ReadCloser
		if _, _, body, err = a.db.forward(ctx, &ds.slot, time.Now().Add(dbQueryTimeout), a.dbURL, nil); err == nil {
			_, err = io.Copy(io.Discard, body)
			_ = body.Close() // always nil
		}
	}
	if stop() {
		a.dbSlots.Put(ds)
	}
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
// and returns a small payload. It is a front (front.go), not a net/http
// server, and answers as the net/http mux it replaced answered.
type DBServer struct {
	front     *front
	queryTime time.Duration
	queries   atomic.Uint64
}

// StartDBServer launches the stub on an ephemeral loopback port.
// queryTime is the per-query service time.
func StartDBServer(queryTime time.Duration) (*DBServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("httpcluster: listen: %w", err)
	}
	return serveDB(ln, queryTime), nil
}

// serveDB runs the stub on ln.
func serveDB(ln net.Listener, queryTime time.Duration) *DBServer {
	d := &DBServer{queryTime: queryTime}
	d.front = startFront(ln, d.serve)
	return d
}

// dbReply is the body of every query's reply.
const dbReply = "{\"rows\":1}\n"

// serve answers GET, or any method, at /query after the query time, with
// net/http's head for the reply: Date, Content-Length, the Content-Type
// net/http sniffed from it. Any other path is net/http's 404.
func (d *DBServer) serve(fc *frontConn, h *requestHead) bool {
	if string(h.path) != "/query" {
		fc.writeError(h, http.StatusNotFound, "404 page not found")
		return true
	}
	time.Sleep(d.queryTime)
	d.queries.Add(1)
	bw := fc.bw
	h1.WriteStatusLine(bw, h.minor, http.StatusOK)
	h1.WriteDate(bw)
	h1.WriteLength(bw, int64(len(dbReply)))
	h1.WriteField(bw, "Content-Type", "text/plain; charset=utf-8")
	h1.WriteConnection(bw, h.minor, h.keepAlive)
	bw.WriteString("\r\n")
	if h.method != http.MethodHead {
		bw.WriteString(dbReply)
	}
	return true
}

// URL returns the stub's base URL.
func (d *DBServer) URL() string { return "http://" + d.front.addr() }

// Queries reports served queries.
func (d *DBServer) Queries() uint64 { return d.queries.Load() }

// Close shuts the stub down: the listener, every connection, and the
// queries they carry, which it waits for.
func (d *DBServer) Close() error { return d.front.Close() }

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
	// probes in place of the pooled UpstreamTransport the proxy otherwise
	// builds and owns. It exists for wrappers that observe the hop, such
	// as the bench's traced arm. The caller keeps ownership: Proxy.Close
	// leaves it alone. It learns each attempt's deadline from a context
	// derived from the client connection's, one per attempt; the proxy's
	// own transport takes the deadline directly.
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
// polling a stalled backend). Its front (front.go) serves each client
// connection on a goroutine of its own.
type Proxy struct {
	cfg     ProxyConfig
	bal     *Balancer
	front   *front // started last in StartProxy
	workers chan struct{}
	served  atomic.Uint64
	errors  [numCauses]atomic.Uint64 // error replies by cause
	wg      sync.WaitGroup           // the adaptive ladder's ticker

	// owned carries every request and probe to the app tier when
	// ProxyConfig.Transport is nil, and is nil otherwise.
	owned          *UpstreamTransport
	attemptTimeout time.Duration

	epoch  time.Time
	tracer *obs.Tracer
	events *obs.EventLog
	reqID  atomic.Uint64

	// planes attaches the control planes (planes.go). adaptStop stops
	// the adaptive ladder's ticker; nil when the ladder is not armed.
	planes    planes.Attachment
	adaptC    *adapt.Controller
	adaptStop chan struct{}

	resil   *Resilience
	budget  *retryBudget
	shed    atomic.Uint64
	retries atomic.Uint64

	adm      *admission.Gate
	admPlane *admissionPlane

	sampler *telemetry.WallSampler
	waiting atomic.Int64 // requests blocked on a worker slot

	prober *probe.WallProber
}

// StartProxy launches the proxy over the given backends.
func StartProxy(cfg ProxyConfig, backends []*Backend) (*Proxy, error) {
	if err := planes.ValidateLadder(cfg.Adapt, PolicyNames()); err != nil {
		return nil, fmt.Errorf("httpcluster: %w", err)
	}
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
		workers: make(chan struct{}, cfg.Workers),
		epoch:   time.Now(),

		attemptTimeout: defaultAttemptTimeout,
	}
	p.planes = planes.New(p.now)
	if cfg.Transport == nil {
		// One idle connection per endpoint of the largest backend pool,
		// as mod_jk keeps one connection per endpoint.
		idle := 0
		for _, be := range backends {
			idle = max(idle, be.capacity)
		}
		p.owned = newUpstreamTransport(idle)
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
	p.front = startFront(ln, p.serve)
	return p, nil
}

// URL returns the proxy's base URL.
func (p *Proxy) URL() string { return "http://" + p.front.addr() }

// Balancer exposes the proxy's balancer for inspection.
func (p *Proxy) Balancer() *Balancer { return p.bal }

// Served and Errors report response counters.
func (p *Proxy) Served() uint64 { return p.served.Load() }

// Errors reports requests answered with an error: the sum of
// ErrorCauses.
func (p *Proxy) Errors() uint64 {
	var n uint64
	for i := range p.errors {
		n += p.errors[i].Load()
	}
	return n
}

// ErrorCauses reports the requests answered with an error, by cause.
func (p *Proxy) ErrorCauses() map[string]uint64 {
	out := make(map[string]uint64, numCauses)
	for c := range p.errors {
		out[Cause(c).String()] = p.errors[c].Load()
	}
	return out
}

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

// Close shuts the proxy down: it closes the listener and every client
// connection, cancels the exchanges they carry, and waits for their
// goroutines.
func (p *Proxy) Close() error {
	if p.adaptStop != nil {
		close(p.adaptStop)
	}
	err := p.front.Close()
	p.wg.Wait()
	if p.prober != nil {
		p.prober.Stop()
	}
	p.sampler.Stop()
	if p.owned != nil {
		p.owned.CloseIdleConnections()
	}
	return err
}

// serve answers one request the front read: an admin page, or the
// forwarded reply.
func (p *Proxy) serve(fc *frontConn, h *requestHead) bool {
	if admin := p.adminHandler(h.path); admin != nil {
		fc.serveAdmin(h, admin)
		return true
	}
	return p.handle(fc, h)
}

// handle forwards one request and writes the reply, or an error reply,
// into the connection's writer. It reports false when the reply was cut
// short, which ends the connection.
func (p *Proxy) handle(fc *frontConn, h *requestHead) bool {
	// All span calls are nil-safe no-ops when tracing is disabled. The
	// wall-clock stage mapping mirrors the simulation's: worker wait →
	// web accept-queue, worker occupancy → web thread, AcquireSession →
	// get_endpoint, upstream round trip → app thread.
	start := p.now()
	sp := p.tracer.Start(p.reqID.Add(1), start)
	sp.Enter(obs.StageWebAcceptQueue, start)
	cls := admission.Interactive
	if h.background {
		cls = admission.Background
	}
	if !p.acquireWorker(cls) {
		sp.Exit(obs.StageWebAcceptQueue, p.now())
		p.shed.Add(1)
		if p.events != nil {
			p.events.Append(obs.Event{T: p.now(), Kind: obs.KindShed, Source: "proxy"})
		}
		p.noteError(sp, start, CauseShed)
		fc.writeError(h, http.StatusServiceUnavailable, "proxy saturated")
		return true
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

	reqBytes := max(h.length, 0)
	p.budget.deposit()
	maxAttempts := 1
	if p.resil != nil {
		maxAttempts = 1 + p.resil.MaxRetries
	}
	failStatus := http.StatusServiceUnavailable
	failMsg := ErrNoBackend.Error()
	failCause := CauseNoBackend
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
			be, rel, err = p.bal.AcquireSession(h.session, reqBytes)
		} else {
			// Retries skip stickiness: the pinned backend just failed,
			// so the hop must be free to land elsewhere.
			be, rel, err = p.bal.Acquire(reqBytes)
		}
		sp.Exit(obs.StageGetEndpoint, p.now())
		if err != nil {
			failStatus = http.StatusServiceUnavailable
			failMsg = err.Error()
			failCause = CauseNoBackend
			continue
		}

		sp.Enter(obs.StageAppThread, p.now())
		status, length, body, err := p.roundTrip(fc.ctx, &fc.slot, h.path, be, time.Now().Add(p.attemptTimeout))
		if err != nil {
			sp.Exit(obs.StageAppThread, p.now())
			rel.Fail()
			failStatus = http.StatusBadGateway
			failMsg = "upstream: " + err.Error()
			failCause = upstreamCause(err)
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
			failCause = CauseUpstream5xx
			continue
		}

		n, copyErr := fc.writeReply(h, status, be.Name(), length, body)
		_ = body.Close()
		sp.Exit(obs.StageAppThread, p.now())
		if copyErr != nil {
			// Part of the reply may be out, so the attempt can be neither
			// retried nor answered with an error status; the connection
			// closes instead of ending a truncated reply cleanly.
			rel.Fail()
			p.noteError(sp, start, CauseCutShort)
			return false
		}
		rel.Done(n)
		p.served.Add(1)
		admOK = status < 500
		p.tracer.Finish(sp, p.now(), admOK)
		p.adaptOutcome(start, admOK)
		return true
	}
	p.noteError(sp, start, failCause)
	fc.writeError(h, failStatus, failMsg)
	return true
}

// noteError accounts one request answered with an error: its cause's
// counter, the failed span, the adaptive controller's outcome stream.
// Every request ends in exactly one of noteError and the served counter.
func (p *Proxy) noteError(sp *obs.Span, start time.Duration, cause Cause) {
	p.errors[cause].Add(1)
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
