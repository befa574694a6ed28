package probe

import (
	"encoding/json"
	"net/http"
	"sync"
	"time"
)

// Report is the GET /admin/probe payload every backend serves: the
// wire format shared by the wall transport and the app servers.
type Report struct {
	// Backend names the reporting server.
	Backend string `json:"backend"`
	// InFlight is the server's requests currently being handled.
	InFlight int64 `json:"in_flight"`
	// EWMALatencyMs is the server's own exponentially weighted moving
	// average of request latencies, in milliseconds; zero until the
	// first request completes.
	EWMALatencyMs float64 `json:"ewma_latency_ms"`
}

// WallTarget is one probed backend in the wall-clock substrate.
type WallTarget struct {
	// Name keys the backend's pool.
	Name string
	// URL is the backend's base URL; the prober GETs URL+"/admin/probe".
	URL string
}

// WallProber polls each target's /admin/probe endpoint from its own
// goroutine pool, never blocking the dispatch path. The probe rate is
// coupled to the query rate: every tick issues one baseline probe plus
// Config.RateCoupling extra probes per query observed since the last
// tick (reading the queries counter the proxy supplies), so a busy
// proxy refreshes its pools faster — Prequal's r_probe coupling.
type WallProber struct {
	pools   *Pools
	targets []WallTarget
	client  *http.Client
	queries func() uint64

	mu          sync.Mutex
	rr          int
	lastQueries uint64
	outstanding map[int]bool

	stop chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

// NewWallProber returns a prober over the targets. queries reports the
// proxy's cumulative query count for rate coupling (nil pins the rate
// to one probe per tick per round-robin turn); transport carries the
// probes. The proxy hands over the transport its requests use, so probes
// ride its pooled connections and experience the same injected network
// degradation as requests do; the prober never closes it. Nil is
// net/http's default transport.
func NewWallProber(pools *Pools, targets []WallTarget, queries func() uint64, transport http.RoundTripper) *WallProber {
	if pools == nil {
		panic("probe: NewWallProber with nil pools")
	}
	copied := make([]WallTarget, len(targets))
	copy(copied, targets)
	timeout := pools.cfg.TTL
	if timeout <= 0 {
		timeout = 150 * time.Millisecond
	}
	return &WallProber{
		pools:       pools,
		targets:     copied,
		client:      &http.Client{Transport: transport, Timeout: timeout},
		queries:     queries,
		outstanding: make(map[int]bool),
		stop:        make(chan struct{}),
	}
}

// Start launches the probe loop.
func (w *WallProber) Start() {
	w.wg.Add(1)
	go w.loop()
}

// Stop halts the loop and waits for in-flight probes to land.
func (w *WallProber) Stop() {
	w.once.Do(func() { close(w.stop) })
	w.wg.Wait()
}

// Reseed clears every pool and fires an immediate full probe round —
// the runtime policy-swap hook: the incoming prequal policy starts
// from live data only.
func (w *WallProber) Reseed() {
	w.pools.Clear()
	for i := range w.targets {
		w.probe(i)
	}
}

func (w *WallProber) loop() {
	defer w.wg.Done()
	ticker := time.NewTicker(w.pools.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-ticker.C:
			w.tick()
		}
	}
}

// tick issues this round's probes round-robin over the targets.
func (w *WallProber) tick() {
	if len(w.targets) == 0 {
		return
	}
	n := 1
	if w.queries != nil {
		w.mu.Lock()
		q := w.queries()
		delta := q - w.lastQueries
		w.lastQueries = q
		w.mu.Unlock()
		n += int(float64(delta) * w.pools.cfg.RateCoupling)
		if limit := 2 * len(w.targets); n > limit {
			n = limit
		}
	}
	for ; n > 0; n-- {
		w.mu.Lock()
		i := w.rr % len(w.targets)
		w.rr++
		w.mu.Unlock()
		w.probe(i)
	}
}

// probe GETs one target's /admin/probe asynchronously; at most one
// probe per target is outstanding, so a hung backend suppresses its own
// probes and its pool goes stale rather than piling up goroutines.
func (w *WallProber) probe(i int) {
	w.mu.Lock()
	if w.outstanding[i] {
		w.mu.Unlock()
		return
	}
	w.outstanding[i] = true
	w.mu.Unlock()

	t := w.targets[i]
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		defer func() {
			w.mu.Lock()
			w.outstanding[i] = false
			w.mu.Unlock()
		}()
		start := time.Now()
		resp, err := w.client.Get(t.URL + "/admin/probe")
		if err != nil {
			return // stale-out is the signal; a failed probe adds nothing
		}
		defer func() { _ = resp.Body.Close() }()
		if resp.StatusCode != http.StatusOK {
			return
		}
		var rep Report
		if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
			return
		}
		latency := time.Duration(rep.EWMALatencyMs * float64(time.Millisecond))
		if latency <= 0 {
			latency = time.Since(start) // RTT stands in until the EWMA warms up
		}
		w.pools.Observe(t.Name, float64(rep.InFlight), latency)
	}()
}
