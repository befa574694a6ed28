package probe

import (
	"encoding/json"
	"io"
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

// ProbePath is the path every backend serves its Report at.
const ProbePath = "/admin/probe"

// Fetch GETs ProbePath from target i, within deadline, and returns the
// reply's status and body, which the prober reads and closes. The prober
// runs at most one fetch per target at a time, so a fetch may keep state
// per target.
type Fetch func(i int, deadline time.Time) (status int, body io.ReadCloser, err error)

// WallProber polls each target's /admin/probe endpoint from its own
// goroutine pool, never blocking the dispatch path. The probe rate is
// coupled to the query rate: every tick issues one baseline probe plus
// Config.RateCoupling extra probes per query observed since the last
// tick (reading the queries counter the proxy supplies), so a busy
// proxy refreshes its pools faster — Prequal's r_probe coupling.
type WallProber struct {
	pools   *Pools
	targets []string // the pools' keys
	fetch   Fetch
	timeout time.Duration // one probe's deadline, the pools' TTL
	queries func() uint64
	replies [][probeReplyMax]byte // per target

	mu          sync.Mutex
	rr          int
	lastQueries uint64
	outstanding map[int]bool

	stop chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

// probeReplyMax bounds a Report the prober reads; a longer reply is
// dropped.
const probeReplyMax = 512

// NewWallProber returns a prober over the targets, named by their pools'
// keys. queries reports the proxy's cumulative query count for rate
// coupling (nil pins the rate to one probe per tick per round-robin
// turn); fetch carries the probes, each within the pools' TTL. The proxy
// fetches over the path its requests take, so probes ride its pooled
// connections and see the same injected network degradation as requests
// do.
func NewWallProber(pools *Pools, targets []string, queries func() uint64, fetch Fetch) *WallProber {
	if pools == nil || fetch == nil {
		panic("probe: NewWallProber with nil pools or fetch")
	}
	timeout := pools.cfg.TTL
	if timeout <= 0 {
		timeout = 150 * time.Millisecond
	}
	return &WallProber{
		pools:       pools,
		targets:     append([]string(nil), targets...),
		fetch:       fetch,
		timeout:     timeout,
		queries:     queries,
		replies:     make([][probeReplyMax]byte, len(targets)),
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

	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		defer func() {
			w.mu.Lock()
			w.outstanding[i] = false
			w.mu.Unlock()
		}()
		start := time.Now()
		rep, ok := w.get(i, start.Add(w.timeout))
		if !ok {
			return // stale-out is the signal; a failed probe adds nothing
		}
		latency := time.Duration(rep.EWMALatencyMs * float64(time.Millisecond))
		if latency <= 0 {
			latency = time.Since(start) // RTT stands in until the EWMA warms up
		}
		w.pools.Observe(w.targets[i], float64(rep.InFlight), latency)
	}()
}

// get fetches target i's Report into its reply buffer and decodes it.
func (w *WallProber) get(i int, deadline time.Time) (rep Report, ok bool) {
	status, body, err := w.fetch(i, deadline)
	if err != nil {
		return rep, false
	}
	buf := w.replies[i][:]
	n, err := io.ReadFull(body, buf)
	_ = body.Close() // a reply that did not fit is dropped
	if status != http.StatusOK || err != io.ErrUnexpectedEOF && err != io.EOF {
		return rep, false
	}
	return rep, json.Unmarshal(buf[:n], &rep) == nil
}
