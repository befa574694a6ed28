// Package probe implements the asynchronous probing subsystem behind
// the prequal policy (Wydrowski et al., "Load is not what you should
// balance", arXiv:2312.10172): backends are probed for their
// requests-in-flight count and an estimated latency *off* the dispatch
// path, and the replies feed per-backend bounded sample pools that the
// policy consults at selection time.
//
// The subsystem decouples signal acquisition from dispatch on purpose.
// The paper's passive policies fail under millibottlenecks precisely
// because the stalled backend stops generating the events they count;
// an asynchronous prober inverts that failure mode — a stalled backend
// stops producing *fresh probes*, its pooled samples age past the
// staleness TTL, and the policy simply stops seeing it as a choice.
//
// Two transports share the pools: SimProber schedules probe RTTs as
// deterministic engine events through internal/netmodel (fully
// replayable), and WallProber polls a GET /admin/probe endpoint over
// real sockets at a rate coupled to the observed query rate.
package probe

import (
	"math/rand/v2"
	"sync"
	"time"
)

// Config tunes the prober and the sample pools. The zero value is
// usable; withDefaults fills each field.
type Config struct {
	// Interval separates probes of the same backend (sim transport) or
	// prober ticks (wall transport). Default 25 ms — several probes per
	// millibottleneck lifetime, so freshness reacts within one stall.
	Interval time.Duration
	// PoolSize bounds the samples kept per backend; overflow removes
	// the worst sample first. Default 16 (the Prequal paper's pool).
	PoolSize int
	// TTL is the staleness horizon: samples older than this are
	// evicted and never consulted. It must sit below the
	// millibottleneck durations of interest (hundreds of ms) so a
	// frozen backend's last pre-stall samples expire mid-stall.
	// Default 150 ms.
	TTL time.Duration
	// ReuseBudget is how many selections may consult one sample before
	// it is dropped — Prequal's per-probe reuse bound, which keeps a
	// slow prober from serving one flattering sample forever.
	// Default 24.
	ReuseBudget int
	// D is how many backends one selection samples (power-of-d).
	// Default 3, clamped to the candidate count.
	D int
	// HotQuantile classifies backends: those whose probed in-flight
	// count sits at or below this quantile of the fresh samples are
	// "cold" (pick by latency); the rest are "hot" (pick by
	// in-flight). Default 0.75.
	HotQuantile float64
	// RateCoupling makes the wall prober's rate follow the query rate:
	// each tick issues one probe plus RateCoupling extra probes per
	// query observed since the previous tick. Default 0.05.
	RateCoupling float64
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 25 * time.Millisecond
	}
	if c.PoolSize <= 0 {
		c.PoolSize = 16
	}
	if c.TTL <= 0 {
		c.TTL = 150 * time.Millisecond
	}
	if c.ReuseBudget <= 0 {
		c.ReuseBudget = 24
	}
	if c.D <= 0 {
		c.D = 3
	}
	if c.HotQuantile <= 0 || c.HotQuantile > 1 {
		c.HotQuantile = 0.75
	}
	if c.RateCoupling <= 0 {
		c.RateCoupling = 0.05
	}
	return c
}

// Sample is one probe observation as the policy sees it.
type Sample struct {
	// InFlight is the backend's reported requests-in-flight.
	InFlight float64
	// Latency is the backend's estimated latency (its self-reported
	// EWMA when available, otherwise the probe RTT).
	Latency time.Duration
	// Age is how long ago the probe completed.
	Age time.Duration
}

// sample is the pooled representation; at is the observation clock
// reading and uses counts selections that consulted it.
type sample struct {
	inFlight float64
	latency  time.Duration
	at       time.Duration
	uses     int
}

// entry is one backend's bounded pool, samples in arrival order
// (freshest last).
type entry struct {
	samples []sample
}

// Pools holds every backend's probe samples behind one mutex. The sim
// transport calls Observe from the engine thread and the policy reads
// on the same thread; the wall transport's prober goroutines and the
// proxy's dispatch path contend for real — hence the lock even though
// the sim never needs it.
type Pools struct {
	mu      sync.Mutex
	cfg     Config
	now     func() time.Duration
	entries map[string]*entry

	// scratch buffers keep Pick allocation-free on the dispatch hot
	// path (guarded by mu like everything else).
	vals []float64
	idx  []int
}

// NewPools returns pools reading the given clock — the sim engine's
// virtual now or a wall-clock monotonic reading; the subsystem never
// consults time.Now itself, which is what keeps the sim transport
// replayable.
func NewPools(cfg Config, now func() time.Duration) *Pools {
	if now == nil {
		panic("probe: NewPools with nil clock")
	}
	return &Pools{cfg: cfg.withDefaults(), now: now, entries: make(map[string]*entry)}
}

// Config returns the effective (default-filled) configuration.
func (p *Pools) Config() Config { return p.cfg }

// Observe records one probe reply for the backend, evicting stale
// samples and — when the pool is full — the worst remaining sample
// (highest in-flight, ties toward highest latency).
func (p *Pools) Observe(name string, inFlight float64, latency time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	e := p.entries[name]
	if e == nil {
		e = &entry{samples: make([]sample, 0, p.cfg.PoolSize+1)}
		p.entries[name] = e
	}
	now := p.now()
	e.evictStale(now, p.cfg.TTL)
	e.samples = append(e.samples, sample{inFlight: inFlight, latency: latency, at: now})
	for len(e.samples) > p.cfg.PoolSize {
		e.removeWorst()
	}
}

// evictStale drops samples older than ttl. Samples arrive in time
// order, so the stale prefix is contiguous.
func (e *entry) evictStale(now, ttl time.Duration) {
	i := 0
	for i < len(e.samples) && now-e.samples[i].at > ttl {
		i++
	}
	if i > 0 {
		e.samples = e.samples[:copy(e.samples, e.samples[i:])]
	}
}

// removeWorst drops the sample reporting the heaviest backend state.
func (e *entry) removeWorst() {
	worst := 0
	for i := 1; i < len(e.samples); i++ {
		s, w := e.samples[i], e.samples[worst]
		if s.inFlight > w.inFlight || (s.inFlight == w.inFlight && s.latency > w.latency) {
			worst = i
		}
	}
	e.samples = append(e.samples[:worst], e.samples[worst+1:]...)
}

// freshest returns the newest non-stale sample, or nil.
func (e *entry) freshest(now, ttl time.Duration) *sample {
	e.evictStale(now, ttl)
	if len(e.samples) == 0 {
		return nil
	}
	return &e.samples[len(e.samples)-1]
}

// consume charges one use to the sample and drops it once the reuse
// budget is spent.
func (e *entry) consume(s *sample, budget int) {
	s.uses++
	if s.uses < budget {
		return
	}
	for i := range e.samples {
		if &e.samples[i] == s {
			e.samples = append(e.samples[:i], e.samples[i+1:]...)
			return
		}
	}
}

// Pick implements the hot/cold selection over the eligible backends:
// mask bit i admits hs[i]. It samples d of them, classifies each sampled
// backend hot or cold against the HotQuantile of the eligible backends'
// fresh in-flight readings, and returns the index into hs of the cold
// backend with the lowest estimated latency — or, when every sampled
// backend is hot, the one with the lowest in-flight. Backends without a
// fresh sample are never chosen; -1 means no sampled backend had fresh
// data and the caller must fall back to its own ranking. Consulted
// samples are charged one reuse each.
//
// Pick never reads cumulative counters — the selection depends only on
// pooled probe replies, so a backend that stops answering probes ages
// out of consideration instead of freezing at a flattering rank.
func (p *Pools) Pick(hs []Handle, mask uint64, rng *rand.Rand) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := p.now()

	// The eligible handles, in order, and the hot/cold threshold over
	// their fresh in-flight readings.
	idx, vals := p.idx[:0], p.vals[:0]
	for i, h := range hs {
		if i >= 64 || mask&(1<<i) == 0 {
			continue
		}
		idx = append(idx, i)
		if h.e != nil {
			if s := h.e.freshest(now, p.cfg.TTL); s != nil {
				vals = append(vals, s.inFlight)
			}
		}
	}
	p.idx, p.vals = idx, vals
	if len(vals) == 0 {
		return -1
	}
	threshold := quantile(vals, p.cfg.HotQuantile)

	d := min(p.cfg.D, len(idx))
	best := -1
	bestCold := false
	var bestLat time.Duration
	var bestIF float64
	for k := 0; k < d; k++ {
		// Partial Fisher–Yates: position k gets a uniform draw from the
		// not-yet-sampled suffix.
		j := k + rng.IntN(len(idx)-k)
		idx[k], idx[j] = idx[j], idx[k]
		i := idx[k]
		e := hs[i].e
		if e == nil {
			continue
		}
		s := e.freshest(now, p.cfg.TTL)
		if s == nil {
			continue
		}
		inF, lat := s.inFlight, s.latency
		e.consume(s, p.cfg.ReuseBudget)
		cold := inF <= threshold
		better := false
		switch {
		case best == -1:
			better = true
		case cold && !bestCold:
			better = true
		case cold == bestCold && cold:
			better = lat < bestLat
		case cold == bestCold:
			better = inF < bestIF
		}
		if better {
			best, bestCold, bestLat, bestIF = i, cold, lat, inF
		}
	}
	return best
}

// quantile returns the nearest-rank q-quantile, sorting vals in place
// (insertion sort: the slice is at most the backend count).
func quantile(vals []float64, q float64) float64 {
	for i := 1; i < len(vals); i++ {
		for j := i; j > 0 && vals[j] < vals[j-1]; j-- {
			vals[j], vals[j-1] = vals[j-1], vals[j]
		}
	}
	r := int(q * float64(len(vals)-1))
	return vals[r]
}

// Peek returns the backend's freshest non-stale sample without charging
// reuse — the read used by decision-log enrichment and gauges.
func (p *Pools) Peek(name string) (Sample, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	e := p.entries[name]
	if e == nil {
		return Sample{}, false
	}
	now := p.now()
	s := e.freshest(now, p.cfg.TTL)
	if s == nil {
		return Sample{}, false
	}
	return Sample{InFlight: s.inFlight, Latency: s.latency, Age: now - s.at}, true
}

// Depth reports how many non-stale samples the backend's pool holds.
func (p *Pools) Depth(name string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	e := p.entries[name]
	if e == nil {
		return 0
	}
	e.evictStale(p.now(), p.cfg.TTL)
	return len(e.samples)
}

// Staleness reports the age of the backend's freshest sample; ok is
// false when the pool holds no fresh sample at all.
func (p *Pools) Staleness(name string) (time.Duration, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	e := p.entries[name]
	if e == nil {
		return 0, false
	}
	now := p.now()
	s := e.freshest(now, p.cfg.TTL)
	if s == nil {
		return 0, false
	}
	return now - s.at, true
}

// Handle is a pre-resolved reference to one backend's sample pool: a
// caller resolves its handles once and hands them to Pick, which then
// looks up no name. Handles stay valid for the life of the Pools — Clear
// truncates pools but never discards their entries.
type Handle struct{ e *entry }

// Handle resolves (creating if needed) the backend's pool entry.
func (p *Pools) Handle(name string) Handle {
	p.mu.Lock()
	defer p.mu.Unlock()
	e := p.entries[name]
	if e == nil {
		e = &entry{samples: make([]sample, 0, p.cfg.PoolSize+1)}
		p.entries[name] = e
	}
	return Handle{e: e}
}

// Clear drops every pooled sample — the reseeding step of a runtime
// policy swap, after which the prober's next round repopulates from
// live probes only.
func (p *Pools) Clear() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, e := range p.entries {
		e.samples = e.samples[:0]
	}
}
