package httpcluster

import (
	"context"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"millibalance/internal/stats"
)

// LoadGenConfig sizes a closed-loop client population.
type LoadGenConfig struct {
	// Clients is the number of concurrent closed-loop clients.
	Clients int
	// ThinkTime is the fixed think time between a response and the
	// next request.
	ThinkTime time.Duration
	// Path is the request path.
	Path string
}

// timelineWindow buckets the wall-clock latency timeline.
const timelineWindow = 100 * time.Millisecond

// loadStatsShards fixes the recording shard count — a power of two so
// the client index folds with a modulo the compiler reduces to a mask.
// Eight shards keep even a large closed-loop population off each
// other's locks; each shard carries its own histogram (≈30 KB), so the
// shards never share cache lines either.
const loadStatsShards = 8

// LoadStats collects client-observed outcomes, safe for concurrent use.
// Recording is sharded by client index — every client records into its
// own shard (lock, histogram, timeline, threshold counters) and the
// read-side accessors merge the shards on demand. A merged reading is
// exactly what a single shared recorder would have produced; the only
// change is that concurrent clients stop serializing per request.
type LoadStats struct {
	start time.Time
	// thresholds is sorted ascending; each shard's over counters align
	// with it by index. A sorted slice with an early break replaces the
	// previous per-record map walk: thresholds at or below the observed
	// latency form a prefix.
	thresholds []time.Duration
	shards     [loadStatsShards]loadShard
}

type loadShard struct {
	mu       sync.Mutex
	hist     stats.Histogram
	timeline *stats.Series
	failures uint64
	over     []uint64
}

// NewLoadStats returns an empty collector tracking the given latency
// thresholds, its run clock starting now. RunLoad builds its own; the
// export exists for benchmarks and external drivers that record
// directly.
func NewLoadStats(thresholds ...time.Duration) *LoadStats {
	sorted := make([]time.Duration, len(thresholds))
	copy(sorted, thresholds)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	s := &LoadStats{start: time.Now(), thresholds: sorted}
	for i := range s.shards {
		s.shards[i].timeline = stats.NewSeries(timelineWindow)
		s.shards[i].over = make([]uint64, len(sorted))
	}
	return s
}

// Record notes one request outcome observed by the given client index
// (any non-negative integer; RunLoad passes each goroutine's index).
// Only the client's own shard lock is taken.
func (s *LoadStats) Record(client int, d time.Duration, ok bool) {
	sh := &s.shards[uint(client)%loadStatsShards]
	sh.mu.Lock()
	sh.hist.Record(d)
	sh.timeline.Add(time.Since(s.start), stats.DurationToMillis(d))
	if !ok {
		sh.failures++
	}
	for i, th := range s.thresholds {
		if d < th {
			break
		}
		sh.over[i]++
	}
	sh.mu.Unlock()
}

// mergedHist folds every shard's histogram into out.
func (s *LoadStats) mergedHist(out *stats.Histogram) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		out.Merge(&sh.hist)
		sh.mu.Unlock()
	}
}

// Timeline returns the per-100ms-wall-window latency series in
// milliseconds, for plotting the stall's effect over the run. Call it
// after RunLoad returns; the series is not safe for use concurrently
// with recording.
func (s *LoadStats) Timeline() *stats.Series {
	merged := stats.NewSeries(timelineWindow)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		merged.Merge(sh.timeline)
		sh.mu.Unlock()
	}
	return merged
}

// Total reports the number of completed requests.
func (s *LoadStats) Total() uint64 {
	var n uint64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += sh.hist.Count()
		sh.mu.Unlock()
	}
	return n
}

// Failures reports non-2xx or transport-failed requests.
func (s *LoadStats) Failures() uint64 {
	var n uint64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += sh.failures
		sh.mu.Unlock()
	}
	return n
}

// Mean reports the mean latency.
func (s *LoadStats) Mean() time.Duration {
	var h stats.Histogram
	s.mergedHist(&h)
	return h.Mean()
}

// Quantile reports a latency quantile.
func (s *LoadStats) Quantile(q float64) time.Duration {
	var h stats.Histogram
	s.mergedHist(&h)
	return h.Quantile(q)
}

// Max reports the largest latency.
func (s *LoadStats) Max() time.Duration {
	var h stats.Histogram
	s.mergedHist(&h)
	return h.Max()
}

// CountOver reports how many requests met or exceeded a tracked
// threshold (zero for thresholds the collector was not built with,
// matching the previous map semantics).
func (s *LoadStats) CountOver(th time.Duration) uint64 {
	idx := -1
	for i, t := range s.thresholds {
		if t == th {
			idx = i
			break
		}
	}
	if idx < 0 {
		return 0
	}
	var n uint64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += sh.over[idx]
		sh.mu.Unlock()
	}
	return n
}

// RunLoad drives closed-loop clients against baseURL until the context
// is cancelled, tracking the given latency thresholds.
func RunLoad(ctx context.Context, baseURL string, cfg LoadGenConfig, thresholds ...time.Duration) *LoadStats {
	if cfg.Clients < 1 {
		cfg.Clients = 1
	}
	if cfg.Path == "" {
		cfg.Path = "/"
	}
	out := NewLoadStats(thresholds...)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Clients; i++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			runClient(ctx, client%loadStatsShards, baseURL+cfg.Path, cfg.ThinkTime, out)
		}(i)
	}
	wg.Wait()
	return out
}

// newClientTransport returns the net/http transport of one closed-loop
// client: one keep-alive connection, since it has one request in flight.
// The load generator plays the browser, so it keeps the standard library's
// client; the hops between the tiers use UpstreamTransport.
func newClientTransport() *http.Transport {
	return &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 30 * time.Second, KeepAlive: 30 * time.Second}).DialContext,
		MaxIdleConnsPerHost: 1,
		IdleConnTimeout:     90 * time.Second,
	}
}

// runClient is one closed-loop client: a request, the think time, the
// next request. It keeps the one keep-alive connection a closed loop
// needs on a transport of its own, so clients never contend for a shared
// idle pool, and releases it on return. A request that the end of ctx
// cuts off records no outcome: the run ended it, not the system.
func runClient(ctx context.Context, shard int, url string, think time.Duration, out *LoadStats) {
	transport := newClientTransport()
	defer transport.CloseIdleConnections()
	httpClient := &http.Client{Timeout: 10 * time.Second, Transport: transport}
	// Created by the first wait and reused: the timer has always fired
	// and been drained by the time it is reset.
	var timer *time.Timer
	for ctx.Err() == nil {
		start := time.Now()
		status, err := doRequest(ctx, httpClient, url)
		if err != nil && ctx.Err() != nil {
			return
		}
		out.Record(shard, time.Since(start), err == nil && status < 400)
		if think <= 0 {
			continue
		}
		if timer == nil {
			timer = time.NewTimer(think)
			defer timer.Stop()
		} else {
			timer.Reset(think)
		}
		select {
		case <-ctx.Done():
			return
		case <-timer.C:
		}
	}
}

// doRequest sends one GET and reads the whole reply. It returns the
// status, and an error when the exchange or the body read failed.
func doRequest(ctx context.Context, client *http.Client, url string) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer func() { _ = resp.Body.Close() }()
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, err
}
