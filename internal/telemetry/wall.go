package telemetry

import (
	"math"
	"runtime/metrics"
	"time"
)

// runtime/metrics names sampled by the wall sampler. The pause metric
// moved under /sched in newer runtimes; both spellings are probed at
// construction and whichever the runtime supports is used.
const (
	metricGoroutines = "/sched/goroutines:goroutines"
	metricHeapBytes  = "/memory/classes/heap/objects:bytes"
	metricPausesNew  = "/sched/pauses/total/gc:seconds"
	metricPausesOld  = "/gc/pauses:seconds"
)

// WallSampler samples real process signals on a background goroutine at
// the timeline interval: runtime signals through runtime/metrics plus
// any gauges the host registers (per-backend in-flight, pool occupancy,
// worker saturation). Points are stamped with the host's clock, so wall
// timelines share the zero of the host's other records the way sim
// timelines share virtual time zero.
type WallSampler struct {
	tl      *Timeline
	sampler *Sampler

	runtimeSamples []metrics.Sample
	grTrack        *Track // goroutine count
	heapTrack      *Track // heap object bytes
	pauseTrack     *Track // cumulative GC pause seconds (histogram estimate)
	pauseIdx       int    // index into runtimeSamples, -1 when unsupported

	clock func() time.Duration
	stop  chan struct{}
	done  chan struct{}
}

// NewWallSampler returns a sampler for the process, with the runtime
// signals registered under the given source name, stamping points with
// the host's clock now. Start must be called to begin sampling.
func NewWallSampler(source string, cfg Config, now func() time.Duration) *WallSampler {
	tl := NewTimeline(cfg)
	w := &WallSampler{
		tl:       tl,
		sampler:  NewSampler(tl),
		pauseIdx: -1,
		clock:    now,
	}
	w.grTrack = tl.AddTrack(source, SignalGoroutines)
	w.heapTrack = tl.AddTrack(source, SignalHeapBytes)
	w.runtimeSamples = []metrics.Sample{
		{Name: metricGoroutines},
		{Name: metricHeapBytes},
	}
	if name, ok := supportedPauseMetric(); ok {
		w.pauseTrack = tl.AddTrack(source, SignalGCPauseTotal)
		w.runtimeSamples = append(w.runtimeSamples, metrics.Sample{Name: name})
		w.pauseIdx = len(w.runtimeSamples) - 1
	}
	return w
}

// supportedPauseMetric probes which GC pause histogram this runtime
// exposes.
func supportedPauseMetric() (string, bool) {
	for _, name := range []string{metricPausesNew, metricPausesOld} {
		probe := []metrics.Sample{{Name: name}}
		metrics.Read(probe)
		if probe[0].Value.Kind() == metrics.KindFloat64Histogram {
			return name, true
		}
	}
	return "", false
}

// Register adds a host gauge sampled alongside the runtime signals. It
// must be called before Start. Nil-safe.
func (w *WallSampler) Register(source, signal string, read func() float64) {
	if w == nil {
		return
	}
	w.sampler.Register(source, signal, read)
}

// Timeline exposes the timeline being fed. Nil-safe.
func (w *WallSampler) Timeline() *Timeline {
	if w == nil {
		return nil
	}
	return w.tl
}

// Start launches the sampling goroutine. It may be called once.
func (w *WallSampler) Start() {
	if w == nil {
		return
	}
	if w.stop != nil {
		panic("telemetry: WallSampler.Start called twice")
	}
	w.stop = make(chan struct{})
	w.done = make(chan struct{})
	go w.run()
}

// Stop halts sampling and waits for the goroutine to exit. Safe to call
// once after Start; nil-safe and a no-op when never started.
func (w *WallSampler) Stop() {
	if w == nil || w.stop == nil {
		return
	}
	close(w.stop)
	<-w.done
	w.stop = nil
}

func (w *WallSampler) run() {
	defer close(w.done)
	ticker := time.NewTicker(w.tl.Interval())
	defer ticker.Stop()
	w.sampleOnce() // an immediate first point, so short runs still export
	for {
		select {
		case <-w.stop:
			return
		case <-ticker.C:
			w.sampleOnce()
		}
	}
}

func (w *WallSampler) sampleOnce() {
	at := w.clock()
	metrics.Read(w.runtimeSamples)
	w.grTrack.Append(at, float64(w.runtimeSamples[0].Value.Uint64()))
	w.heapTrack.Append(at, float64(w.runtimeSamples[1].Value.Uint64()))
	if w.pauseIdx >= 0 {
		w.pauseTrack.Append(at, histogramSum(w.runtimeSamples[w.pauseIdx].Value.Float64Histogram()))
	}
	w.sampler.Sample(at)
}

// histogramSum estimates the cumulative sum of a runtime/metrics
// histogram from bucket midpoints — the standard estimate for GC pause
// totals, since the runtime exports pause durations only as a
// distribution. Unbounded edge buckets fall back to their finite edge.
func histogramSum(h *metrics.Float64Histogram) float64 {
	if h == nil {
		return 0
	}
	var sum float64
	for i, count := range h.Counts {
		if count == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		mid := (lo + hi) / 2
		switch {
		case math.IsInf(lo, -1):
			mid = hi
		case math.IsInf(hi, 1):
			mid = lo
		}
		sum += mid * float64(count)
	}
	return sum
}
