// Package metrics implements the paper's measurement apparatus: exact
// response-time accounting (average, VLRT share, sub-10 ms share),
// point-in-time response-time series, 50 ms-window VLRT counts, and
// periodic fine-grained samplers for queue lengths, CPU utilization,
// iowait, dirty pages, lb_values and per-backend dispatch distribution.
package metrics

import (
	"time"

	"millibalance/internal/resource"
	"millibalance/internal/sim"
	"millibalance/internal/stats"
	"millibalance/internal/workload"
)

// Window is the paper's fine-grained plotting granularity.
const Window = 50 * time.Millisecond

// Thresholds from the paper's Table I.
const (
	// VLRTThreshold classifies very-long-response-time requests.
	VLRTThreshold = time.Second
	// NormalThreshold classifies "normal" fast requests.
	NormalThreshold = 10 * time.Millisecond
)

// ResponseRecorder accumulates per-request outcomes: exact threshold
// counters for Table I, a log-bucketed histogram for Fig. 4, the
// point-in-time response-time series of Fig. 1/3, and the VLRT-per-window
// series of Fig. 2a/6a/7a.
type ResponseRecorder struct {
	hist        stats.Histogram
	total       uint64
	vlrt        uint64
	normal      uint64
	failures    uint64
	retransmits uint64
	pointInTime *stats.Series
	vlrtSeries  *stats.Series
}

// NewResponseRecorder returns an empty recorder using the standard 50 ms
// window.
func NewResponseRecorder() *ResponseRecorder {
	return NewResponseRecorderHorizon(0)
}

// NewResponseRecorderHorizon is NewResponseRecorder with the series
// buffers preallocated for a run of the given expected duration.
func NewResponseRecorderHorizon(horizon time.Duration) *ResponseRecorder {
	return &ResponseRecorder{
		pointInTime: stats.NewSeriesHorizon(Window, horizon),
		vlrtSeries:  stats.NewSeriesHorizon(Window, horizon),
	}
}

// Record accounts one outcome observed at virtual time now.
func (r *ResponseRecorder) Record(now sim.Time, o workload.Outcome) {
	r.total++
	r.retransmits += uint64(o.Retransmits)
	if !o.OK {
		r.failures++
	}
	rt := o.ResponseTime
	r.hist.Record(rt)
	r.pointInTime.Add(now, stats.DurationToMillis(rt))
	if rt >= VLRTThreshold {
		r.vlrt++
		r.vlrtSeries.Incr(now)
	}
	if rt < NormalThreshold {
		r.normal++
	}
}

// Total reports the number of recorded requests.
func (r *ResponseRecorder) Total() uint64 { return r.total }

// Failures reports requests that finished with an error.
func (r *ResponseRecorder) Failures() uint64 { return r.failures }

// Retransmits reports the total connection retries observed.
func (r *ResponseRecorder) Retransmits() uint64 { return r.retransmits }

// Mean reports the exact mean response time.
func (r *ResponseRecorder) Mean() time.Duration { return r.hist.Mean() }

// Quantile proxies the underlying histogram.
func (r *ResponseRecorder) Quantile(q float64) time.Duration { return r.hist.Quantile(q) }

// VLRTCount reports requests at or above the VLRT threshold.
func (r *ResponseRecorder) VLRTCount() uint64 { return r.vlrt }

// VLRTPercent reports the VLRT share in percent.
func (r *ResponseRecorder) VLRTPercent() float64 { return r.percent(r.vlrt) }

// NormalPercent reports the sub-10 ms share in percent.
func (r *ResponseRecorder) NormalPercent() float64 { return r.percent(r.normal) }

func (r *ResponseRecorder) percent(n uint64) float64 {
	if r.total == 0 {
		return 0
	}
	return 100 * float64(n) / float64(r.total)
}

// Histogram exposes the response-time distribution (Fig. 4).
func (r *ResponseRecorder) Histogram() *stats.Histogram { return &r.hist }

// PointInTime exposes the per-window response-time series in
// milliseconds (Fig. 1 and Fig. 3 plot its per-window means/maxima).
func (r *ResponseRecorder) PointInTime() *stats.Series { return r.pointInTime }

// VLRTWindows exposes the VLRT-count-per-window series (Fig. 2a, 6a,
// 7a).
func (r *ResponseRecorder) VLRTWindows() *stats.Series { return r.vlrtSeries }

// Poller invokes registered sample functions at a fixed virtual-time
// interval, driving the gauge samplers below.
type Poller struct {
	eng      *sim.Engine
	interval sim.Time
	fns      []func(now sim.Time)
	timer    sim.Timer
	started  bool
}

// NewPoller returns a poller with the given sampling interval.
func NewPoller(eng *sim.Engine, interval sim.Time) *Poller {
	if interval <= 0 {
		panic("metrics: NewPoller requires a positive interval")
	}
	return &Poller{eng: eng, interval: interval}
}

// Add registers a sample function.
func (p *Poller) Add(fn func(now sim.Time)) { p.fns = append(p.fns, fn) }

// Start arms the periodic sampling. It may be called once.
func (p *Poller) Start() {
	if p.started {
		panic("metrics: Poller.Start called twice")
	}
	p.started = true
	p.tick()
}

func (p *Poller) tick() {
	p.timer = p.eng.Schedule(p.interval, func() {
		now := p.eng.Now()
		for _, fn := range p.fns {
			fn(now)
		}
		p.tick()
	})
}

// Stop disarms the poller.
func (p *Poller) Stop() {
	p.eng.Stop(p.timer)
	p.timer = sim.Timer{}
}

// CPUUtilSampler converts a CPU's busy-core-time integral into a
// windowed utilization series in percent (Fig. 2c, 5, 6b).
type CPUUtilSampler struct {
	cpu      *resource.CPU
	series   *stats.Series
	lastBusy sim.Time
	lastAt   sim.Time
	online   stats.Online

	// OnSample, when set, receives every (time, utilization) observation
	// exactly as it enters the series — the tap that feeds an online
	// millibottleneck detector the identical stream the offline analysis
	// reads back from Series.
	OnSample func(t sim.Time, util float64)
}

// NewCPUUtilSampler returns a sampler over the CPU using the standard
// window.
func NewCPUUtilSampler(cpu *resource.CPU) *CPUUtilSampler {
	return NewCPUUtilSamplerHorizon(cpu, 0)
}

// NewCPUUtilSamplerHorizon is NewCPUUtilSampler with the series buffer
// preallocated for a run of the given expected duration.
func NewCPUUtilSamplerHorizon(cpu *resource.CPU, horizon time.Duration) *CPUUtilSampler {
	return &CPUUtilSampler{cpu: cpu, series: stats.NewSeriesHorizon(Window, horizon)}
}

// Sample records utilization since the previous sample.
func (s *CPUUtilSampler) Sample(now sim.Time) {
	busy := s.cpu.BusyCoreTime()
	span := now - s.lastAt
	if span <= 0 {
		return
	}
	util := 100 * float64(busy-s.lastBusy) / (float64(span) * float64(s.cpu.Cores()))
	if util > 100 {
		util = 100
	}
	// Attribute the measured span to the window it covers, not to the
	// boundary instant the sample fires at.
	s.series.Add(s.lastAt, util)
	if s.OnSample != nil {
		s.OnSample(s.lastAt, util)
	}
	s.online.Add(util)
	s.lastBusy = busy
	s.lastAt = now
}

// Series exposes the utilization series in percent.
func (s *CPUUtilSampler) Series() *stats.Series { return s.series }

// Average reports the mean sampled utilization in percent (Fig. 5).
func (s *CPUUtilSampler) Average() float64 { return s.online.Mean() }

// GaugeSampler records an arbitrary gauge (queue length, dirty bytes,
// iowait) into a windowed series.
type GaugeSampler struct {
	read   func() float64
	series *stats.Series
}

// NewGaugeSampler returns a sampler over the given read function.
func NewGaugeSampler(read func() float64) *GaugeSampler {
	return NewGaugeSamplerHorizon(read, 0)
}

// NewGaugeSamplerHorizon is NewGaugeSampler with the series buffer
// preallocated for a run of the given expected duration.
func NewGaugeSamplerHorizon(read func() float64, horizon time.Duration) *GaugeSampler {
	if read == nil {
		panic("metrics: NewGaugeSampler with nil read")
	}
	return &GaugeSampler{read: read, series: stats.NewSeriesHorizon(Window, horizon)}
}

// Sample reads the gauge.
func (g *GaugeSampler) Sample(now sim.Time) { g.series.Add(now, g.read()) }

// Series exposes the sampled series.
func (g *GaugeSampler) Series() *stats.Series { return g.series }

// DistributionRecorder counts per-key events per window — the
// workload-distribution plots (Fig. 6c, 7c, 9b, 13b) use it with one key
// per application server, fed by the balancer's dispatch hook. Events
// are counted by the key's position in the list given at construction
// (for a balancer hook: the candidate's index), so the per-dispatch
// path is a slice index, not a string-keyed map lookup; names come back
// in at the reading side (Keys, Series, Share).
type DistributionRecorder struct {
	names   []string        // by slot
	bySlot  []*stats.Series // by slot, nil until the slot's first event
	byKey   map[string]*stats.Series
	keys    []string // first-seen order
	horizon time.Duration
}

// NewDistributionRecorder returns an empty recorder over the given keys,
// each key's series preallocated — when its first event arrives — for a
// run of the given expected duration (zero: grow on demand).
func NewDistributionRecorder(keys []string, horizon time.Duration) *DistributionRecorder {
	return &DistributionRecorder{
		names:   append([]string(nil), keys...),
		bySlot:  make([]*stats.Series, len(keys)),
		byKey:   make(map[string]*stats.Series, len(keys)),
		horizon: horizon,
	}
}

// Incr counts one event at time now for the key at position slot.
func (d *DistributionRecorder) Incr(slot int, now sim.Time) {
	s := d.bySlot[slot]
	if s == nil {
		s = stats.NewSeriesHorizon(Window, d.horizon)
		d.bySlot[slot] = s
		d.byKey[d.names[slot]] = s
		d.keys = append(d.keys, d.names[slot])
	}
	s.Incr(now)
}

// Keys lists the recorded keys in first-seen order.
func (d *DistributionRecorder) Keys() []string {
	out := make([]string, len(d.keys))
	copy(out, d.keys)
	return out
}

// Series returns the series for key (nil when the key never occurred).
func (d *DistributionRecorder) Series(key string) *stats.Series { return d.byKey[key] }

// Share returns the fraction of all events between from and to that
// belong to key. It returns 0 when no events fall in the range.
func (d *DistributionRecorder) Share(key string, from, to sim.Time) float64 {
	var keyCount, total uint64
	for k, s := range d.byKey {
		lo := int(from / s.Width())
		hi := int((to + s.Width() - 1) / s.Width())
		for i := lo; i < hi; i++ {
			c := s.At(i).Count
			total += c
			if k == key {
				keyCount += c
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(keyCount) / float64(total)
}
