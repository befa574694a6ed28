package admission

import (
	"math"
	"sync/atomic"
	"time"
)

// Concurrency limiters. All three share the same shape: observe() is
// called on every release with the request's response time, folds it
// into atomic state, and occasionally claims an adjustment slot (one
// CAS) to recompute the limit. Everything is lock-free and
// allocation-free so the release path stays as cheap as the admit
// path.

type limiterMode uint8

const (
	limiterStatic limiterMode = iota
	limiterAIMD
	limiterGradient
	limiterNone
)

// ewmaAlpha weights each response-time sample into the gradient
// limiter's moving average — the same 0.2 the proxy's per-backend
// latency EWMAs use, so the two surfaces agree on smoothing.
const ewmaAlpha = 0.2

type limiterState struct {
	mode limiterMode

	// AIMD.
	backoff   float64
	latThresh int64 // nanos
	succ      atomic.Uint64
	cooldown  atomic.Int64 // no further decrease before this time (nanos)

	// Gradient (Vegas-style).
	smooth  float64
	tol     float64
	every   int64         // adjustment spacing, nanos
	ewma    atomic.Uint64 // float64 bits of the RTT EWMA in nanos
	minRTT  atomic.Int64  // no-load RTT floor, nanos; 0 = unset
	nextAdj atomic.Int64  // next adjustment time, nanos
}

func (l *limiterState) init(cfg Config) {
	switch cfg.Limiter {
	case LimiterAIMD:
		l.mode = limiterAIMD
	case LimiterGradient:
		l.mode = limiterGradient
	case LimiterNone:
		l.mode = limiterNone
	default:
		l.mode = limiterStatic
	}
	l.backoff = cfg.AIMDBackoff
	l.latThresh = int64(cfg.AIMDLatency)
	l.smooth = cfg.Smoothing
	l.tol = cfg.RTTTolerance
	l.every = int64(cfg.AdjustEvery)
}

// observe feeds one completed request to the limiter.
func (l *limiterState) observe(g *Gate, now, rtt time.Duration, ok bool) {
	switch l.mode {
	case limiterAIMD:
		l.observeAIMD(g, now, rtt, ok)
	case limiterGradient:
		if rtt > 0 {
			l.foldRTT(rtt)
		}
		l.adjustGradient(g, now)
	}
}

// observeAIMD: additive increase of one slot per limit's worth of
// clean completions, multiplicative decrease (at most once per
// AdjustEvery) on a failure or a response slower than AIMDLatency.
func (l *limiterState) observeAIMD(g *Gate, now, rtt time.Duration, ok bool) {
	if !ok || int64(rtt) > l.latThresh {
		l.succ.Store(0)
		until := l.cooldown.Load()
		if int64(now) >= until && l.cooldown.CompareAndSwap(until, int64(now)+l.every) {
			limit := g.Limit()
			g.setLimit(now, int(float64(limit)*l.backoff), "aimd_backoff")
		}
		return
	}
	limit := g.Limit()
	if s := l.succ.Add(1); s >= uint64(limit) {
		l.succ.Store(0)
		if !g.tight.Load() {
			g.setLimit(now, limit+1, "aimd_increase")
		}
	}
}

// foldRTT CAS-folds one sample into the EWMA and the no-load floor.
// Non-finite intermediate values are dropped, so a poisoned sample
// cannot wedge the control loop.
func (l *limiterState) foldRTT(rtt time.Duration) {
	sample := float64(rtt)
	for {
		old := l.ewma.Load()
		next := sample
		if old != 0 {
			next = (1-ewmaAlpha)*math.Float64frombits(old) + ewmaAlpha*sample
		}
		if math.IsNaN(next) || math.IsInf(next, 0) {
			return
		}
		if l.ewma.CompareAndSwap(old, math.Float64bits(next)) {
			break
		}
	}
	for {
		old := l.minRTT.Load()
		if old != 0 && old <= int64(rtt) {
			return
		}
		if l.minRTT.CompareAndSwap(old, int64(rtt)) {
			return
		}
	}
}

// adjustGradient recomputes the limit at most once per AdjustEvery:
//
//	ratio    = clamp(tolerance × minRTT ⁄ ewmaRTT, 0.5, 1)
//	limit'   = (1−s)·limit + s·(limit·ratio + √limit)
//
// At no-load the ratio saturates at 1 and the √limit queue allowance
// grows the limit; when the observed RTT inflates past tolerance× the
// no-load floor the ratio shrinks it. The floor decays upward slowly —
// and only while uncongested — so it can re-track a shifted baseline
// without forgiving an ongoing stall.
func (l *limiterState) adjustGradient(g *Gate, now time.Duration) {
	next := l.nextAdj.Load()
	if int64(now) < next || !l.nextAdj.CompareAndSwap(next, int64(now)+l.every) {
		return
	}
	ew := math.Float64frombits(l.ewma.Load())
	min := l.minRTT.Load()
	if ew <= 0 || min <= 0 {
		return
	}
	limit := g.Limit()
	ratio := l.tol * float64(min) / ew
	if ratio > 1 {
		ratio = 1
	}
	if ratio < 0.5 {
		ratio = 0.5
	}
	target := float64(limit)*ratio + math.Sqrt(float64(limit))
	n := int(math.Round((1-l.smooth)*float64(limit) + l.smooth*target))
	if g.tight.Load() && n > limit {
		n = limit
	}
	if n != limit {
		g.setLimit(now, n, "gradient")
	}
	if ratio > 0.95 {
		l.minRTT.CompareAndSwap(min, min+min/64)
	}
}
