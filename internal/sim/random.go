package sim

import (
	"math"
	"math/rand/v2"
	"time"
)

// Exponential draws an exponentially distributed duration with the given
// mean. A non-positive mean returns zero.
func (e *Engine) Exponential(mean Time) Time { return Exponential(e.rng, mean) }

// Exponential is Engine.Exponential drawing from rng, for a driver that
// keeps its own source (the wall-clock fault injector).
func Exponential(rng *rand.Rand, mean Time) Time {
	if mean <= 0 {
		return 0
	}
	return Time(rng.ExpFloat64() * float64(mean))
}

// Uniform draws a duration uniformly from [lo, hi). If hi <= lo it
// returns lo.
func (e *Engine) Uniform(lo, hi Time) Time {
	if hi <= lo {
		return lo
	}
	return lo + Time(e.rng.Int64N(int64(hi-lo)))
}

// Normal draws a normally distributed duration with the given mean and
// standard deviation, truncated at zero.
func (e *Engine) Normal(mean, stddev Time) Time {
	d := float64(mean) + e.rng.NormFloat64()*float64(stddev)
	if d < 0 {
		return 0
	}
	return Time(d)
}

// LogNormal draws a log-normally distributed duration whose underlying
// normal has parameters mu and sigma (of log-nanoseconds). It is used for
// heavy-ish service-time tails.
func (e *Engine) LogNormal(mu, sigma float64) Time {
	return Time(math.Exp(mu + sigma*e.rng.NormFloat64()))
}

// Pareto draws a bounded Pareto-distributed duration with minimum xm and
// shape alpha, capped at maxVal. It models rare heavy requests.
func (e *Engine) Pareto(xm Time, alpha float64, maxVal Time) Time {
	if alpha <= 0 || xm <= 0 {
		return xm
	}
	u := e.rng.Float64()
	// Avoid division by zero at u == 0 (Float64 returns [0,1)).
	if u == 0 {
		u = math.SmallestNonzeroFloat64
	}
	d := Time(float64(xm) / math.Pow(u, 1/alpha))
	if maxVal > 0 && d > maxVal {
		return maxVal
	}
	return d
}

// Bernoulli reports true with probability p.
func (e *Engine) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return e.rng.Float64() < p
}

// PickWeighted returns an index in [0, len(weights)) drawn proportionally
// to the weights. Negative weights count as zero; if all weights are zero
// it returns 0.
func (e *Engine) PickWeighted(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return 0
	}
	x := e.rng.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// Jitter returns d scaled by a uniform factor in [1-frac, 1+frac].
func (e *Engine) Jitter(d Time, frac float64) Time { return Jitter(e.rng, d, frac) }

// Jitter is Engine.Jitter drawing from rng. A zero frac or d draws
// nothing.
func Jitter(rng *rand.Rand, d Time, frac float64) Time {
	if frac <= 0 || d <= 0 {
		return d
	}
	f := 1 + (rng.Float64()*2-1)*frac
	if f < 0 {
		f = 0
	}
	return Time(f * float64(d))
}

// Seconds converts a float count of seconds to a virtual duration.
func Seconds(s float64) Time { return Time(s * float64(time.Second)) }

// ToSeconds converts a virtual duration to float seconds.
func ToSeconds(t Time) float64 { return float64(t) / float64(time.Second) }
