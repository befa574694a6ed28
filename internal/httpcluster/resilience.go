package httpcluster

import (
	"sync"
	"time"
)

// Resilience configures the proxy's graceful-degradation path. When nil
// the proxy keeps the paper's baseline behavior — workers block
// indefinitely for a slot, one upstream attempt per request, no
// deadline short of the 10 s default attempt bound — which is exactly
// the behavior the millibottleneck amplification chain exploits. With
// Resilience set, the proxy bounds every stage instead: a shed budget on the
// worker-pool wait (fast-fail 503 instead of goroutine pile-up), a
// per-attempt deadline on backend calls, and bounded
// retry-on-next-backend gated by a global retry budget so a stalled
// backend cannot convert into a retry storm (the paper's TCP
// retransmission cluster, in HTTP form).
type Resilience struct {
	// AttemptTimeout bounds one upstream attempt, round trip and body
	// read. Zero means 2s.
	AttemptTimeout time.Duration
	// MaxRetries bounds additional attempts after the first (each on a
	// freshly selected backend, skipping stickiness). Zero means 2;
	// negative disables retries.
	MaxRetries int
	// RetryBackoff is the base of the exponential backoff between
	// attempts (backoff << (attempt-1)). Zero means 5ms.
	RetryBackoff time.Duration
	// RetryBudget is the token-bucket refill ratio: every first attempt
	// deposits RetryBudget tokens and every retry withdraws one, so
	// sustained retry volume is capped at this fraction of request
	// volume. Zero means 0.2; negative disables the budget (retries
	// bounded only by MaxRetries).
	RetryBudget float64
	// RetryBudgetCap bounds banked tokens, limiting the retry burst a
	// quiet period can save up. Zero means 50.
	RetryBudgetCap float64
	// ShedAfter bounds the wait for a proxy worker slot; requests
	// exceeding it are shed with 503. Zero means 1s. The bound is
	// enforced by the admission plane: when ProxyConfig.Admission is
	// nil, StartProxy arms admission.FixedShed(ShedAfter) — a static
	// gate sized to the worker pool with the same bounded wait. An
	// explicit Admission config takes precedence over ShedAfter.
	ShedAfter time.Duration
}

func (r Resilience) withDefaults() Resilience {
	if r.AttemptTimeout == 0 {
		r.AttemptTimeout = 2 * time.Second
	}
	if r.MaxRetries == 0 {
		r.MaxRetries = 2
	}
	if r.MaxRetries < 0 {
		r.MaxRetries = 0
	}
	if r.RetryBackoff == 0 {
		r.RetryBackoff = 5 * time.Millisecond
	}
	if r.RetryBudget == 0 {
		r.RetryBudget = 0.2
	}
	if r.RetryBudgetCap == 0 {
		r.RetryBudgetCap = 50
	}
	if r.ShedAfter == 0 {
		r.ShedAfter = time.Second
	}
	return r
}

// retryBudget is a token bucket refilled as a fraction of first-attempt
// volume (the Finagle retry-budget shape). It starts full so isolated
// failures always get their retries; only a sustained failure rate
// drains it, at which point retries are bounded to the refill ratio of
// ongoing traffic.
type retryBudget struct {
	mu     sync.Mutex
	tokens float64
	refill float64
	cap    float64
}

func newRetryBudget(refill, cap float64) *retryBudget {
	if refill < 0 {
		return nil // budget disabled
	}
	return &retryBudget{tokens: cap, refill: refill, cap: cap}
}

// deposit credits one first attempt. Nil-safe.
func (rb *retryBudget) deposit() {
	if rb == nil {
		return
	}
	rb.mu.Lock()
	rb.tokens += rb.refill
	if rb.tokens > rb.cap {
		rb.tokens = rb.cap
	}
	rb.mu.Unlock()
}

// withdraw spends one retry token, reporting whether the retry is
// allowed. A nil budget always allows.
func (rb *retryBudget) withdraw() bool {
	if rb == nil {
		return true
	}
	rb.mu.Lock()
	defer rb.mu.Unlock()
	if rb.tokens < 1 {
		return false
	}
	rb.tokens--
	return true
}
