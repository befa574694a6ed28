package httpcluster

import (
	"math"
	"sync"
	"time"
)

// ReferenceBalancer is the pre-atomic-snapshot dispatch path — global
// balancer mutex, per-backend mutex taken on every read, buffered
// channel as the endpoint pool — preserved verbatim from the mutex
// implementation it replaced. It exists for two jobs:
//
//   - parity oracle: the test suite feeds identical deterministic op
//     scripts to a Balancer and a ReferenceBalancer and asserts the
//     decision sequences are byte-identical, proving the lock-free
//     rewrite changed the cost of the algorithm and not the algorithm;
//   - regression baseline: TestDispatchBeatsMutexReference times both
//     paths in the same process on the same hardware, so the "≥20%
//     faster than the mutex path" gate holds on any machine instead of
//     comparing against another host's recorded nanoseconds.
//
// It implements the four deterministic policies (prequal's probe
// sampling is intentionally random and so has no byte-parity promise)
// and the modified (fail-fast) mechanism; the original mechanism's poll
// loop sleeps on wall time and is exercised through the real Balancer's
// own tests instead.
type ReferenceBalancer struct {
	cfg      Config
	backends []*refBackend

	mu      sync.Mutex
	policy  Policy
	rejects uint64
	rr      uint64
}

// refBackend mirrors the old Backend layout: one mutex over every hot
// field, endpoints as a buffered channel.
type refBackend struct {
	name      string
	endpoints chan struct{}

	mu          sync.Mutex
	lbValue     float64
	weight      float64
	state       BackendState
	recoverAt   time.Time
	consecFails int
	firstFail   time.Time
	dispatched  uint64
	completed   uint64
	traffic     int64
	quarantined bool
}

// NewReferenceBalancer builds the frozen mutex balancer over named
// backends, each with the given endpoint pool size.
func NewReferenceBalancer(policy Policy, names []string, endpoints int, cfg Config) *ReferenceBalancer {
	if endpoints < 1 {
		endpoints = 1
	}
	rb := &ReferenceBalancer{cfg: cfg.withDefaults(), policy: policy}
	for _, n := range names {
		be := &refBackend{name: n, endpoints: make(chan struct{}, endpoints), state: BackendAvailable}
		for i := 0; i < endpoints; i++ {
			be.endpoints <- struct{}{}
		}
		rb.backends = append(rb.backends, be)
	}
	return rb
}

// ReferenceRelease finishes a ReferenceBalancer acquisition; the zero
// value is inert.
type ReferenceRelease struct {
	rb           *ReferenceBalancer
	be           *refBackend
	requestBytes int64
}

// Done completes the dispatch with the response size.
func (r ReferenceRelease) Done(responseBytes int64) {
	if r.rb == nil {
		return
	}
	r.rb.noteComplete(r.be, r.requestBytes, responseBytes)
	r.be.endpoints <- struct{}{}
}

// Fail unwinds the dispatch after an upstream failure.
func (r ReferenceRelease) Fail() {
	if r.rb == nil {
		return
	}
	r.rb.noteUpstreamFailure(r.be)
	r.be.endpoints <- struct{}{}
}

// Rejects reports dispatches that failed on every backend.
func (rb *ReferenceBalancer) Rejects() uint64 {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	return rb.rejects
}

// SetPolicy swaps the policy, reseeding lb_values from the preserved
// counters exactly as Balancer.SetPolicy does.
func (rb *ReferenceBalancer) SetPolicy(p Policy) {
	rb.mu.Lock()
	rb.policy = p
	for _, be := range rb.backends {
		be.mu.Lock()
		switch p {
		case PolicyTotalRequest:
			be.lbValue = float64(be.dispatched) / be.weightLocked()
		case PolicyTotalTraffic:
			be.lbValue = float64(be.traffic) / be.weightLocked()
		case PolicyCurrentLoad, PolicyPrequal:
			be.lbValue = float64(be.dispatched-be.completed) / be.weightLocked()
		case PolicyRoundRobin:
			be.lbValue = float64(be.dispatched - be.completed)
		}
		be.mu.Unlock()
	}
	rb.mu.Unlock()
}

// SetQuarantine drains or re-admits a backend by name, with mod_jk
// recovery seeding on re-admission under cumulative policies.
func (rb *ReferenceBalancer) SetQuarantine(name string, on bool) bool {
	rb.mu.Lock()
	policy := rb.policy
	rb.mu.Unlock()
	for _, be := range rb.backends {
		if be.name != name {
			continue
		}
		be.mu.Lock()
		be.quarantined = on
		if !on && (policy == PolicyTotalRequest || policy == PolicyTotalTraffic) {
			seed := be.lbValue
			be.mu.Unlock()
			for _, o := range rb.backends {
				if o == be {
					continue
				}
				o.mu.Lock()
				if o.lbValue > seed {
					seed = o.lbValue
				}
				o.mu.Unlock()
			}
			be.mu.Lock()
			if seed > be.lbValue {
				be.lbValue = seed
			}
		}
		be.mu.Unlock()
		return true
	}
	return false
}

// SetWeight assigns the named backend's lbfactor. Non-finite values
// mean 1, matching Backend.SetWeight — the one post-freeze fix applied
// to this file, because the parity oracle requires both implementations
// to sanitize inputs identically (internal/check
// testdata/weight-nan.script).
func (rb *ReferenceBalancer) SetWeight(name string, w float64) {
	if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
		w = 1
	}
	for _, be := range rb.backends {
		if be.name == name {
			be.mu.Lock()
			be.weight = w
			be.mu.Unlock()
			return
		}
	}
}

func (be *refBackend) weightLocked() float64 {
	if be.weight == 0 {
		return 1
	}
	return be.weight
}

func (be *refBackend) lazyRecover(now time.Time) {
	if be.state != BackendAvailable && !be.recoverAt.IsZero() && now.After(be.recoverAt) {
		if be.state == BackendError {
			be.consecFails = 0
		}
		be.state = BackendAvailable
		be.recoverAt = time.Time{}
	}
}

func (rb *ReferenceBalancer) currentPolicy() Policy {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	return rb.policy
}

// Acquire picks a backend and claims an endpoint with the fail-fast
// mechanism, sweeping like Balancer.Acquire but without the inter-sweep
// sleeps (the parity scripts and benchmarks never want wall-clock
// pauses; a full failed sweep is a reject).
func (rb *ReferenceBalancer) Acquire(requestBytes int64) (string, ReferenceRelease, error) {
	var tried []*refBackend
	for len(tried) < len(rb.backends) {
		be := rb.choose(tried)
		if be == nil {
			break
		}
		select {
		case <-be.endpoints:
			rb.noteDispatch(be)
			return be.name, ReferenceRelease{rb: rb, be: be, requestBytes: requestBytes}, nil
		default:
		}
		rb.noteFailure(be)
		if tried == nil {
			tried = make([]*refBackend, 0, len(rb.backends))
		}
		tried = append(tried, be)
	}
	rb.mu.Lock()
	rb.rejects++
	rb.mu.Unlock()
	return "", ReferenceRelease{}, ErrNoBackend
}

func refTried(tried []*refBackend, be *refBackend) bool {
	for _, x := range tried {
		if x == be {
			return true
		}
	}
	return false
}

func (rb *ReferenceBalancer) choose(tried []*refBackend) *refBackend {
	now := time.Now()
	policy := rb.currentPolicy()
	if policy == PolicyRoundRobin {
		if be := rb.rotate(BackendAvailable, tried, now); be != nil {
			return be
		}
		return rb.rotate(BackendBusy, tried, now)
	}
	pick := func(state BackendState) *refBackend {
		var best *refBackend
		bestVal := 0.0
		for _, be := range rb.backends {
			if refTried(tried, be) {
				continue
			}
			be.mu.Lock()
			be.lazyRecover(now)
			st, val := be.state, be.lbValue
			skip := be.quarantined
			be.mu.Unlock()
			if st != state || skip {
				continue
			}
			if best == nil || val < bestVal {
				best, bestVal = be, val
			}
		}
		return best
	}
	if be := pick(BackendAvailable); be != nil {
		return be
	}
	return pick(BackendBusy)
}

func (rb *ReferenceBalancer) rotate(state BackendState, tried []*refBackend, now time.Time) *refBackend {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	n := uint64(len(rb.backends))
	for i := uint64(0); i < n; i++ {
		be := rb.backends[(rb.rr+i)%n]
		if refTried(tried, be) {
			continue
		}
		be.mu.Lock()
		be.lazyRecover(now)
		ok := be.state == state && !be.quarantined
		be.mu.Unlock()
		if ok {
			rb.rr = (rb.rr + i + 1) % n
			return be
		}
	}
	return nil
}

func (rb *ReferenceBalancer) noteDispatch(be *refBackend) {
	policy := rb.currentPolicy()
	be.mu.Lock()
	defer be.mu.Unlock()
	be.consecFails = 0
	if be.state != BackendAvailable {
		be.state = BackendAvailable
		be.recoverAt = time.Time{}
	}
	be.dispatched++
	switch policy {
	case PolicyTotalRequest, PolicyCurrentLoad, PolicyPrequal:
		be.lbValue += 1 / be.weightLocked()
	case PolicyRoundRobin:
		be.lbValue++
	case PolicyTotalTraffic:
	}
}

func (rb *ReferenceBalancer) noteComplete(be *refBackend, requestBytes, responseBytes int64) {
	policy := rb.currentPolicy()
	be.mu.Lock()
	be.completed++
	be.traffic += requestBytes + responseBytes
	be.consecFails = 0
	if be.state != BackendAvailable {
		be.state = BackendAvailable
		be.recoverAt = time.Time{}
	}
	switch policy {
	case PolicyTotalTraffic:
		be.lbValue += float64(requestBytes+responseBytes) / be.weightLocked()
	case PolicyCurrentLoad, PolicyPrequal:
		if unit := 1 / be.weightLocked(); be.lbValue >= unit {
			be.lbValue -= unit
		} else {
			be.lbValue = 0
		}
	case PolicyRoundRobin:
		if be.lbValue >= 1 {
			be.lbValue--
		} else {
			be.lbValue = 0
		}
	}
	be.mu.Unlock()
}

func (rb *ReferenceBalancer) noteFailure(be *refBackend) {
	now := time.Now()
	be.mu.Lock()
	if be.consecFails == 0 {
		be.firstFail = now
	}
	be.consecFails++
	escalated := false
	if be.consecFails >= rb.cfg.ErrorThreshold && now.Sub(be.firstFail) >= rb.cfg.ErrorAfter {
		be.state = BackendError
		be.recoverAt = now.Add(rb.cfg.ErrorRecovery)
		escalated = true
	}
	if !escalated && be.state == BackendAvailable {
		be.state = BackendBusy
		be.recoverAt = now.Add(rb.cfg.BusyRecovery)
	}
	be.mu.Unlock()
}

// RefView is a read-only copy of one refBackend's bookkeeping. The
// differential harness (internal/check) compares it field-by-field
// against the lock-free Balancer's accessors after replaying the same
// op script through both implementations.
type RefView struct {
	Name          string
	Dispatched    uint64
	Completed     uint64
	Traffic       int64
	LBValue       float64
	State         BackendState
	Quarantined   bool
	FreeEndpoints int
}

// Views snapshots every backend's bookkeeping at now, applying due
// Busy/Error recoveries first — the same lazy resolution choose()
// performs — so the states compare against Balancer.State(), which
// also resolves due recoveries on read.
func (rb *ReferenceBalancer) Views(now time.Time) []RefView {
	out := make([]RefView, 0, len(rb.backends))
	for _, be := range rb.backends {
		be.mu.Lock()
		be.lazyRecover(now)
		out = append(out, RefView{
			Name:          be.name,
			Dispatched:    be.dispatched,
			Completed:     be.completed,
			Traffic:       be.traffic,
			LBValue:       be.lbValue,
			State:         be.state,
			Quarantined:   be.quarantined,
			FreeEndpoints: len(be.endpoints),
		})
		be.mu.Unlock()
	}
	return out
}

func (rb *ReferenceBalancer) noteUpstreamFailure(be *refBackend) {
	policy := rb.currentPolicy()
	be.mu.Lock()
	be.completed++
	switch policy {
	case PolicyCurrentLoad, PolicyPrequal:
		if unit := 1 / be.weightLocked(); be.lbValue >= unit {
			be.lbValue -= unit
		} else {
			be.lbValue = 0
		}
	case PolicyRoundRobin:
		if be.lbValue >= 1 {
			be.lbValue--
		} else {
			be.lbValue = 0
		}
	}
	be.mu.Unlock()
	rb.noteFailure(be)
}
