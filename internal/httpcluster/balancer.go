// Package httpcluster runs the paper's n-tier scenario over real
// loopback HTTP: application servers with bounded worker pools and
// injectable stalls, a web-tier reverse proxy implementing the same
// load-balancing policies and get_endpoint mechanisms as internal/lb —
// but in wall-clock time with goroutine concurrency — a database stub,
// and a closed-loop load generator.
//
// internal/lb is the reference implementation used by the deterministic
// simulation; this package is the deployment-shaped twin that
// demonstrates the identical algorithms and failure modes over real
// sockets. Unlike the simulator, its dispatch path runs concurrently on
// every proxy worker, so it is guarded by two kinds of mutex: the
// balancer's, over what the control plane swaps and the scheduler's
// cursor, and each backend's, over its bookkeeping. Each is held for
// well under a microsecond, four orders of magnitude below the
// millibottlenecks the proxy exists to route around (DESIGN.md §12).
package httpcluster

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"net/url"
	"strings"
	"sync"
	"time"

	"millibalance/internal/obs"
	"millibalance/internal/probe"
)

// Policy selects the lb_value bookkeeping (Algorithms 2–4).
type Policy int

const (
	// PolicyTotalRequest ranks by cumulative dispatched requests.
	PolicyTotalRequest Policy = iota + 1
	// PolicyTotalTraffic ranks by cumulative bytes exchanged.
	PolicyTotalTraffic
	// PolicyCurrentLoad ranks by in-flight requests (the remedy).
	PolicyCurrentLoad
	// PolicyRoundRobin rotates through non-excluded backends — the
	// adaptive control plane's fallback when every backend looks
	// stalled and lb_values carry no signal.
	PolicyRoundRobin
	// PolicyPrequal ranks by asynchronous probe replies (internal/probe):
	// sample d backends, classify hot/cold by probed in-flight quantile,
	// pick the cold one with the lowest estimated latency. Requires probe
	// pools (ProxyConfig.Probe or StartProxy's implicit arming); a
	// detached prequal falls back to in-flight ranking.
	PolicyPrequal
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case PolicyTotalRequest:
		return "total_request"
	case PolicyTotalTraffic:
		return "total_traffic"
	case PolicyCurrentLoad:
		return "current_load"
	case PolicyRoundRobin:
		return "round_robin"
	case PolicyPrequal:
		return "prequal"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// PolicyNames lists the accepted policy names, in enum order — for CLI
// usage strings and ParsePolicy's error.
func PolicyNames() []string {
	return []string{"total_request", "total_traffic", "current_load", "round_robin", "prequal"}
}

// ParsePolicy resolves a policy name.
func ParsePolicy(name string) (Policy, error) {
	switch name {
	case "total_request":
		return PolicyTotalRequest, nil
	case "total_traffic":
		return PolicyTotalTraffic, nil
	case "current_load":
		return PolicyCurrentLoad, nil
	case "round_robin":
		return PolicyRoundRobin, nil
	case "prequal":
		return PolicyPrequal, nil
	default:
		return 0, fmt.Errorf("httpcluster: unknown policy %q (have %s)", name, strings.Join(PolicyNames(), ", "))
	}
}

// Mechanism selects the endpoint-acquisition strategy (Algorithm 1 or
// the remedy).
type Mechanism int

const (
	// MechanismOriginal polls a stalled backend's pool with 100 ms
	// sleeps for up to 300 ms while holding the caller.
	MechanismOriginal Mechanism = iota + 1
	// MechanismModified fails fast and marks the backend Busy.
	MechanismModified
)

// String returns the mechanism name.
func (m Mechanism) String() string {
	switch m {
	case MechanismOriginal:
		return "original_get_endpoint"
	case MechanismModified:
		return "modified_get_endpoint"
	default:
		return fmt.Sprintf("Mechanism(%d)", int(m))
	}
}

// ParseMechanism resolves a mechanism name.
func ParseMechanism(name string) (Mechanism, error) {
	switch name {
	case "original", "original_get_endpoint":
		return MechanismOriginal, nil
	case "modified", "modified_get_endpoint":
		return MechanismModified, nil
	default:
		return 0, fmt.Errorf("httpcluster: unknown mechanism %q", name)
	}
}

// BackendState is the 3-state machine state.
type BackendState int

const (
	// BackendAvailable accepts requests.
	BackendAvailable BackendState = iota + 1
	// BackendBusy recently failed to return an endpoint.
	BackendBusy
	// BackendError is excluded until the recovery interval passes.
	BackendError
)

// Backend is one application server as the proxy's balancer sees it.
// Everything a dispatch reads or writes — the 3-state machine with its
// recovery deadline, the quarantine and probe flags, lb_value, weight,
// the counters and the endpoint tokens — sits under mu. A dispatch
// holds it for a few dozen nanoseconds at a time (DESIGN.md §12).
type Backend struct {
	name     string
	url      string
	target   *url.URL // url parsed once for Proxy.roundTrip; nil when it does not parse
	capacity int      // endpoint pool size

	mu          sync.Mutex
	state       BackendState
	recoverAt   time.Time // Busy/Error re-admission deadline; zero when none is set
	quarantined bool
	probeArmed  bool // one request may pass the quarantine
	probing     bool // that request is in flight
	lbValue     float64
	weight      float64 // 0 reads as weight 1
	dispatched  uint64
	completed   uint64
	traffic     int64
	free        int // idle endpoint-pool tokens
	consecFails int
	firstFail   time.Time
	probeStart  time.Time
	events      *obs.EventLog
	epoch       time.Time
}

// NewBackend returns a backend with the given endpoint pool size.
func NewBackend(name, rawURL string, endpoints int) *Backend {
	if endpoints < 1 {
		endpoints = 1
	}
	// A URL that does not parse fails each request sent to it, as it did
	// when every round trip parsed it anew.
	target, _ := url.Parse(rawURL)
	return &Backend{
		name:     name,
		url:      rawURL,
		target:   target,
		capacity: endpoints,
		state:    BackendAvailable,
		free:     endpoints,
	}
}

// Name returns the backend name.
func (b *Backend) Name() string { return b.name }

// URL returns the backend base URL.
func (b *Backend) URL() string { return b.url }

// LBValue reads the current lb_value.
func (b *Backend) LBValue() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.lbValue
}

// State reads the current state, applying a due Busy/Error recovery.
func (b *Backend) State() BackendState {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.lazyRecoverLocked(time.Now())
	return b.state
}

// recoveryDueLocked reports a Busy/Error state whose recovery deadline
// has passed at now. The caller holds b.mu.
func (b *Backend) recoveryDueLocked(now time.Time) bool {
	return b.state != BackendAvailable && !b.recoverAt.IsZero() && now.After(b.recoverAt)
}

// lazyRecoverLocked applies a due Busy/Error recovery deadline: the
// backend transitions to Available (emitting the state event) and an
// Error recovery clears the failure streak. The caller holds b.mu.
func (b *Backend) lazyRecoverLocked(now time.Time) {
	if !b.recoveryDueLocked(now) {
		return
	}
	if b.state == BackendError {
		b.consecFails = 0
	}
	b.setStateLocked(BackendAvailable, time.Time{})
}

// setStateLocked sets the state and its recovery deadline, emitting a
// state event when the state changed and an event log is attached. The
// caller holds b.mu. The event log has its own lock and never calls
// back into the backend, so appending under b.mu cannot deadlock.
func (b *Backend) setStateLocked(to BackendState, recoverAt time.Time) {
	from := b.state
	b.state, b.recoverAt = to, recoverAt
	if from != to && b.events != nil {
		b.events.Append(obs.Event{
			T:       time.Since(b.epoch),
			Kind:    obs.KindState,
			Backend: b.name,
			From:    stateName(from),
			To:      stateName(to),
		})
	}
}

// schedulable reports whether the scheduler may pick b in the given
// state at now, with its lb_value. A quarantined backend is skipped
// unless a probe is armed through it. A due recovery reads as Available
// without being stored: the next write to the backend (a dispatch, a
// failure, State) applies it and emits its event, so the scheduler,
// which runs under the balancer's lock, never appends to the event log.
func (b *Backend) schedulable(state BackendState, now time.Time) (float64, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := b.state
	if b.recoveryDueLocked(now) {
		st = BackendAvailable
	}
	return b.lbValue, st == state && !b.drainedLocked()
}

// drainedLocked reports a quarantine with no probe armed through it.
// The caller holds b.mu.
func (b *Backend) drainedLocked() bool { return b.quarantined && !b.probeArmed }

// attachEvents wires the backend's state transitions into an event log.
// epoch is the time base events are stamped against.
func (b *Backend) attachEvents(log *obs.EventLog, epoch time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.events = log
	b.epoch = epoch
}

// Dispatched reads the cumulative dispatch count.
func (b *Backend) Dispatched() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.dispatched
}

// Completed reads the cumulative completion count.
func (b *Backend) Completed() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.completed
}

// InFlight reads dispatched-but-uncompleted requests.
func (b *Backend) InFlight() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.inFlightLocked()
}

func (b *Backend) inFlightLocked() int { return int(b.dispatched - b.completed) }

// FreeEndpoints reads the idle endpoint-pool tokens.
func (b *Backend) FreeEndpoints() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.free
}

// weightLocked reads the backend's lbfactor (zero reads as 1). The
// caller holds b.mu.
func (b *Backend) weightLocked() float64 {
	if b.weight == 0 {
		return 1
	}
	return b.weight
}

// Config tunes the balancer; zero values use mod_jk-equivalent
// defaults.
type Config struct {
	// AcquireSleep and AcquireTimeout drive the original mechanism
	// (defaults 100 ms / 300 ms).
	AcquireSleep   time.Duration
	AcquireTimeout time.Duration
	// BusyRecovery re-admits a Busy backend (default 100 ms).
	BusyRecovery time.Duration
	// ErrorThreshold and ErrorAfter gate Error escalation (defaults 3
	// failures spanning 2 s).
	ErrorThreshold int
	ErrorAfter     time.Duration
	// ErrorRecovery re-admits an Error backend (default 10 s).
	ErrorRecovery time.Duration
	// Sweeps and SweepPause bound full re-sweeps per dispatch
	// (defaults 3 / 100 ms).
	Sweeps     int
	SweepPause time.Duration
	// StickySessions enables mod_jk session affinity through
	// AcquireSession.
	StickySessions bool
}

func (c Config) withDefaults() Config {
	if c.AcquireSleep <= 0 {
		c.AcquireSleep = 100 * time.Millisecond
	}
	if c.AcquireTimeout <= 0 {
		c.AcquireTimeout = 300 * time.Millisecond
	}
	if c.BusyRecovery <= 0 {
		c.BusyRecovery = 100 * time.Millisecond
	}
	if c.ErrorThreshold <= 0 {
		c.ErrorThreshold = 3
	}
	if c.ErrorAfter <= 0 {
		c.ErrorAfter = 2 * time.Second
	}
	if c.ErrorRecovery <= 0 {
		c.ErrorRecovery = 10 * time.Second
	}
	if c.Sweeps <= 0 {
		c.Sweeps = 3
	}
	if c.SweepPause <= 0 {
		c.SweepPause = 100 * time.Millisecond
	}
	return c
}

// ErrNoBackend is returned when every sweep failed to acquire an
// endpoint from any backend.
var ErrNoBackend = errors.New("httpcluster: no backend available")

// Balancer is the wall-clock twin of lb.Balancer: same two-level
// scheduler, same 3-state machine, safe for concurrent use. Two kinds
// of mutex guard it (DESIGN.md §12): mu for what the control plane can
// swap at runtime and the scheduler's own state, and each Backend's mu
// for that backend's bookkeeping. Lock order is Balancer.mu before
// Backend.mu. No lock is held across a sleep, a hook call or I/O, and
// Balancer.mu is not held across an event-log append; a backend's
// state event is appended under that backend's mu.
type Balancer struct {
	cfg      Config
	backends []*Backend

	mu        sync.Mutex
	policy    Policy
	mech      Mechanism
	pools     *probe.Pools
	prHandles []probe.Handle // pre-resolved pool handles, aligned with backends
	// poolEpoch converts a wall timestamp into the pools' clock
	// (at = now.Sub(poolEpoch)), so a prequal consult reuses the
	// dispatch path's single time.Now reading instead of paying a
	// second clock read inside the pools.
	poolEpoch time.Time
	reseed    func()
	// wake is closed (and replaced) whenever the mechanism is swapped or
	// a backend is quarantined, so workers sleeping inside the original
	// mechanism's poll loop re-check their abort conditions immediately
	// instead of after the full acquire window.
	wake chan struct{}
	// rr is the round_robin cursor, always in [0, len(backends)).
	rr int
	// prng backs prequal's power-of-d sampling.
	prng    *rand.Rand
	rejects uint64
	// views parks emitDecision's candidate-table scratch between
	// dispatches; the event log copies the table it is handed.
	views []obs.CandidateView

	sessions sessionTable
	onAssign func(*Backend)
	onProbe  func(*Backend, time.Duration, bool)
	events   *obs.EventLog
	epoch    time.Time
	source   string
}

// NewBalancer builds a balancer over the backends.
func NewBalancer(policy Policy, mech Mechanism, backends []*Backend, cfg Config) *Balancer {
	if len(backends) == 0 {
		panic("httpcluster: NewBalancer with no backends")
	}
	copied := make([]*Backend, len(backends))
	copy(copied, backends)
	return &Balancer{
		cfg:      cfg.withDefaults(),
		backends: copied,
		policy:   policy,
		mech:     mech,
		wake:     make(chan struct{}),
		prng:     rand.New(rand.NewPCG(0x7072657175616c, uint64(len(copied)))),
	}
}

// Backends returns the backend list (shared; do not mutate).
func (b *Balancer) Backends() []*Backend { return b.backends }

// SetProbePools wires the prequal policy's probe pools and the reseed
// hook fired after a runtime swap to prequal (typically WallProber's
// Reseed: clear the pools, fire an immediate probe round). Call before
// serving traffic. Without pools a prequal balancer degrades to
// in-flight ranking. Pool handles are resolved here, once, so the
// dispatch path never pays the per-name map lookups again.
func (b *Balancer) SetProbePools(pools *probe.Pools, reseed func()) {
	var handles []probe.Handle
	var epoch time.Time
	if pools != nil {
		handles = make([]probe.Handle, len(b.backends))
		for i, be := range b.backends {
			handles[i] = pools.Handle(be.name)
		}
		// The wall pools' clock is monotonic wall time, so one offset
		// measured here converts every later timestamp exactly.
		epoch = time.Now().Add(-pools.Now())
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.pools, b.reseed, b.prHandles, b.poolEpoch = pools, reseed, handles, epoch
}

// ProbePools exposes the wired pools (nil when probing is off).
func (b *Balancer) ProbePools() *probe.Pools {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.pools
}

// Rejects reports dispatches that failed on every sweep.
func (b *Balancer) Rejects() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.rejects
}

// SetAssignHook registers a hook invoked (without locks held) whenever
// a backend is chosen by the scheduler.
func (b *Balancer) SetAssignHook(hook func(*Backend)) { b.onAssign = hook }

// SetEventLog wires the balancer and every backend into an event log:
// each dispatch decision is recorded with the full candidate table
// (lb_value, state, in-flight, free endpoints) and each 3-state-machine
// transition becomes a state event. source names the emitter; epoch is
// the time base events are stamped against. Call before serving
// traffic.
func (b *Balancer) SetEventLog(log *obs.EventLog, source string, epoch time.Time) {
	b.events = log
	b.epoch = epoch
	b.source = source
	for _, be := range b.backends {
		be.attachEvents(log, epoch)
	}
}

// emitDecision records one dispatch decision with a snapshot of every
// candidate (the same way mod_jk's scheduler reads the worker table).
// The scratch table is taken out under mu and put back after the event
// log has copied it, so no balancer lock is held across Append and its
// hook; a dispatch that finds the scratch taken by a concurrent emit
// makes its own.
func (b *Balancer) emitDecision(chosen *Backend) {
	if b.events == nil {
		return
	}
	b.mu.Lock()
	views, pools := b.views[:0], b.pools
	b.views = nil
	b.mu.Unlock()
	for _, be := range b.backends {
		be.mu.Lock()
		v := obs.CandidateView{
			Name:          be.name,
			LBValue:       be.lbValue,
			State:         stateName(be.state),
			InFlight:      be.inFlightLocked(),
			FreeEndpoints: be.free,
		}
		be.mu.Unlock()
		if pools != nil {
			if smp, ok := pools.Peek(be.name); ok {
				v.ProbeInFlight = smp.InFlight
				v.ProbeLatencyMs = float64(smp.Latency) / float64(time.Millisecond)
				v.ProbeAgeMs = float64(smp.Age) / float64(time.Millisecond)
				v.ProbeFresh = true
			}
		}
		views = append(views, v)
	}
	b.events.Append(obs.Event{
		T:          time.Since(b.epoch),
		Kind:       obs.KindDecision,
		Source:     b.source,
		Chosen:     chosen.name,
		Candidates: views,
	})
	b.mu.Lock()
	b.views = views
	b.mu.Unlock()
}

// triedSet tracks the backends a dispatch already failed on. Backend
// sets are tiny (the paper's testbed has four application servers), so
// a slice with a linear scan beats a map and costs at most one
// allocation per failing dispatch instead of one per map insert — the
// same fix internal/lb carries.
type triedSet []*Backend

func (t triedSet) has(be *Backend) bool {
	for _, x := range t {
		if x == be {
			return true
		}
	}
	return false
}

// Release finishes an acquired dispatch. Done records a completed
// response with its size and returns the endpoint; Fail also returns
// the endpoint but records an upstream failure, feeding the Busy/Error
// ladder instead of proving the backend responsive. The zero Release
// is inert. Passed by value so the proxy hot path allocates nothing.
type Release struct {
	bal          *Balancer
	be           *Backend
	requestBytes int64
}

// Done completes the dispatch with the response size.
func (r Release) Done(responseBytes int64) {
	if r.bal == nil {
		return
	}
	r.bal.noteComplete(r.be, r.requestBytes, responseBytes)
}

// Fail unwinds the dispatch after an upstream failure.
func (r Release) Fail() {
	if r.bal == nil {
		return
	}
	r.bal.noteUpstreamFailure(r.be)
}

// Backend returns the acquired backend (nil for the zero Release).
func (r Release) Backend() *Backend { return r.be }

// Acquire picks a backend and obtains an endpoint, blocking the calling
// goroutine exactly as mod_jk blocks its worker thread. On success it
// returns the backend and a Release the caller must finish exactly once
// (Done with the response size, or Fail on upstream failure).
func (b *Balancer) Acquire(requestBytes int64) (*Backend, Release, error) {
	// tried is allocated lazily on the first acquisition failure, so
	// the happy path — first choice has a free endpoint — allocates
	// nothing at all.
	var tried triedSet
	for sweep := 0; sweep < b.cfg.Sweeps; sweep++ {
		if sweep > 0 {
			time.Sleep(b.cfg.SweepPause)
			tried = tried[:0]
		}
		for len(tried) < len(b.backends) {
			// The policy is read once per choice, so a runtime swap lands
			// between choices and never inside one.
			be, policy := b.choose(tried)
			if be == nil {
				break
			}
			if b.onAssign != nil {
				b.onAssign(be)
			}
			b.emitDecision(be)
			if b.acquireEndpoint(be, policy) {
				return be, Release{bal: b, be: be, requestBytes: requestBytes}, nil
			}
			b.noteFailure(be)
			if tried == nil {
				tried = make(triedSet, 0, len(b.backends))
			}
			tried = append(tried, be)
		}
	}
	b.mu.Lock()
	b.rejects++
	b.mu.Unlock()
	if b.events != nil {
		b.events.Append(obs.Event{T: time.Since(b.epoch), Kind: obs.KindReject, Source: b.source})
	}
	return nil, Release{}, ErrNoBackend
}

// acquireEndpoint runs the configured mechanism against one backend,
// recording the dispatch under policy when an endpoint is claimed.
func (b *Balancer) acquireEndpoint(be *Backend, policy Policy) bool {
	if b.claim(be, policy) {
		return true
	}
	if b.CurrentMechanism() == MechanismModified {
		return false
	}
	// Algorithm 1: poll while retry*sleep < timeout, holding the
	// caller. The backend's state is deliberately left untouched for
	// the whole window — the mechanism-level limitation. With the
	// defaults this checks at 0, 100 and 200 ms and gives up at 300 ms,
	// matching the simulation-time mechanism in internal/lb. Unlike
	// the paper's mod_jk, the abort conditions (a runtime
	// original→modified swap, a quarantine of this backend) are
	// re-checked every iteration and mid-sleep, so the adaptive control
	// plane's remediation frees blocked workers immediately instead of
	// after the rest of the window — the same fix internal/lb shipped
	// for quarantine-aborted polls.
	for retry := 1; time.Duration(retry)*b.cfg.AcquireSleep < b.cfg.AcquireTimeout; retry++ {
		if !b.sleepPoll(be, b.cfg.AcquireSleep) {
			return false
		}
		if b.claim(be, policy) {
			return true
		}
	}
	b.sleepPoll(be, b.cfg.AcquireSleep) // the final sleep before the guard fails
	return false
}

// sleepPoll sleeps one poll interval, returning false early when the
// mechanism is swapped away from original or the backend is drained by
// the control plane (armed probes keep polling — measuring the drained
// backend is their whole purpose). Both conditions and the wake channel
// are read under mu, the lock their writers change them under, so a
// swap or quarantine either shows here or closes the channel waited on.
func (b *Balancer) sleepPoll(be *Backend, d time.Duration) bool {
	deadline := time.Now().Add(d)
	for {
		b.mu.Lock()
		be.mu.Lock()
		abort := b.mech != MechanismOriginal || be.drainedLocked()
		be.mu.Unlock()
		wake := b.wake
		b.mu.Unlock()
		if abort {
			return false
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return true
		}
		t := time.NewTimer(remain)
		select {
		case <-t.C:
		case <-wake:
		}
		t.Stop()
	}
}

// choose picks the lowest-lb_value backend: Available first, then Busy;
// Error, already-tried and quarantined backends (unless probe-armed)
// are excluded. Under round_robin the lb_values are ignored and the
// non-excluded backends are rotated through instead. It returns the
// policy the choice was made under.
func (b *Balancer) choose(tried triedSet) (*Backend, Policy) {
	now := time.Now()
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.policy {
	case PolicyRoundRobin:
		be := b.rotateLocked(BackendAvailable, tried, now)
		if be == nil {
			be = b.rotateLocked(BackendBusy, tried, now)
		}
		return be, b.policy
	case PolicyPrequal:
		if be := b.choosePrequalLocked(tried, now); be != nil {
			return be, b.policy
		}
		// No sampled backend had fresh probe data (or pools are
		// detached): fall through to the lb_value scan, which under
		// prequal bookkeeping ranks by in-flight — the stalled backend
		// with requests piled on it still loses.
	}
	pick := func(state BackendState) *Backend {
		var best *Backend
		bestVal := 0.0
		for _, be := range b.backends {
			if tried.has(be) {
				continue
			}
			val, ok := be.schedulable(state, now)
			if ok && (best == nil || val < bestVal) {
				best, bestVal = be, val
			}
		}
		return best
	}
	if be := pick(BackendAvailable); be != nil {
		return be, b.policy
	}
	return pick(BackendBusy), b.policy
}

// prequalMaskCap bounds the bitmask eligibility encoding; clusters
// beyond it fall back to the lb_value scan (the paper's testbed has
// four backends; Prequal's own deployments sample from tens).
const prequalMaskCap = 64

// choosePrequalLocked runs the hot/cold probe selection over the
// eligible backends (Available first, then Busy — the same two-level
// order as the lb_value scan). Returns nil when the pools are detached
// or no sampled backend holds a fresh probe, leaving the caller to fall
// back. Eligibility is encoded as a bitmask over the stable backend
// list and handed to the pools with pre-resolved handles, so one sweep
// costs a single pools consultation — no per-name map lookups, no
// scratch slices. The caller holds b.mu, which also guards prng.
func (b *Balancer) choosePrequalLocked(tried triedSet, now time.Time) *Backend {
	if b.pools == nil || len(b.backends) > prequalMaskCap {
		return nil
	}
	pick := func(state BackendState) *Backend {
		var mask uint64
		for i, be := range b.backends {
			if tried.has(be) {
				continue
			}
			if _, ok := be.schedulable(state, now); ok {
				mask |= 1 << i
			}
		}
		if mask == 0 {
			return nil
		}
		if i := b.pools.PickHandles(b.prHandles, mask, b.prng, now.Sub(b.poolEpoch)); i >= 0 {
			return b.backends[i]
		}
		return nil
	}
	if be := pick(BackendAvailable); be != nil {
		return be
	}
	return pick(BackendBusy)
}

// rotateLocked implements round_robin over the stable backend list: the
// scan starts at the cursor and the cursor advances to just past the
// chosen backend, so ineligible entries (Busy flicker, a quarantine)
// are skipped without skewing the rotation. Indexing a per-call
// eligible slice with a shared counter — the pre-PR 4 implementation —
// let membership churn re-align the counter and hand consecutive
// dispatches to the same backend. The caller holds b.mu.
func (b *Balancer) rotateLocked(state BackendState, tried triedSet, now time.Time) *Backend {
	n := len(b.backends)
	for i := 0; i < n; i++ {
		be := b.backends[(b.rr+i)%n]
		if tried.has(be) {
			continue
		}
		if _, ok := be.schedulable(state, now); ok {
			b.rr = (b.rr + i + 1) % n
			return be
		}
	}
	return nil
}

// claim takes one endpoint token from be and, when there was one,
// records the dispatch: the backend proves responsive (Available, no
// failure streak), an armed probe starts, and the policy's dispatch-side
// lb_value bookkeeping applies. Reports whether a token was free.
func (b *Balancer) claim(be *Backend, policy Policy) bool {
	be.mu.Lock()
	defer be.mu.Unlock()
	if be.free <= 0 {
		return false
	}
	be.free--
	be.consecFails = 0
	be.setStateLocked(BackendAvailable, time.Time{})
	if be.probeArmed {
		be.probeArmed, be.probing = false, true
		be.probeStart = time.Now()
	}
	be.dispatched++
	switch policy {
	case PolicyTotalRequest, PolicyCurrentLoad, PolicyPrequal:
		// Prequal keeps current_load's in-flight bookkeeping so its
		// fallback ranking (and a later swap away from it) has sane
		// lb_values — the probe pools, not lb_value, drive its choices.
		be.lbValue += 1 / be.weightLocked()
	case PolicyRoundRobin:
		be.lbValue++
	case PolicyTotalTraffic:
		// Accounted on completion, per Algorithm 3.
	}
	return true
}

// unloadLocked applies the in-flight policies' completion-side
// decrement, clamped at zero. The caller holds b.mu.
func (b *Backend) unloadLocked(policy Policy) {
	var unit float64
	switch policy {
	case PolicyCurrentLoad, PolicyPrequal:
		unit = 1 / b.weightLocked()
	case PolicyRoundRobin:
		unit = 1
	default:
		return
	}
	if b.lbValue >= unit {
		b.lbValue -= unit
	} else {
		b.lbValue = 0
	}
}

// noteComplete records a completed response, returns the endpoint token
// and resolves an in-flight quarantine probe.
func (b *Balancer) noteComplete(be *Backend, requestBytes, responseBytes int64) {
	policy := b.CurrentPolicy()
	be.mu.Lock()
	be.free++
	be.completed++
	be.traffic += requestBytes + responseBytes
	be.consecFails = 0
	be.setStateLocked(BackendAvailable, time.Time{})
	probed := be.probing
	be.probing = false
	var rt time.Duration
	if probed {
		rt = time.Since(be.probeStart)
	}
	if policy == PolicyTotalTraffic {
		be.lbValue += float64(requestBytes+responseBytes) / be.weightLocked()
	} else {
		be.unloadLocked(policy)
	}
	be.mu.Unlock()
	if probed && b.onProbe != nil {
		b.onProbe(be, rt, true)
	}
}

// noteFailure feeds the Busy/Error ladder after a failed endpoint
// acquisition.
func (b *Balancer) noteFailure(be *Backend) {
	now := time.Now()
	be.mu.Lock()
	be.lazyRecoverLocked(now)
	probeFailed := be.probeArmed
	be.probeArmed = false
	if be.consecFails == 0 {
		be.firstFail = now
	}
	be.consecFails++
	switch {
	case be.consecFails >= b.cfg.ErrorThreshold && now.Sub(be.firstFail) >= b.cfg.ErrorAfter:
		be.setStateLocked(BackendError, now.Add(b.cfg.ErrorRecovery))
	case be.state == BackendAvailable:
		be.setStateLocked(BackendBusy, now.Add(b.cfg.BusyRecovery))
	}
	be.mu.Unlock()
	if probeFailed && b.onProbe != nil {
		b.onProbe(be, 0, false)
	}
}

// noteUpstreamFailure unwinds a dispatched request whose upstream round
// trip failed (crash, timeout, injected loss): the request is no longer
// in flight — completed counts it, the in-flight policies decrement and
// the endpoint token returns — but unlike noteComplete it does not
// prove the backend responsive. The failure feeds the Busy/Error ladder
// so the scheduler routes around the backend, and an in-flight probe
// reports failure.
func (b *Balancer) noteUpstreamFailure(be *Backend) {
	policy := b.CurrentPolicy()
	be.mu.Lock()
	be.free++
	be.completed++
	be.unloadLocked(policy)
	probeFailed := be.probing
	be.probing = false
	be.mu.Unlock()
	if probeFailed && b.onProbe != nil {
		b.onProbe(be, 0, false)
	}
	b.noteFailure(be)
}
