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
// every proxy worker, so the hot path is built contention-free: backend
// hot fields are atomics (hot.go), the balancer configuration is an
// atomically-swapped immutable snapshot, and a full ranking sweep takes
// no lock at all (DESIGN.md §12).
package httpcluster

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
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
// The fields every dispatch touches — the packed state word, lb_value,
// weight, the dispatch/completion/traffic counters and the endpoint
// token count — are atomics read and (on the happy path) written
// without any lock; the mutex guards only the slow paths: state
// transitions with their event emission, the failure-streak window,
// and the quarantine-probe lifecycle.
type Backend struct {
	name   string
	url    string
	target *url.URL  // url parsed once for Proxy.roundTrip; nil when it does not parse
	base   time.Time // time base the packed recovery deadline is encoded against

	free        atomic.Int64  // idle endpoint-pool tokens
	capacity    int           // endpoint pool size
	word        atomic.Uint64 // packed state | quarantined | probeArmed | probing | recoverAt (hot.go)
	lbValue     atomicFloat
	weight      atomicFloat // 0 bits read as weight 1
	dispatched  atomic.Uint64
	completed   atomic.Uint64
	traffic     atomic.Int64
	consecFails atomic.Int32

	mu         sync.Mutex // slow path: transitions, probe lifecycle, events
	firstFail  time.Time
	probeStart time.Time
	events     *obs.EventLog
	epoch      time.Time
}

// NewBackend returns a backend with the given endpoint pool size.
func NewBackend(name, rawURL string, endpoints int) *Backend {
	if endpoints < 1 {
		endpoints = 1
	}
	// A URL that does not parse fails each request sent to it, as it did
	// when every round trip parsed it anew.
	target, _ := url.Parse(rawURL)
	b := &Backend{
		name:     name,
		url:      rawURL,
		target:   target,
		base:     time.Now(),
		capacity: endpoints,
	}
	b.free.Store(int64(endpoints))
	b.word.Store(hotAvailable)
	return b
}

// Name returns the backend name.
func (b *Backend) Name() string { return b.name }

// URL returns the backend base URL.
func (b *Backend) URL() string { return b.url }

// LBValue reads the current lb_value (lock-free).
func (b *Backend) LBValue() float64 { return b.lbValue.Load() }

// State reads the current state, applying lazy Busy/Error recovery.
// When no recovery is due this is a single atomic load; a due recovery
// takes the slow path so the stored word and the event log advance.
func (b *Backend) State() BackendState {
	now := time.Now()
	st, due := effectiveState(b.word.Load(), nanosSince(b.base, now))
	if !due {
		return st
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.lazyRecoverLocked(now)
	return hotState(b.word.Load())
}

// lazyRecoverLocked applies a due Busy/Error recovery deadline: the
// stored word transitions to Available (emitting the state event) and
// an Error recovery clears the failure streak. The caller holds b.mu.
func (b *Backend) lazyRecoverLocked(now time.Time) {
	w := b.word.Load()
	if _, due := effectiveState(w, nanosSince(b.base, now)); !due {
		return
	}
	if hotState(w) == BackendError {
		b.consecFails.Store(0)
	}
	b.applyLocked(w, withRecover(withState(w, BackendAvailable), 0))
}

// attachEvents wires the backend's state transitions into an event log.
// epoch is the time base events are stamped against.
func (b *Backend) attachEvents(log *obs.EventLog, epoch time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.events = log
	b.epoch = epoch
}

// applyLocked publishes a new hot word, emitting a state event when the
// packed state changed and an event log is attached. The caller holds
// b.mu — the only writers of the word — so load-modify-store sequences
// built on it are race-free without CAS. The event log has its own lock
// and never calls back into the backend, so appending under b.mu cannot
// deadlock.
func (b *Backend) applyLocked(old, new uint64) {
	if old == new {
		return
	}
	b.word.Store(new)
	from, to := hotState(old), hotState(new)
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

// Dispatched reads the cumulative dispatch count (lock-free).
func (b *Backend) Dispatched() uint64 { return b.dispatched.Load() }

// Completed reads the cumulative completion count (lock-free).
func (b *Backend) Completed() uint64 { return b.completed.Load() }

// InFlight reads dispatched-but-uncompleted requests (lock-free; the
// two counters are read completion-first so a concurrent dispatch can
// only under-count, never produce a negative in-flight).
func (b *Backend) InFlight() int {
	completed := b.completed.Load()
	dispatched := b.dispatched.Load()
	if dispatched < completed {
		return 0
	}
	return int(dispatched - completed)
}

// FreeEndpoints reads the idle endpoint-pool tokens.
func (b *Backend) FreeEndpoints() int { return int(b.free.Load()) }

// acquireToken claims one endpoint-pool token; false when the pool is
// exhausted. The pool is an atomic count, not a channel — nothing ever
// blocks on it (the original mechanism polls with sleeps), and the
// channel lock was the last per-dispatch lock on the happy path.
func (b *Backend) acquireToken() bool {
	for {
		chkYield("acquireToken")
		f := b.free.Load()
		if f <= 0 {
			return false
		}
		if b.free.CompareAndSwap(f, f-1) {
			return true
		}
	}
}

// releaseToken returns one endpoint-pool token.
func (b *Backend) releaseToken() {
	chkYield("releaseToken")
	b.free.Add(1)
}

// weightVal reads the backend's lbfactor (zero bits read as 1).
func (b *Backend) weightVal() float64 {
	if bits := b.weight.bits.Load(); bits != 0 {
		return b.weight.Load()
	}
	return 1
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

// balSnapshot is the balancer's immutable hot-swap surface: everything
// a dispatch reads that the adaptive control plane can change at
// runtime. Swaps publish a fresh snapshot through an atomic pointer
// (never mutate one in place), so a dispatch sees one coherent
// {policy, mechanism, pools, wake} generation with a single load.
type balSnapshot struct {
	policy    Policy
	mech      Mechanism
	pools     *probe.Pools
	prHandles []probe.Handle // pre-resolved pool handles, aligned with Balancer.backends
	// poolEpoch converts a wall timestamp into the pools' clock
	// (at = now.Sub(poolEpoch)), so a prequal consult reuses the
	// dispatch path's single time.Now reading instead of paying a
	// second clock read inside the pools.
	poolEpoch time.Time
	reseed    func()
	// wake is closed (and a successor published) whenever the mechanism
	// is swapped or a backend is quarantined, so workers sleeping inside
	// the original mechanism's poll loop re-check their abort conditions
	// immediately instead of after the full acquire window.
	wake chan struct{}
}

// Balancer is the wall-clock twin of lb.Balancer: same two-level
// scheduler, same 3-state machine, safe for concurrent use. The
// dispatch path is contention-free: it loads the config snapshot once,
// ranks backends over their atomic hot fields, and claims an endpoint
// token by CAS — no mutex anywhere on the happy path. The writer mutex
// serializes only control-plane reconfiguration (runtime.go).
type Balancer struct {
	cfg      Config
	backends []*Backend

	snap    atomic.Pointer[balSnapshot]
	rejects atomic.Uint64
	// rr is the round_robin cursor. The cursor always holds a value in
	// [0, len(backends)) — it is reduced modulo n on every advance, never
	// free-running, so the skip/repeat bias a raw counter develops at the
	// 2^64 wrap (whenever n does not divide 2^64) cannot arise. Advances
	// are CAS: two racing workers may still pick the same backend (the
	// loser's advance is simply discarded), but a racing pair can no
	// longer rewind the cursor by overwriting a fresher advance with a
	// staler one, which re-served the same backend to later dispatches.
	rr sync_rrCursor

	// prng backs prequal's power-of-d sampling: a shared rand over a
	// lock-free counter-hash source (hot.go), so concurrent dispatchers
	// never serialize on it.
	prng *rand.Rand

	writerMu sync.Mutex // serializes snapshot swaps and multi-backend writer paths
	sessions sessionTable
	onAssign func(*Backend)
	onProbe  func(*Backend, time.Duration, bool)
	events   *obs.EventLog
	epoch    time.Time
	source   string
	// viewBuf parks emitDecision's candidate-table scratch between
	// dispatches. A dispatcher takes it (leaving nil) and puts it back
	// when the event log has copied the table; one that finds the slot
	// empty because another dispatch is mid-emit makes its own, and
	// whichever is stored last stays. No lock, and no allocation unless
	// two emits overlap.
	viewBuf atomic.Pointer[[]obs.CandidateView]
}

// sync_rrCursor wraps the round-robin cursor so its semantics —
// modulo-reduced, CAS-advanced, duplicate picks under contention
// tolerated but rewinds not — are documented in one place (the rr
// field comment above rotate).
type sync_rrCursor struct{ v atomic.Uint64 }

// NewBalancer builds a balancer over the backends.
func NewBalancer(policy Policy, mech Mechanism, backends []*Backend, cfg Config) *Balancer {
	if len(backends) == 0 {
		panic("httpcluster: NewBalancer with no backends")
	}
	copied := make([]*Backend, len(backends))
	copy(copied, backends)
	b := &Balancer{cfg: cfg.withDefaults(), backends: copied}
	b.prng = rand.New(&splitmixSource{seed: 0x7072657175616c + uint64(len(copied))})
	b.snap.Store(&balSnapshot{policy: policy, mech: mech, wake: make(chan struct{})})
	return b
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
	b.writerMu.Lock()
	defer b.writerMu.Unlock()
	next := *b.snap.Load()
	next.pools = pools
	next.reseed = reseed
	next.prHandles = nil
	next.poolEpoch = time.Time{}
	if pools != nil {
		next.prHandles = make([]probe.Handle, len(b.backends))
		for i, be := range b.backends {
			next.prHandles[i] = pools.Handle(be.name)
		}
		// The wall pools' clock is monotonic wall time, so one offset
		// measured here converts every later timestamp exactly.
		next.poolEpoch = time.Now().Add(-pools.Now())
	}
	b.snap.Store(&next)
}

// ProbePools exposes the wired pools (nil when probing is off).
func (b *Balancer) ProbePools() *probe.Pools { return b.snap.Load().pools }

// Rejects reports dispatches that failed on every sweep (lock-free).
func (b *Balancer) Rejects() uint64 { return b.rejects.Load() }

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
// candidate, read lock-free from the backends' atomic hot fields (the
// same way mod_jk's scheduler reads the worker table).
func (b *Balancer) emitDecision(snap *balSnapshot, chosen *Backend) {
	if b.events == nil {
		return
	}
	buf := b.viewBuf.Swap(nil)
	if buf == nil {
		buf = new([]obs.CandidateView)
	}
	views := (*buf)[:0]
	for _, be := range b.backends {
		v := obs.CandidateView{
			Name:          be.name,
			LBValue:       be.lbValue.Load(),
			State:         stateName(hotState(be.word.Load())),
			InFlight:      be.InFlight(),
			FreeEndpoints: be.FreeEndpoints(),
		}
		if snap.pools != nil {
			if smp, ok := snap.pools.Peek(be.name); ok {
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
	*buf = views
	b.viewBuf.Store(buf)
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
	r.be.releaseToken()
}

// Fail unwinds the dispatch after an upstream failure.
func (r Release) Fail() {
	if r.bal == nil {
		return
	}
	r.bal.noteUpstreamFailure(r.be)
	r.be.releaseToken()
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
			// One snapshot load per choice: the whole selection sees a
			// coherent {policy, pools} generation, re-read between
			// choices so a runtime swap lands mid-dispatch exactly as
			// it did when the accessors took the balancer lock.
			chkYield("acquire.snap")
			snap := b.snap.Load()
			be := b.choose(snap, tried)
			if be == nil {
				break
			}
			if b.onAssign != nil {
				b.onAssign(be)
			}
			b.emitDecision(snap, be)
			chkYield("acquire.claim")
			if b.acquireEndpoint(be) {
				b.noteDispatch(be, snap.policy)
				return be, Release{bal: b, be: be, requestBytes: requestBytes}, nil
			}
			b.noteFailure(be)
			if tried == nil {
				tried = make(triedSet, 0, len(b.backends))
			}
			tried = append(tried, be)
		}
	}
	b.rejects.Add(1)
	if b.events != nil {
		b.events.Append(obs.Event{T: time.Since(b.epoch), Kind: obs.KindReject, Source: b.source})
	}
	return nil, Release{}, ErrNoBackend
}

// acquireEndpoint runs the configured mechanism against one backend.
func (b *Balancer) acquireEndpoint(be *Backend) bool {
	if be.acquireToken() {
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
		if be.acquireToken() {
			return true
		}
	}
	b.sleepPoll(be, b.cfg.AcquireSleep) // the final sleep before the guard fails
	return false
}

// sleepPoll sleeps one poll interval, returning false early when the
// mechanism is swapped away from original or the backend is drained by
// the control plane (armed probes keep polling — measuring the drained
// backend is their whole purpose). Each iteration loads a fresh
// snapshot: the live mechanism and the live wake channel.
func (b *Balancer) sleepPoll(be *Backend, d time.Duration) bool {
	deadline := time.Now().Add(d)
	for {
		snap := b.snap.Load()
		if snap.mech != MechanismOriginal {
			return false
		}
		w := be.word.Load()
		if w&hotQuarantined != 0 && w&hotProbeArmed == 0 {
			return false
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return true
		}
		t := time.NewTimer(remain)
		select {
		case <-t.C:
		case <-snap.wake:
		}
		t.Stop()
	}
}

// choose picks the lowest-lb_value backend: Available first, then Busy;
// Error, already-tried and quarantined backends (unless probe-armed)
// are excluded. Under round_robin the lb_values are ignored and the
// non-excluded backends are rotated through instead. The whole sweep is
// lock-free: per backend it is one atomic word load plus one lb_value
// load. A due Busy/Error recovery is *read* as Available here without
// being stored — the next slow-path touch of that backend (dispatch,
// failure, State) applies the transition and emits its event.
func (b *Balancer) choose(snap *balSnapshot, tried triedSet) *Backend {
	now := time.Now()
	policy := snap.policy
	if policy == PolicyRoundRobin {
		if be := b.rotate(BackendAvailable, tried, now); be != nil {
			return be
		}
		return b.rotate(BackendBusy, tried, now)
	}
	if policy == PolicyPrequal {
		if be := b.choosePrequal(snap, tried, now); be != nil {
			return be
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
			w := be.word.Load()
			st, _ := effectiveState(w, nanosSince(be.base, now))
			if st != state || (w&hotQuarantined != 0 && w&hotProbeArmed == 0) {
				continue
			}
			val := be.lbValue.Load()
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

// prequalMaskCap bounds the bitmask eligibility encoding; clusters
// beyond it fall back to the lb_value scan (the paper's testbed has
// four backends; Prequal's own deployments sample from tens).
const prequalMaskCap = 64

// choosePrequal runs the hot/cold probe selection over the eligible
// backends (Available first, then Busy — the same two-level order as
// the lb_value scan). Returns nil when the pools are detached or no
// sampled backend holds a fresh probe, leaving the caller to fall back.
// Eligibility is encoded as a bitmask over the stable backend list and
// handed to the pools with pre-resolved handles, so one sweep costs a
// single pools consultation — no per-name map lookups, no scratch
// slices, no balancer lock.
func (b *Balancer) choosePrequal(snap *balSnapshot, tried triedSet, now time.Time) *Backend {
	if snap.pools == nil || len(b.backends) > prequalMaskCap {
		return nil
	}
	pick := func(state BackendState) *Backend {
		var mask uint64
		for i, be := range b.backends {
			if tried.has(be) {
				continue
			}
			w := be.word.Load()
			st, _ := effectiveState(w, nanosSince(be.base, now))
			if st != state || (w&hotQuarantined != 0 && w&hotProbeArmed == 0) {
				continue
			}
			mask |= 1 << i
		}
		if mask == 0 {
			return nil
		}
		if i := snap.pools.PickHandles(snap.prHandles, mask, b.prng, now.Sub(snap.poolEpoch)); i >= 0 {
			return b.backends[i]
		}
		return nil
	}
	if be := pick(BackendAvailable); be != nil {
		return be
	}
	return pick(BackendBusy)
}

// rotate implements round_robin over the stable backend list: the scan
// starts at the cursor and the cursor advances to just past the chosen
// backend, so ineligible entries (Busy flicker, a quarantine) are
// skipped without skewing the rotation. Indexing a per-call eligible
// slice with a shared counter — the pre-PR 4 implementation — let
// membership churn re-align the counter and hand consecutive
// dispatches to the same backend. The advance is a modulo-reduced CAS
// (see the rr field comment): a failed CAS means a concurrent rotation
// already moved the cursor, and overwriting its fresher position with
// ours would hand the next dispatch an already-served backend.
func (b *Balancer) rotate(state BackendState, tried triedSet, now time.Time) *Backend {
	chkYield("rotate")
	n := uint64(len(b.backends))
	raw := b.rr.v.Load()
	start := raw % n
	for i := uint64(0); i < n; i++ {
		be := b.backends[(start+i)%n]
		if tried.has(be) {
			continue
		}
		w := be.word.Load()
		st, _ := effectiveState(w, nanosSince(be.base, now))
		if st == state && !(w&hotQuarantined != 0 && w&hotProbeArmed == 0) {
			b.rr.v.CompareAndSwap(raw, (start+i+1)%n)
			return be
		}
	}
	return nil
}

// noteDispatch records a successful endpoint acquisition. The fast path
// — backend Available with no flags, no pending recovery, no failure
// streak — is three atomic operations; anything else (a state
// transition to emit, an armed probe to start, a streak to clear) takes
// the mutex-guarded slow path.
func (b *Balancer) noteDispatch(be *Backend, policy Policy) {
	chkYield("noteDispatch")
	if be.word.Load() == hotAvailable && be.consecFails.Load() == 0 {
		be.dispatched.Add(1)
		b.lbOnDispatch(be, policy)
		return
	}
	b.noteDispatchSlow(be, policy)
}

// lbOnDispatch applies the policy's dispatch-side lb_value bookkeeping.
func (b *Balancer) lbOnDispatch(be *Backend, policy Policy) {
	switch policy {
	case PolicyTotalRequest, PolicyCurrentLoad, PolicyPrequal:
		// Prequal keeps current_load's in-flight bookkeeping so its
		// fallback ranking (and a later swap away from it) has sane
		// lb_values — the probe pools, not lb_value, drive its choices.
		be.lbValue.Add(1 / be.weightVal())
	case PolicyRoundRobin:
		be.lbValue.Add(1)
	case PolicyTotalTraffic:
		// Accounted on completion, per Algorithm 3.
	}
}

func (b *Balancer) noteDispatchSlow(be *Backend, policy Policy) {
	now := time.Now()
	be.mu.Lock()
	be.lazyRecoverLocked(now)
	be.consecFails.Store(0)
	w := be.word.Load()
	next := w
	if hotState(w) != BackendAvailable {
		next = withRecover(withState(next, BackendAvailable), 0)
	}
	if next&hotProbeArmed != 0 {
		next = (next &^ hotProbeArmed) | hotProbing
		be.probeStart = now
	}
	be.applyLocked(w, next)
	be.dispatched.Add(1)
	b.lbOnDispatch(be, policy)
	be.mu.Unlock()
}

// noteComplete records a completed response. Fast path as noteDispatch;
// the slow path additionally resolves an in-flight quarantine probe.
func (b *Balancer) noteComplete(be *Backend, requestBytes, responseBytes int64) {
	chkYield("noteComplete")
	policy := b.snap.Load().policy
	if be.word.Load() == hotAvailable && be.consecFails.Load() == 0 {
		be.completed.Add(1)
		be.traffic.Add(requestBytes + responseBytes)
		b.lbOnComplete(be, policy, requestBytes+responseBytes)
		return
	}
	b.noteCompleteSlow(be, policy, requestBytes, responseBytes)
}

// lbOnComplete applies the policy's completion-side lb_value
// bookkeeping.
func (b *Balancer) lbOnComplete(be *Backend, policy Policy, bytes int64) {
	switch policy {
	case PolicyTotalTraffic:
		be.lbValue.Add(float64(bytes) / be.weightVal())
	case PolicyCurrentLoad, PolicyPrequal:
		be.lbValue.SubClamp(1 / be.weightVal())
	case PolicyRoundRobin:
		be.lbValue.SubClamp(1)
	}
}

func (b *Balancer) noteCompleteSlow(be *Backend, policy Policy, requestBytes, responseBytes int64) {
	now := time.Now()
	be.mu.Lock()
	be.lazyRecoverLocked(now)
	be.completed.Add(1)
	be.traffic.Add(requestBytes + responseBytes)
	be.consecFails.Store(0)
	w := be.word.Load()
	next := w
	if hotState(w) != BackendAvailable {
		next = withRecover(withState(next, BackendAvailable), 0)
	}
	probed := next&hotProbing != 0
	next &^= hotProbing
	be.applyLocked(w, next)
	var rt time.Duration
	if probed {
		rt = now.Sub(be.probeStart)
	}
	b.lbOnComplete(be, policy, requestBytes+responseBytes)
	be.mu.Unlock()
	if probed && b.onProbe != nil {
		b.onProbe(be, rt, true)
	}
}

// noteFailure feeds the Busy/Error ladder after a failed endpoint
// acquisition. Always the mutex-guarded slow path: failures are off the
// happy path by definition.
func (b *Balancer) noteFailure(be *Backend) {
	now := time.Now()
	be.mu.Lock()
	be.lazyRecoverLocked(now)
	w := be.word.Load()
	probeFailed := w&hotProbeArmed != 0
	next := w &^ hotProbeArmed
	if be.consecFails.Load() == 0 {
		be.firstFail = now
	}
	fails := be.consecFails.Add(1)
	escalated := false
	if int(fails) >= b.cfg.ErrorThreshold && now.Sub(be.firstFail) >= b.cfg.ErrorAfter {
		next = withRecover(withState(next, BackendError), nanosSince(be.base, now.Add(b.cfg.ErrorRecovery)))
		escalated = true
	}
	if !escalated && hotState(next) == BackendAvailable {
		next = withRecover(withState(next, BackendBusy), nanosSince(be.base, now.Add(b.cfg.BusyRecovery)))
	}
	be.applyLocked(w, next)
	be.mu.Unlock()
	if probeFailed && b.onProbe != nil {
		b.onProbe(be, 0, false)
	}
}

// noteUpstreamFailure unwinds a dispatched request whose upstream round
// trip failed (crash, timeout, injected loss): the request is no longer
// in flight — completed counts it and the in-flight policies decrement —
// but unlike noteComplete it does not prove the backend responsive. The
// failure feeds the Busy/Error ladder so the scheduler routes around the
// backend, and an in-flight probe reports failure.
func (b *Balancer) noteUpstreamFailure(be *Backend) {
	policy := b.snap.Load().policy
	be.mu.Lock()
	be.completed.Add(1)
	switch policy {
	case PolicyCurrentLoad, PolicyPrequal:
		be.lbValue.SubClamp(1 / be.weightVal())
	case PolicyRoundRobin:
		be.lbValue.SubClamp(1)
	}
	w := be.word.Load()
	probeFailed := w&hotProbing != 0
	be.applyLocked(w, w&^hotProbing)
	be.mu.Unlock()
	if probeFailed && b.onProbe != nil {
		b.onProbe(be, 0, false)
	}
	b.noteFailure(be)
}
