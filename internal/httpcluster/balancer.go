// Package httpcluster runs the paper's n-tier scenario over real
// loopback HTTP: application servers with bounded worker pools and
// injectable stalls, a web-tier reverse proxy, a database stub, and a
// closed-loop load generator.
//
// The proxy's balancer is a driver of internal/lb's decision core, the
// core the deterministic simulation drives too: the same records,
// policies, mechanisms, transition rule and two-level choice, run here in
// wall-clock time by every proxy worker at once. Two kinds of mutex guard
// it: the balancer's, around every call into the core, and each
// backend's, around that backend's record and endpoint tokens. Each is
// held for well under a microsecond, four orders of magnitude below the
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

	"millibalance/internal/lb"
	"millibalance/internal/obs"
	"millibalance/internal/probe"
)

// Policy selects the lb_value bookkeeping (Algorithms 2–4): the proxy's
// name for one of internal/lb's policies.
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

// policyNames holds each Policy's name in internal/lb's table
// (lb.PolicyByName), in enum order.
var policyNames = [...]string{
	PolicyTotalRequest: "total_request",
	PolicyTotalTraffic: "total_traffic",
	PolicyCurrentLoad:  "current_load",
	PolicyRoundRobin:   "round_robin",
	PolicyPrequal:      "prequal",
}

// String returns the policy name.
func (p Policy) String() string {
	if p > 0 && int(p) < len(policyNames) {
		return policyNames[p]
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// PolicyNames lists the accepted policy names, in enum order — for CLI
// usage strings and ParsePolicy's error.
func PolicyNames() []string { return append([]string(nil), policyNames[1:]...) }

// ParsePolicy resolves a policy name.
func ParsePolicy(name string) (Policy, error) {
	for p := PolicyTotalRequest; int(p) < len(policyNames); p++ {
		if policyNames[p] == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("httpcluster: unknown policy %q (have %s)", name, strings.Join(PolicyNames(), ", "))
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

// BackendState is a backend's state in the paper's 3-state machine.
type BackendState = lb.State

// The three states of the 3-state machine.
const (
	// BackendAvailable accepts requests.
	BackendAvailable = lb.StateAvailable
	// BackendBusy recently failed to return an endpoint.
	BackendBusy = lb.StateBusy
	// BackendError is excluded until the recovery interval passes.
	BackendError = lb.StateError
)

// Backend is one application server as the proxy's balancer sees it: the
// core's record and the endpoint-pool tokens, both under mu. A dispatch
// holds mu for a few dozen nanoseconds at a time (DESIGN.md §12).
type Backend struct {
	name     string
	url      string
	target   *url.URL  // url parsed once for Proxy.roundTrip; nil when it does not parse
	capacity int       // endpoint pool size
	bal      *Balancer // the balancer whose core runs rec; set by NewBalancer

	mu   sync.Mutex
	rec  lb.Record
	free int // idle endpoint-pool tokens
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
		rec:      lb.NewRecord(name),
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
	return b.rec.LBValue()
}

// State reads the current state, applying a due Busy/Error recovery.
func (b *Backend) State() BackendState {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.bal != nil {
		b.bal.core.RecoverDue(&b.rec, b.bal.now())
	}
	return b.rec.State()
}

// Dispatched reads the cumulative dispatch count.
func (b *Backend) Dispatched() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.rec.Dispatched()
}

// Completed reads the cumulative completion count.
func (b *Backend) Completed() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.rec.Completed()
}

// InFlight reads dispatched-but-uncompleted requests.
func (b *Backend) InFlight() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.rec.InFlight()
}

// FreeEndpoints reads the idle endpoint-pool tokens.
func (b *Backend) FreeEndpoints() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.free
}

// Traffic reads the cumulative bytes exchanged.
func (b *Backend) Traffic() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.rec.Traffic()
}

// Quarantined reads the backend's quarantine flag.
func (b *Backend) Quarantined() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.rec.Quarantined()
}

// Weight returns the backend's lbfactor.
func (b *Backend) Weight() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.rec.Weight()
}

// SetWeight assigns the backend's lbfactor (lb.Record.SetWeight: values
// ≤ 0 or non-finite mean 1): a weight-2 backend receives twice a
// weight-1 backend's traffic because its lb_value increments are halved.
func (b *Backend) SetWeight(w float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.rec.SetWeight(w)
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

// ErrNoBackend is returned when every sweep failed to acquire an
// endpoint from any backend.
var ErrNoBackend = errors.New("httpcluster: no backend available")

// Balancer is the decision core's driver in wall-clock time, safe for
// concurrent use. Two kinds of mutex guard it (DESIGN.md §12): mu around
// every call into the core and what the control plane swaps, and each
// Backend's mu around that backend's record and tokens. Lock order is
// Balancer.mu, then the backends' mu in list order. No lock is held
// across a sleep, the assign and probe hooks, the prequal reseed or I/O;
// state events are appended under the locks, so the event log must not
// call back into the balancer.
type Balancer struct {
	backends []*Backend
	core     *lb.Core
	epoch    time.Time // the core's clock reads time since epoch

	mu     sync.Mutex
	policy Policy
	mech   Mechanism
	// policies holds one lb instance per policy, reused across swaps, so
	// round_robin's rotation resumes where it left off.
	policies [len(policyNames)]lb.Policy
	mechs    [MechanismModified + 1]lb.Mechanism
	pools    *probe.Pools
	// wake is closed (and replaced) whenever the mechanism is swapped or
	// a backend is quarantined, so workers sleeping inside the original
	// mechanism's poll ask the core at once whether the poll is over.
	wake chan struct{}
	// prng backs the core's randomized choices (prequal's sampling).
	prng *rand.Rand
	// views parks the decision event's candidate-table scratch between
	// dispatches; the event log copies the table it is handed.
	views []obs.CandidateView

	sessions   sessionTable
	onAssign   func(*Backend)
	onProbe    func(*Backend, time.Duration, bool)
	events     *obs.EventLog
	eventEpoch time.Time
	source     string
}

// NewBalancer builds a balancer over the backends. A zero policy or
// mechanism means current_load and the modified mechanism.
func NewBalancer(policy Policy, mech Mechanism, backends []*Backend, cfg Config) *Balancer {
	if len(backends) == 0 {
		panic("httpcluster: NewBalancer with no backends")
	}
	if policy == 0 {
		policy = PolicyCurrentLoad
	}
	if mech == 0 {
		mech = MechanismModified
	}
	if cfg.AcquireSleep <= 0 {
		cfg.AcquireSleep = lb.DefaultAcquireSleep
	}
	if cfg.AcquireTimeout <= 0 {
		cfg.AcquireTimeout = lb.DefaultAcquireTimeout
	}
	b := &Balancer{
		backends: append([]*Backend(nil), backends...),
		epoch:    time.Now(),
		policy:   policy,
		mech:     mech,
		mechs: [...]lb.Mechanism{
			MechanismOriginal: &lb.OriginalGetEndpoint{Sleep: cfg.AcquireSleep, Timeout: cfg.AcquireTimeout},
			MechanismModified: lb.NewModifiedGetEndpoint(),
		},
		wake: make(chan struct{}),
		prng: rand.New(rand.NewPCG(0x7072657175616c, uint64(len(backends)))),
	}
	for p := PolicyTotalRequest; int(p) < len(policyNames); p++ {
		b.policies[p], _ = lb.PolicyByName(p.String())
	}
	recs := make([]*lb.Record, len(b.backends))
	for i, be := range b.backends {
		be.bal = b
		recs[i] = &be.rec
	}
	b.core = lb.NewCore(b.lbPolicy(policy), b.lbMechanism(mech), recs, lb.Config{
		BusyRecovery:   cfg.BusyRecovery,
		ErrorThreshold: cfg.ErrorThreshold,
		ErrorAfter:     cfg.ErrorAfter,
		ErrorRecovery:  cfg.ErrorRecovery,
		Sweeps:         cfg.Sweeps,
		SweepPause:     cfg.SweepPause,
		StickySessions: cfg.StickySessions,
	}, b.stateChanged)
	return b
}

// lbPolicy returns the balancer's lb instance of policy p.
func (b *Balancer) lbPolicy(p Policy) lb.Policy {
	if p <= 0 || int(p) >= len(b.policies) {
		panic(fmt.Sprintf("httpcluster: unknown policy %v", p))
	}
	return b.policies[p]
}

// lbMechanism returns the balancer's lb instance of mechanism m.
func (b *Balancer) lbMechanism(m Mechanism) lb.Mechanism {
	if m <= 0 || int(m) >= len(b.mechs) {
		panic(fmt.Sprintf("httpcluster: unknown mechanism %v", m))
	}
	return b.mechs[m]
}

// now reads the core's clock: wall time since the balancer was built.
func (b *Balancer) now() time.Duration { return time.Since(b.epoch) }

// lockBackends takes every backend's mu, in list order. The caller holds
// b.mu.
func (b *Balancer) lockBackends() {
	for _, be := range b.backends {
		be.mu.Lock()
	}
}

func (b *Balancer) unlockBackends() {
	for _, be := range b.backends {
		be.mu.Unlock()
	}
}

// stateChanged is the core's state hook: a transition becomes a state
// event. It runs under the changed backend's mu.
func (b *Balancer) stateChanged(r *lb.Record, from lb.State) {
	if b.events == nil || from == r.State() {
		return
	}
	b.events.Append(obs.Event{
		T:       time.Since(b.eventEpoch),
		Kind:    obs.KindState,
		Backend: r.Name(),
		From:    from.String(),
		To:      r.State().String(),
	})
}

// Backends returns the backend list (shared; do not mutate).
func (b *Balancer) Backends() []*Backend { return b.backends }

// SetProbePools wires the prequal policy's probe pools and the reseed
// hook a runtime swap to prequal fires (typically WallProber's Reseed:
// clear the pools, fire an immediate probe round). Call before serving
// traffic. Without pools a prequal balancer degrades to in-flight
// ranking.
func (b *Balancer) SetProbePools(pools *probe.Pools, reseed func()) {
	pq := b.policies[PolicyPrequal].(*lb.Prequal)
	b.mu.Lock()
	defer b.mu.Unlock()
	b.pools = pools
	pq.AttachPools(pools)
	pq.SetSeedHook(reseed)
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
	return b.core.Rejects()
}

// SetAssignHook registers a hook invoked (without locks held) whenever
// a backend is chosen by the scheduler.
func (b *Balancer) SetAssignHook(hook func(*Backend)) { b.onAssign = hook }

// SetEventLog wires the balancer into an event log: each dispatch
// decision is recorded with the full candidate table (lb_value, state,
// in-flight, free endpoints) and each 3-state-machine transition becomes
// a state event. source names the emitter; epoch is the time base
// events are stamped against. Call before serving traffic.
func (b *Balancer) SetEventLog(log *obs.EventLog, source string, epoch time.Time) {
	b.events, b.source, b.eventEpoch = log, source, epoch
}

// choice is one pass of the core's choice: the backend, the clock
// reading it was made at, and — with an event log armed — the candidate
// table the decision event carries and the pools that enrich it.
type choice struct {
	be    *Backend
	now   time.Duration
	views []obs.CandidateView
	pools *probe.Pools
}

// choose runs the core's choice under the balancer's mu and every
// backend's, starts the mechanism's poll on the chosen backend, and
// snapshots the candidate table when an event log is
// armed (the way mod_jk's scheduler reads the worker table).
func (b *Balancer) choose(w *lb.Walk, pinned *Backend) choice {
	c := choice{now: b.now()}
	var pin *lb.Record
	if pinned != nil {
		pin = &pinned.rec
	}
	b.mu.Lock()
	b.lockBackends()
	if r := b.core.Choose(w, pin, c.now, b.prng); r != nil {
		b.core.Assign(w, r)
		c.be = b.backends[r.Index()]
		if b.events != nil {
			// A dispatch that finds the scratch taken by a concurrent
			// emit makes its own.
			c.views, b.views, c.pools = b.views[:0], nil, b.pools
			for _, be := range b.backends {
				c.views = append(c.views, obs.CandidateView{
					Name:          be.name,
					LBValue:       be.rec.LBValue(),
					State:         be.rec.State().String(),
					InFlight:      be.rec.InFlight(),
					FreeEndpoints: be.free,
				})
			}
		}
	}
	b.unlockBackends()
	b.mu.Unlock()
	return c
}

// emitDecision records one dispatch decision with the table choose
// took, each row with the backend's freshest probe sample. It runs with
// no balancer lock held and parks the table's scratch for the next
// dispatch once the event log has copied it.
func (b *Balancer) emitDecision(c choice) {
	if b.events == nil {
		return
	}
	for i := range c.views {
		if c.pools == nil {
			break
		}
		v := &c.views[i]
		if smp, ok := c.pools.Peek(v.Name); ok {
			v.ProbeInFlight = smp.InFlight
			v.ProbeLatencyMs = float64(smp.Latency) / float64(time.Millisecond)
			v.ProbeAgeMs = float64(smp.Age) / float64(time.Millisecond)
			v.ProbeFresh = true
		}
	}
	b.events.Append(obs.Event{
		T:          time.Since(b.eventEpoch),
		Kind:       obs.KindDecision,
		Source:     b.source,
		Chosen:     c.be.name,
		Candidates: c.views,
	})
	b.mu.Lock()
	b.views = c.views
	b.mu.Unlock()
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
	r.bal.complete(r.be, lb.RequestInfo{RequestBytes: r.requestBytes, ResponseBytes: responseBytes})
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
	return b.acquire(nil, requestBytes)
}

// acquire walks the core from choice to endpoint: a choice, the
// mechanism's checks and poll sleeps on the chosen backend, another
// choice when it gives up, a pause when a sweep found nothing. pinned is
// the session's backend, or nil.
func (b *Balancer) acquire(pinned *Backend, requestBytes int64) (*Backend, Release, error) {
	var w lb.Walk
	w.Begin()
	info := lb.RequestInfo{RequestBytes: requestBytes}
	for {
		c := b.choose(&w, pinned)
		if c.be == nil {
			b.mu.Lock()
			pause, again := b.core.NextSweep(&w)
			b.mu.Unlock()
			if !again {
				break
			}
			time.Sleep(pause)
			continue
		}
		if b.onAssign != nil {
			b.onAssign(c.be)
		}
		b.emitDecision(c)
		if b.acquireEndpoint(&w, c.be, info, c.now) {
			return c.be, Release{bal: b, be: c.be, requestBytes: requestBytes}, nil
		}
	}
	if b.events != nil {
		b.events.Append(obs.Event{T: time.Since(b.eventEpoch), Kind: obs.KindReject, Source: b.source})
	}
	return nil, Release{}, ErrNoBackend
}

// acquireEndpoint runs the walk's mechanism on be: take a token now, or,
// under the original mechanism, sleep and check again until the core
// ends the poll. now is the clock reading of the choice.
func (b *Balancer) acquireEndpoint(w *lb.Walk, be *Backend, info lb.RequestInfo, now time.Duration) bool {
	for {
		claimed, poll, probeFailed := false, false, false
		var sleep time.Duration
		b.mu.Lock()
		be.mu.Lock()
		if b.core.Check(w) {
			if claimed = be.free > 0; claimed {
				be.free--
				b.core.Claim(&be.rec, info, now)
			} else {
				sleep, poll = w.Missed()
			}
		}
		if !claimed && !poll {
			probeFailed = b.core.DisarmProbe(&be.rec)
			b.core.GiveUp(w, now)
		}
		wake := b.wake
		be.mu.Unlock()
		b.mu.Unlock()
		if probeFailed && b.onProbe != nil {
			b.onProbe(be, 0, false)
		}
		if claimed || !poll {
			return claimed
		}
		b.sleepPoll(w, be, sleep, wake)
		now = b.now()
	}
}

// sleepPoll sleeps one poll interval of the walk on be. A mechanism swap
// or a quarantine closes the wake channel; the sleeper then asks the
// core whether its poll is over and returns early if it is. The
// condition and the channel are read under the locks their writers
// change them under, so a swap either shows there or closes the channel
// waited on.
func (b *Balancer) sleepPoll(w *lb.Walk, be *Backend, d time.Duration, wake chan struct{}) {
	t := time.NewTimer(d)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			return
		case <-wake:
		}
		b.mu.Lock()
		be.mu.Lock()
		aborted := b.core.Aborted(w)
		be.mu.Unlock()
		wake = b.wake
		b.mu.Unlock()
		if aborted {
			return
		}
	}
}

// complete records a completed response: the token returns, the core
// readmits the backend and ends a probe in flight through it.
func (b *Balancer) complete(be *Backend, info lb.RequestInfo) {
	b.mu.Lock()
	be.mu.Lock()
	be.free++
	start, probed := b.core.Complete(&be.rec, info)
	be.mu.Unlock()
	b.mu.Unlock()
	if probed && b.onProbe != nil {
		b.onProbe(be, b.now()-start, true)
	}
}

// noteUpstreamFailure unwinds a dispatched request whose upstream round
// trip failed (crash, timeout, injected loss): the request is no longer
// in flight and its token returns, but the failure feeds the Busy/Error
// ladder so the scheduler routes around the backend, and a probe
// through it reports failure.
func (b *Balancer) noteUpstreamFailure(be *Backend) {
	now := b.now()
	b.mu.Lock()
	be.mu.Lock()
	be.free++
	probeFailed := b.core.Unwind(&be.rec)
	b.core.Fail(&be.rec, now)
	be.mu.Unlock()
	b.mu.Unlock()
	if probeFailed && b.onProbe != nil {
		b.onProbe(be, 0, false)
	}
}
