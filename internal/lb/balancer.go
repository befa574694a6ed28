package lb

import (
	"time"

	"millibalance/internal/obs"
	"millibalance/internal/sim"
)

// Config tunes the 3-state machine around the policy and mechanism.
type Config struct {
	// BusyRecovery is how long a candidate stays Busy before being
	// probed again (default 100 ms). A completed response readmits it
	// immediately.
	BusyRecovery sim.Time
	// ErrorThreshold is the number of consecutive endpoint-acquisition
	// failures that escalate Busy to Error (default 3, mirroring
	// mod_jk's retry ladder).
	ErrorThreshold int
	// ErrorAfter additionally requires the consecutive failures to span
	// at least this long before escalating (default 2 s). Millibottle-
	// necks last tens to hundreds of milliseconds and can fail dozens
	// of concurrent acquisitions at once; only failures that persist
	// well beyond that horizon indicate a genuinely failed server.
	ErrorAfter sim.Time
	// ErrorRecovery is how long an Error candidate is excluded before
	// being tentatively readmitted (default 10 s).
	ErrorRecovery sim.Time
	// MaxAttempts bounds how many distinct candidates one sweep may
	// try (default: all of them). A sweep never retries a candidate it
	// already failed on.
	MaxAttempts int
	// Sweeps is how many full candidate sweeps a dispatch makes before
	// rejecting (mod_jk's balancer-level retries; default 3). The
	// caller's worker thread stays occupied across sweeps.
	Sweeps int
	// SweepPause separates consecutive sweeps (default 100 ms).
	SweepPause sim.Time
	// MaintainInterval runs the policy's Maintain hook (if it
	// implements Maintainer) on every candidate at this period —
	// mod_jk's global maintain, which decays lb_values. Zero disables
	// maintenance.
	MaintainInterval sim.Time
	// StickySessions pins each session (RequestInfo.SessionID) to the
	// backend it first landed on, overriding the policy unless that
	// backend is in Error or already failed this dispatch — mod_jk's
	// sticky_session behaviour.
	StickySessions bool
}

// withDefaults fills zero fields.
func (c Config) withDefaults(candidates int) Config {
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
	if c.MaxAttempts <= 0 || c.MaxAttempts > candidates {
		c.MaxAttempts = candidates
	}
	if c.Sweeps <= 0 {
		c.Sweeps = 3
	}
	if c.SweepPause <= 0 {
		c.SweepPause = 100 * time.Millisecond
	}
	return c
}

// Balancer is the lower level of the two-level scheduler: it picks the
// Available candidate with the lowest lb_value, runs the configured
// endpoint-acquisition mechanism, and maintains the 3-state machine.
// One balancer instance lives in each web-tier server (each Apache runs
// its own mod_jk with private endpoint pools and lb_values).
type Balancer struct {
	eng    *sim.Engine
	policy Policy
	mech   Mechanism
	cfg    Config
	cands  []*Candidate

	rejects    uint64
	sessions   map[uint64]*Candidate
	onAssign   func(*Candidate)
	onDispatch func(*Candidate)
	onReject   func()
	onState    func(c *Candidate, from, to State)
	onProbe    func(c *Candidate, rt sim.Time, ok bool)

	maintainOn bool
	// scratch backs the eligible-candidate list handed to Chooser
	// policies, reused across dispatches to keep the ranking loop
	// allocation-free.
	scratch []*Candidate
}

// triedSet tracks the candidates a dispatch already failed on. Candidate
// sets are tiny (the paper's testbed has four application servers), so a
// slice with a linear scan beats a map; it lives in the dispatch's
// Attempt and keeps its backing array from one dispatch to the next.
type triedSet []*Candidate

func (t triedSet) has(c *Candidate) bool {
	for _, x := range t {
		if x == c {
			return true
		}
	}
	return false
}

// New returns a balancer over the candidates. Policy, mechanism and at
// least one candidate are required.
func New(eng *sim.Engine, policy Policy, mech Mechanism, cands []*Candidate, cfg Config) *Balancer {
	if policy == nil || mech == nil {
		panic("lb: New with nil policy or mechanism")
	}
	if len(cands) == 0 {
		panic("lb: New with no candidates")
	}
	copied := make([]*Candidate, len(cands))
	copy(copied, cands)
	for i, c := range copied {
		c.index = i
	}
	if _, ok := policy.(Maintainer); ok && cfg.MaintainInterval <= 0 {
		// A maintaining policy is meaningless without maintenance; use
		// a sub-second default so the decay reacts within a few
		// millibottleneck lifetimes.
		cfg.MaintainInterval = 500 * time.Millisecond
	}
	b := &Balancer{
		eng:    eng,
		policy: policy,
		mech:   mech,
		cfg:    cfg.withDefaults(len(cands)),
		cands:  copied,
	}
	if _, ok := policy.(Maintainer); ok {
		b.startMaintain()
	}
	return b
}

// startMaintain arms the recurring maintenance tick. The tick checks the
// *current* policy on every firing, so a runtime SetPolicy swap into or
// out of a maintaining policy needs no timer surgery.
func (b *Balancer) startMaintain() {
	if b.cfg.MaintainInterval <= 0 || b.maintainOn {
		return
	}
	b.maintainOn = true
	var tick func()
	tick = func() {
		if m, ok := b.policy.(Maintainer); ok {
			for _, c := range b.cands {
				m.Maintain(c)
			}
		}
		b.eng.Schedule(b.cfg.MaintainInterval, tick)
	}
	b.eng.Schedule(b.cfg.MaintainInterval, tick)
}

// Policy returns the active policy.
func (b *Balancer) Policy() Policy { return b.policy }

// Mechanism returns the active mechanism.
func (b *Balancer) Mechanism() Mechanism { return b.mech }

// Candidates returns the candidate list (shared, not a copy — callers
// must not mutate it).
func (b *Balancer) Candidates() []*Candidate { return b.cands }

// Rejects reports how many dispatches failed on every attempt.
func (b *Balancer) Rejects() uint64 { return b.rejects }

// SetAssignHook registers a hook invoked every time the scheduler
// chooses a candidate — including choices whose endpoint acquisition is
// still polling or eventually fails. The paper's workload-distribution
// plots (Fig. 6c, 7c, 9b, 13b) count requests by this routing decision,
// which is what makes the pile-up on a stalled candidate visible while
// the stuck workers are still inside get_endpoint.
func (b *Balancer) SetAssignHook(hook func(*Candidate)) { b.onAssign = hook }

// SetDispatchHook registers a hook invoked at each successful dispatch
// (endpoint acquired and request actually sent).
func (b *Balancer) SetDispatchHook(hook func(*Candidate)) { b.onDispatch = hook }

// SetRejectHook registers a hook invoked when a dispatch is rejected.
func (b *Balancer) SetRejectHook(hook func()) { b.onReject = hook }

// SetStateHook registers a hook invoked on every candidate state
// transition of the 3-state machine (Available/Busy/Error), including
// the timed Busy and Error recoveries — the raw material of the
// decision log's state events.
func (b *Balancer) SetStateHook(hook func(c *Candidate, from, to State)) { b.onState = hook }

// Snapshot copies every candidate's balancer-visible state.
func (b *Balancer) Snapshot() []Snapshot {
	return b.AppendSnapshot(nil)
}

// AppendSnapshot appends every candidate's balancer-visible state to dst
// and returns the extended slice. Periodic samplers pass a reused buffer
// to keep the per-tick snapshot allocation-free. When the active policy
// exposes probe-pool samples (ProbeViewer), each snapshot carries the
// probe values a dispatch at this instant would have seen.
func (b *Balancer) AppendSnapshot(dst []Snapshot) []Snapshot {
	pv, hasPV := b.policy.(ProbeViewer)
	for _, c := range b.cands {
		s := c.snapshot()
		if hasPV {
			if smp, ok := pv.ProbeView(c.name); ok {
				s.ProbeInFlight = smp.InFlight
				s.ProbeLatency = smp.Latency
				s.ProbeAge = smp.Age
				s.ProbeFresh = true
			}
		}
		dst = append(dst, s)
	}
	return dst
}

// Forwarder is the dispatching side of one request: the caller's own
// per-request record, told where the request goes or that it goes
// nowhere. The caller's worker thread is considered occupied until one
// of the two runs — exactly the occupancy that lets the original
// mechanism propagate queue amplification into the web tier.
type Forwarder interface {
	// Forward runs with an endpoint on c held: send the request to c,
	// and call Balancer.Complete with the same Attempt exactly once when
	// the response returns.
	Forward(c *Candidate)
	// Rejected runs instead when every attempt failed.
	Rejected()
}

// Attempt is the balancer's state for one dispatch, from Start until
// Complete or rejection: the candidates already failed on, the sweep
// and poll counters, the chosen candidate. It is also the event the
// mechanism's poll sleep and the pause between sweeps park on the
// engine. A caller embeds an Attempt in its per-request record and
// reuses it for the record's next request, so dispatching allocates
// nothing — the tried list keeps its backing array across uses.
type Attempt struct {
	b     *Balancer
	to    Forwarder
	info  RequestInfo
	mech  Mechanism // the mechanism this acquisition started under
	cand  *Candidate
	tried triedSet
	sweep int
	retry int // poll sleeps so far on cand
	phase attemptPhase
}

type attemptPhase uint8

const (
	attemptIdle      attemptPhase = iota // not dispatching
	attemptAcquiring                     // parked on the mechanism's poll sleep
	attemptPausing                       // parked between two sweeps
	attemptSent                          // forwarded, response outstanding
)

// Fire resumes the dispatch after a poll sleep or a sweep pause.
func (a *Attempt) Fire() {
	switch a.phase {
	case attemptAcquiring:
		a.retry++
		a.b.acquire(a)
	case attemptPausing:
		a.sweep++
		a.tried = a.tried[:0]
		a.b.attempt(a)
	default:
		panic("lb: Attempt fired while not waiting")
	}
}

// Start dispatches one request through a: it picks a candidate,
// acquires an endpoint through the configured mechanism and calls
// to.Forward with the chosen candidate, or to.Rejected when every
// attempt fails. a must not be in use by an earlier dispatch.
func (b *Balancer) Start(a *Attempt, info RequestInfo, to Forwarder) {
	if to == nil {
		panic("lb: Start with nil forwarder")
	}
	if a.phase != attemptIdle {
		panic("lb: Attempt started while still dispatching")
	}
	a.b, a.to, a.info = b, to, info
	a.tried = a.tried[:0]
	a.sweep = 1
	info.Span.Enter(obs.StageGetEndpoint, b.eng.Now())
	b.attempt(a)
}

// Dispatch is Start for callers without a record of their own: send
// receives the chosen candidate and a done function it must invoke
// exactly once when the response returns; reject runs when every
// attempt fails.
func (b *Balancer) Dispatch(info RequestInfo, send func(c *Candidate, done func()), reject func()) {
	if send == nil || reject == nil {
		panic("lb: Dispatch with nil callback")
	}
	d := &funcDispatch{send: send, reject: reject}
	b.Start(&d.Attempt, info, d)
}

// funcDispatch is the Forwarder behind Dispatch.
type funcDispatch struct {
	Attempt
	send   func(*Candidate, func())
	reject func()
}

func (d *funcDispatch) Forward(c *Candidate) { d.send(c, d.done) }
func (d *funcDispatch) Rejected()            { d.reject() }
func (d *funcDispatch) done()                { d.b.Complete(&d.Attempt) }

func (b *Balancer) attempt(a *Attempt) {
	c := b.sessionCandidate(a.info.SessionID, a.tried)
	if c == nil {
		c = b.choose(a.tried)
	}
	if c == nil {
		b.nextSweep(a)
		return
	}
	if b.onAssign != nil {
		b.onAssign(c)
	}
	// A poll loop finishes under the mechanism it started with even if
	// the control plane swaps the balancer's mechanism meanwhile.
	a.cand, a.mech, a.retry = c, b.mech, 0
	b.acquire(a)
}

// acquire makes one pass of the mechanism and acts on its verdict.
func (b *Balancer) acquire(a *Attempt) {
	switch a.mech.Acquire(a) {
	case Acquired:
		b.dispatchTo(a)
	case Polling:
		a.phase = attemptAcquiring
	default:
		b.acquireFailed(a)
	}
}

func (b *Balancer) acquireFailed(a *Attempt) {
	c := a.cand
	if c.probeArmed {
		// The armed probe could not even get an endpoint: report a
		// failed probe instead of dispatching it elsewhere.
		c.probeArmed = false
		if b.onProbe != nil {
			b.onProbe(c, 0, false)
		}
	}
	b.noteFailure(c)
	a.tried = append(a.tried, c)
	if len(a.tried) >= b.cfg.MaxAttempts {
		b.nextSweep(a)
		return
	}
	b.attempt(a)
}

// nextSweep pauses and re-sweeps the full candidate set, or rejects when
// the sweep budget is spent.
func (b *Balancer) nextSweep(a *Attempt) {
	if a.sweep >= b.cfg.Sweeps {
		a.info.Span.Exit(obs.StageGetEndpoint, b.eng.Now())
		a.phase = attemptIdle
		b.rejects++
		if b.onReject != nil {
			b.onReject()
		}
		a.to.Rejected()
		return
	}
	a.phase = attemptPausing
	b.eng.ScheduleEvent(b.cfg.SweepPause, a)
}

func (b *Balancer) dispatchTo(a *Attempt) {
	c := a.cand
	a.info.Span.Exit(obs.StageGetEndpoint, b.eng.Now())
	c.consecFails = 0
	if c.state != StateAvailable {
		// Returning an endpoint proves the candidate responsive again.
		b.setAvailable(c)
	}
	b.policy.OnDispatch(c, a.info)
	if b.cfg.StickySessions {
		b.bindSession(a.info.SessionID, c)
	}
	c.dispatched++
	c.inFlight++
	if c.probeArmed {
		c.probeArmed = false
		c.probing = true
		c.probeStart = b.eng.Now()
	}
	if b.onDispatch != nil {
		b.onDispatch(c)
	}
	a.phase = attemptSent
	a.to.Forward(c)
}

// Complete records that the response to a forwarded request returned:
// it releases the endpoint, updates the policy's bookkeeping and
// readmits a candidate that was Busy. It must run exactly once per
// Forward.
func (b *Balancer) Complete(a *Attempt) {
	if a.phase != attemptSent {
		panic("lb: request completion invoked twice")
	}
	a.phase = attemptIdle
	c := a.cand
	c.inFlight--
	c.completed++
	c.traffic += a.info.RequestBytes + a.info.ResponseBytes
	b.policy.OnComplete(c, a.info)
	c.releaseEndpoint()
	c.consecFails = 0
	if c.state != StateAvailable {
		b.setAvailable(c)
	}
	if c.probing {
		c.probing = false
		if b.onProbe != nil {
			b.onProbe(c, b.eng.Now()-c.probeStart, true)
		}
	}
}

// choose implements the lower-level scheduler: the Available candidate
// with the lowest lb_value; if none is Available, the Busy candidate with
// the lowest lb_value is retried (paper Section IV-A, step 3). Error
// candidates and candidates this dispatch already failed on are
// excluded. Ties break toward the earliest candidate, matching mod_jk's
// first-found scan.
func (b *Balancer) choose(tried triedSet) *Candidate {
	if c := b.lowest(StateAvailable, tried); c != nil {
		return c
	}
	return b.lowest(StateBusy, tried)
}

func (b *Balancer) lowest(s State, tried triedSet) *Candidate {
	// A quarantined candidate is invisible to the scheduler until the
	// control plane arms a probe; the armed probe makes it eligible for
	// exactly one dispatch.
	skip := func(c *Candidate) bool {
		return c.state != s || tried.has(c) || (c.quarantined && !c.probeArmed)
	}
	if chooser, ok := b.policy.(Chooser); ok {
		eligible := b.scratch[:0]
		for _, c := range b.cands {
			if !skip(c) {
				eligible = append(eligible, c)
			}
		}
		b.scratch = eligible
		if len(eligible) == 0 {
			return nil
		}
		return chooser.Choose(eligible, b.eng.Rand())
	}
	var best *Candidate
	for _, c := range b.cands {
		if skip(c) {
			continue
		}
		if best == nil || c.lbValue < best.lbValue {
			best = c
		}
	}
	return best
}

// noteFailure records an endpoint-acquisition failure: Available → Busy,
// and — when the consecutive failures both exceed the count threshold
// and span longer than any millibottleneck could — Error.
func (b *Balancer) noteFailure(c *Candidate) {
	if c.consecFails == 0 {
		c.firstFailAt = b.eng.Now()
	}
	c.consecFails++
	if c.consecFails >= b.cfg.ErrorThreshold && b.eng.Now()-c.firstFailAt >= b.cfg.ErrorAfter {
		b.setError(c)
		return
	}
	if c.state == StateAvailable {
		b.setBusy(c)
	}
}

// transition moves a candidate to a new state, notifying the state
// hook when the state actually changes.
func (b *Balancer) transition(c *Candidate, to State) {
	from := c.state
	if from == to {
		return
	}
	c.state = to
	if b.onState != nil {
		b.onState(c, from, to)
	}
}

func (b *Balancer) setBusy(c *Candidate) {
	b.transition(c, StateBusy)
	b.stopTimers(c)
	c.busyTimer = b.eng.Schedule(b.cfg.BusyRecovery, func() {
		c.busyTimer = sim.Timer{}
		if c.state == StateBusy {
			b.transition(c, StateAvailable)
		}
	})
}

func (b *Balancer) setError(c *Candidate) {
	b.transition(c, StateError)
	b.stopTimers(c)
	c.errorTimer = b.eng.Schedule(b.cfg.ErrorRecovery, func() {
		c.errorTimer = sim.Timer{}
		if c.state == StateError {
			b.transition(c, StateAvailable)
			c.consecFails = 0
		}
	})
}

func (b *Balancer) setAvailable(c *Candidate) {
	b.transition(c, StateAvailable)
	b.stopTimers(c)
}

func (b *Balancer) stopTimers(c *Candidate) {
	b.eng.Stop(c.busyTimer)
	c.busyTimer = sim.Timer{}
	b.eng.Stop(c.errorTimer)
	c.errorTimer = sim.Timer{}
}
