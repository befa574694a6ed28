package lb

import (
	"time"

	"millibalance/internal/obs"
	"millibalance/internal/sim"
)

// Candidate is one application server as one simulated balancer sees
// it: the core's record, the balancer's endpoint pool to that server
// (mod_jk's endpoint cache; 25 in the paper's configuration) and the
// engine timer of its pending Busy or Error recovery.
type Candidate struct {
	Record
	pool  *sim.Pool
	b     *Balancer
	timer sim.Timer
}

// NewCandidate returns a candidate backed by the given endpoint pool.
func NewCandidate(name string, pool *sim.Pool) *Candidate {
	if pool == nil {
		panic("lb: NewCandidate with nil pool")
	}
	return &Candidate{Record: NewRecord(name), pool: pool}
}

// FreeEndpoints reports free connections in the endpoint pool.
func (c *Candidate) FreeEndpoints() int { return c.pool.Free() }

// Fire is the candidate's recovery timer: its Busy or Error interval has
// passed.
func (c *Candidate) Fire() {
	c.timer = sim.Timer{}
	c.b.core.Recover(&c.Record)
}

// Snapshot is a point-in-time copy of a candidate's balancer-visible
// state, taken by the metrics samplers (the paper instruments mod_jk the
// same way to plot Fig. 10b/11b).
type Snapshot struct {
	Name          string
	LBValue       float64
	Weight        float64
	State         State
	InFlight      int
	Dispatched    uint64
	Completed     uint64
	FreeEndpoints int
	Quarantined   bool

	// Probe* mirror the freshest probe-pool sample when the active
	// policy exposes one (ProbeViewer); ProbeFresh is false — and the
	// other fields zero — for every other policy or when the backend's
	// pool has aged out.
	ProbeInFlight float64
	ProbeLatency  sim.Time
	ProbeAge      sim.Time
	ProbeFresh    bool
}

func (c *Candidate) snapshot() Snapshot {
	return Snapshot{
		Name:          c.name,
		LBValue:       c.lbValue,
		Weight:        c.Weight(),
		State:         c.state,
		InFlight:      c.InFlight(),
		Dispatched:    c.dispatched,
		Completed:     c.completed,
		FreeEndpoints: c.pool.Free(),
		Quarantined:   c.quarantined,
	}
}

// Balancer is the decision core's driver on the simulator's engine: a
// dispatch is an Attempt parked on the engine while the mechanism polls
// or a sweep pauses, each Busy or Error recovery is an engine timer at
// its deadline, and every hook runs on the engine's thread. One balancer
// lives in each web-tier server (each Apache runs its own mod_jk with
// private endpoint pools and lb_values).
type Balancer struct {
	eng   *sim.Engine
	core  *Core
	cands []*Candidate
	// maintain is the Maintain tick's period once a maintaining policy
	// has been in use.
	maintain   time.Duration
	maintainOn bool
	sessions   map[uint64]*Candidate

	onAssign   func(*Candidate)
	onDispatch func(*Candidate)
	onReject   func()
	onState    func(c *Candidate, from, to State)
	onProbe    func(c *Candidate, rt sim.Time, ok bool)
}

// New returns a balancer over the candidates. Policy, mechanism and at
// least one candidate are required.
func New(eng *sim.Engine, policy Policy, mech Mechanism, cands []*Candidate, cfg Config) *Balancer {
	b := &Balancer{eng: eng, cands: append([]*Candidate(nil), cands...), maintain: cfg.MaintainInterval}
	recs := make([]*Record, len(b.cands))
	for i, c := range b.cands {
		c.b = b
		recs[i] = &c.Record
	}
	b.core = NewCore(policy, mech, recs, cfg, b.stateChanged)
	if _, ok := policy.(Maintainer); ok {
		b.startMaintain()
	}
	return b
}

// startMaintain arms the recurring Maintain tick, once. The tick reads
// the live policy at every firing, so a runtime swap into or out of a
// maintaining policy needs no timer surgery.
func (b *Balancer) startMaintain() {
	if b.maintainOn {
		return
	}
	if b.maintain <= 0 {
		// A maintaining policy is meaningless without maintenance; a
		// sub-second default decays within a few millibottleneck
		// lifetimes.
		b.maintain = 500 * time.Millisecond
	}
	b.maintainOn = true
	var tick func()
	tick = func() {
		if m, ok := b.core.Policy().(Maintainer); ok {
			for _, c := range b.cands {
				m.Maintain(&c.Record)
			}
		}
		b.eng.Schedule(b.maintain, tick)
	}
	b.eng.Schedule(b.maintain, tick)
}

// stateChanged is the core's state hook: a transition goes to the state
// hook, and the candidate's timer moves to its new recovery deadline.
func (b *Balancer) stateChanged(r *Record, from State) {
	c := b.cands[r.index]
	if from != r.state && b.onState != nil {
		b.onState(c, from, r.state)
	}
	b.eng.Stop(c.timer)
	c.timer = sim.Timer{}
	if r.recoverAt != 0 {
		c.timer = b.eng.ScheduleEvent(r.recoverAt-b.eng.Now(), c)
	}
}

// Policy returns the active policy.
func (b *Balancer) Policy() Policy { return b.core.Policy() }

// Mechanism returns the active mechanism.
func (b *Balancer) Mechanism() Mechanism { return b.core.Mechanism() }

// Candidates returns the candidate list (shared, not a copy — callers
// must not mutate it).
func (b *Balancer) Candidates() []*Candidate { return b.cands }

// Rejects reports how many dispatches failed on every attempt.
func (b *Balancer) Rejects() uint64 { return b.core.Rejects() }

// Sessions reports the number of bound sessions.
func (b *Balancer) Sessions() int { return len(b.sessions) }

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

// SetProbeHook registers the probe outcome callback: rt is the probe's
// response time on success, and ok=false means the probe could not even
// acquire an endpoint or its exchange failed.
func (b *Balancer) SetProbeHook(hook func(c *Candidate, rt sim.Time, ok bool)) { b.onProbe = hook }

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
	pv, hasPV := b.core.Policy().(ProbeViewer)
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
	// and call Balancer.Complete (or Fail) with the same Attempt exactly
	// once when the exchange ends.
	Forward(c *Candidate)
	// Rejected runs instead when every attempt failed.
	Rejected()
}

// Attempt is one dispatch from Start until Complete or rejection: the
// core's Walk, and the event the mechanism's poll sleeps and the pauses
// between sweeps park on the engine. A caller embeds an Attempt in its
// per-request record and reuses it for the record's next request, so
// dispatching allocates nothing — the walk's tried list keeps its
// backing array across uses.
type Attempt struct {
	walk  Walk
	b     *Balancer
	to    Forwarder
	info  RequestInfo
	phase attemptPhase
}

type attemptPhase uint8

const (
	attemptIdle    attemptPhase = iota // not dispatching
	attemptPolling                     // parked on the mechanism's poll sleep
	attemptPausing                     // parked between two sweeps
	attemptSent                        // forwarded, response outstanding
)

// Fire resumes the dispatch after a poll sleep or a sweep pause.
func (a *Attempt) Fire() {
	switch a.phase {
	case attemptPolling:
		a.b.acquire(a)
	case attemptPausing:
		a.b.attempt(a)
	default:
		panic("lb: Attempt fired while not waiting")
	}
}

// SetResponseBytes records the size of a forwarded request's response
// when it is known only at completion, before Complete books it.
func (a *Attempt) SetResponseBytes(n int64) { a.info.ResponseBytes = n }

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
	a.walk.Begin()
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

// attempt makes one choice: the session's candidate or the core's pick,
// or — when nothing is eligible — the pause before the next sweep or the
// rejection.
func (b *Balancer) attempt(a *Attempt) {
	r := b.core.Choose(&a.walk, b.pinned(a.info.SessionID), b.eng.Now(), b.eng.Rand())
	if r == nil {
		if pause, again := b.core.NextSweep(&a.walk); again {
			a.phase = attemptPausing
			b.eng.ScheduleEvent(pause, a)
			return
		}
		a.info.Span.Exit(obs.StageGetEndpoint, b.eng.Now())
		a.phase = attemptIdle
		if b.onReject != nil {
			b.onReject()
		}
		a.to.Rejected()
		return
	}
	if b.onAssign != nil {
		b.onAssign(b.cands[r.index])
	}
	b.core.Assign(&a.walk, r)
	b.acquire(a)
}

// acquire makes one check of the chosen candidate's endpoint pool:
// dispatch on a free endpoint, park on the mechanism's poll sleep, or
// give up on the candidate and choose again.
func (b *Balancer) acquire(a *Attempt) {
	c := b.cands[a.walk.rec.index]
	if b.core.Check(&a.walk) {
		if c.pool.TryAcquire() {
			b.dispatchTo(a, c)
			return
		}
		if sleep, poll := a.walk.Missed(); poll {
			a.phase = attemptPolling
			b.eng.ScheduleEvent(sleep, a)
			return
		}
	}
	if b.core.DisarmProbe(&c.Record) && b.onProbe != nil {
		// The armed probe could not even get an endpoint: report a
		// failed probe instead of dispatching it elsewhere.
		b.onProbe(c, 0, false)
	}
	b.core.GiveUp(&a.walk, b.eng.Now())
	b.attempt(a)
}

func (b *Balancer) dispatchTo(a *Attempt, c *Candidate) {
	a.info.Span.Exit(obs.StageGetEndpoint, b.eng.Now())
	b.core.Claim(&c.Record, a.info, b.eng.Now())
	if s := a.info.SessionID; s != 0 && b.core.cfg.StickySessions {
		if b.sessions == nil {
			b.sessions = make(map[uint64]*Candidate)
		}
		b.sessions[s] = c
	}
	if b.onDispatch != nil {
		b.onDispatch(c)
	}
	a.phase = attemptSent
	a.to.Forward(c)
}

// pinned returns the record of the candidate a session is bound to, or
// nil.
func (b *Balancer) pinned(session uint64) *Record {
	if session == 0 || !b.core.cfg.StickySessions {
		return nil
	}
	if c := b.sessions[session]; c != nil {
		return &c.Record
	}
	return nil
}

// Complete records that the response to a forwarded request returned:
// it releases the endpoint, updates the policy's bookkeeping and
// readmits a candidate that was Busy. It must run exactly once per
// Forward, unless Fail does.
func (b *Balancer) Complete(a *Attempt) {
	c := b.finish(a)
	if start, probed := b.core.Complete(&c.Record, a.info); probed && b.onProbe != nil {
		b.onProbe(c, b.eng.Now()-start, true)
	}
}

// Fail unwinds a forwarded request whose exchange with its candidate
// failed: it no longer counts as in flight and its endpoint returns, but
// the failure feeds the Busy/Error ladder instead of readmitting the
// candidate. It runs instead of Complete.
func (b *Balancer) Fail(a *Attempt) {
	c := b.finish(a)
	if b.core.Unwind(&c.Record) && b.onProbe != nil {
		b.onProbe(c, 0, false)
	}
	b.core.Fail(&c.Record, b.eng.Now())
}

// finish ends a forwarded request's dispatch and returns its endpoint.
func (b *Balancer) finish(a *Attempt) *Candidate {
	if a.phase != attemptSent {
		panic("lb: request completion invoked twice")
	}
	a.phase = attemptIdle
	c := b.cands[a.walk.rec.index]
	c.pool.Release()
	return c
}

// SetPolicy swaps the upper-level policy at runtime (Core.SetPolicy):
// swapping in a PoolSeeder reseeds its sample store, and a Maintainer
// arms the maintenance tick if it is not already running.
func (b *Balancer) SetPolicy(p Policy) {
	b.core.SetPolicy(p)
	if ps, ok := p.(PoolSeeder); ok {
		ps.SeedPools()
	}
	if _, ok := p.(Maintainer); ok {
		b.startMaintain()
	}
}

// SetMechanism swaps the endpoint-acquisition mechanism at runtime; a
// poll in progress ends at its next check when the new one does not poll.
func (b *Balancer) SetMechanism(m Mechanism) { b.core.SetMechanism(m) }

// SetQuarantined drains (or re-admits) a candidate (Core.SetQuarantined).
func (b *Balancer) SetQuarantined(c *Candidate, q bool) { b.core.SetQuarantined(&c.Record, q) }

// ArmProbe lets exactly one request through a quarantined candidate; the
// probe hook reports how it went. Arming is a no-op when the candidate
// is not quarantined or a probe is already in flight.
func (b *Balancer) ArmProbe(c *Candidate) { b.core.ArmProbe(&c.Record) }

// MechanismByName returns the mechanism with the given name. The engine
// argument is unused — the balancer schedules the polls — and stays so
// callers keep compiling.
func MechanismByName(name string, _ *sim.Engine) (Mechanism, bool) {
	switch name {
	case "original", "original_get_endpoint":
		return NewOriginalGetEndpoint(), true
	case "modified", "modified_get_endpoint":
		return NewModifiedGetEndpoint(), true
	default:
		return nil, false
	}
}
