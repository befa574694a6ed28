// Package lb implements the paper's core subject: the mod_jk-style
// two-level load balancer that web-tier servers use to pick an
// application server.
//
// The upper level is a Policy (Algorithms 2–4 in the paper) that
// maintains a per-backend lb_value; the lower level picks the Available
// backend with the lowest lb_value. Endpoint acquisition — getting a free
// connection to the chosen backend — is a Mechanism: the original
// Algorithm 1 polls with 100 ms sleeps for up to 300 ms while holding the
// caller's worker thread, and the paper's remedy fails fast and marks the
// backend Busy. Backends that fail to return an endpoint become Busy, and
// repeated consecutive failures escalate to Error: the paper's 3-state
// machine (Available, Busy, Error).
//
// All of it lives once, in the decision core (core.go, policy.go,
// prequal.go, mechanism.go): a Record per backend, a Core over one
// balancer's records, and a Walk per dispatch. The core reads no clock
// and takes no lock: time is a duration since its driver's epoch, handed
// in by the caller, and the caller serializes the calls. Two drivers run
// it. Balancer (balancer.go) runs it on the simulator's engine: a
// dispatch parks as an engine event, and engine timers fire at the
// recovery deadlines. httpcluster.Balancer runs it in wall-clock time
// under two mutexes: a dispatch's goroutine sleeps, and a recovery is
// applied when the record is next read.
package lb

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"
)

// State is a backend's scheduling state in the paper's 3-state machine.
type State int

const (
	// StateAvailable means the backend is assumed able to process
	// requests.
	StateAvailable State = iota + 1
	// StateBusy means the backend recently failed to return an endpoint;
	// it is skipped while Available backends exist.
	StateBusy
	// StateError means the backend exceeded the consecutive-failure
	// threshold and is excluded until the error-recovery interval
	// passes.
	StateError
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case StateAvailable:
		return "available"
	case StateBusy:
		return "busy"
	case StateError:
		return "error"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Record is one backend as one balancer sees it: the policy's lb_value
// and the backend's weight (mod_jk's lbfactor), the 3-state machine's
// state with its recovery deadline and failure streak, the dispatch
// counters, and the adaptive control plane's quarantine and probe flags.
// A driver keeps one per backend beside what its substrate adds — an
// endpoint pool, a mutex, a timer — and hands them to NewCore.
type Record struct {
	name  string
	index int

	lbValue     float64
	weight      float64 // 0 reads as 1
	state       State
	recoverAt   time.Duration // Busy/Error re-admission deadline; 0 when none is set
	consecFails int
	firstFailAt time.Duration
	dispatched  uint64
	completed   uint64
	traffic     int64

	// A quarantined record is skipped by the choice unless a probe is
	// armed through it, which lets exactly one request through to measure
	// whether the backend recovered.
	quarantined bool
	probeArmed  bool
	probing     bool
	probeStart  time.Duration
}

// NewRecord returns the record of an Available backend.
func NewRecord(name string) Record { return Record{name: name, state: StateAvailable} }

// Name returns the backend's name.
func (r *Record) Name() string { return r.name }

// Index returns the record's position among its core's records (the
// order given to NewCore), so per-backend tables — the web server's app
// servers, the distribution recorders — can be slices indexed by it.
func (r *Record) Index() int { return r.index }

// LBValue returns the policy's current lb_value.
func (r *Record) LBValue() float64 { return r.lbValue }

// State returns the stored state. A recovery that has fallen due is the
// driver's to apply: a timer at the deadline, or RecoverDue.
func (r *Record) State() State { return r.state }

// InFlight reports requests dispatched and not yet completed.
func (r *Record) InFlight() int { return int(r.dispatched - r.completed) }

// Dispatched reports the cumulative dispatch count.
func (r *Record) Dispatched() uint64 { return r.dispatched }

// Completed reports the cumulative completion count, failed exchanges
// included.
func (r *Record) Completed() uint64 { return r.completed }

// Traffic reports the bytes exchanged by completed dispatches (request
// plus response sizes) — the total_traffic accounting basis, kept under
// every policy so a runtime swap can reseed the lb_value consistently.
func (r *Record) Traffic() int64 { return r.traffic }

// Quarantined reports whether the adaptive control plane has drained the
// backend.
func (r *Record) Quarantined() bool { return r.quarantined }

// Weight returns the backend's lbfactor (default 1).
func (r *Record) Weight() float64 {
	if r.weight == 0 {
		return 1
	}
	return r.weight
}

// SetWeight assigns mod_jk's lbfactor: a weight-2 backend receives twice
// the traffic of a weight-1 backend, because the weighted policies divide
// their lb_value increments by it. A weight at or below zero, NaN or ±Inf
// reads as 1: NaN compares false against everything and would poison
// every later increment, and ±Inf would freeze them at 1/Inf = 0
// (internal/check testdata/weight-nan.script, weight-inf.script).
func (r *Record) SetWeight(w float64) {
	if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
		w = 1
	}
	r.weight = w
}

// scaled returns an lb_value increment normalized by the weight.
func (r *Record) scaled(delta float64) float64 { return delta / r.Weight() }

// drained reports a quarantine with no probe armed through it.
func (r *Record) drained() bool { return r.quarantined && !r.probeArmed }

// due reports a Busy or Error state whose recovery deadline passed before
// now.
func (r *Record) due(now time.Duration) bool {
	return r.state != StateAvailable && r.recoverAt != 0 && now > r.recoverAt
}

// stateAt is the state as read at now: a due recovery reads as Available
// without being stored.
func (r *Record) stateAt(now time.Duration) State {
	if r.due(now) {
		return StateAvailable
	}
	return r.state
}

// Config tunes the 3-state machine and the sweeps around the policy and
// mechanism. Zero fields take mod_jk-equivalent defaults.
type Config struct {
	// BusyRecovery is how long a backend stays Busy before it is tried
	// again (default 100 ms). A completed response readmits it at once.
	BusyRecovery time.Duration
	// ErrorThreshold is the number of consecutive failures that escalate
	// to Error (default 3, mirroring mod_jk's retry ladder).
	ErrorThreshold int
	// ErrorAfter additionally requires the consecutive failures to span
	// at least this long before escalating (default 2 s). Millibottle-
	// necks last tens to hundreds of milliseconds and can fail dozens
	// of concurrent acquisitions at once; only failures that persist
	// well beyond that horizon indicate a genuinely failed server.
	ErrorAfter time.Duration
	// ErrorRecovery is how long an Error backend is excluded before it is
	// tentatively readmitted (default 10 s).
	ErrorRecovery time.Duration
	// Sweeps is how many full sweeps over the backends a dispatch makes
	// before rejecting (mod_jk's balancer-level retries; default 3). The
	// caller's worker thread stays occupied across sweeps.
	Sweeps int
	// SweepPause separates consecutive sweeps (default 100 ms).
	SweepPause time.Duration
	// MaintainInterval runs the policy's Maintain hook (if it implements
	// Maintainer) on every backend at this period — mod_jk's global
	// maintain, which decays lb_values. It is 500 ms when left zero and
	// a maintaining policy is in use; the simulator's Balancer runs it.
	MaintainInterval time.Duration
	// StickySessions pins each session to the backend it first landed
	// on, overriding the policy unless that backend is in Error, drained
	// or already failed this dispatch — mod_jk's sticky_session.
	StickySessions bool
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
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

// Core is one balancer's decision state: its records, the live policy
// and mechanism, the config and the reject count. Its methods are the
// steps of the paper's algorithms; none reads a clock or takes a lock.
type Core struct {
	cfg      Config
	policy   Policy
	mech     Mechanism
	recs     []*Record
	eligible []*Record // scratch backing the list a Chooser picks from
	rejects  uint64
	onState  func(r *Record, from State)
}

// NewCore returns a core over the records, numbering them in order.
// onState runs whenever a record's state or recovery deadline changes,
// with from the state before: the driver emits its state event there and
// keeps its recovery timer, if it has one, at the deadline.
func NewCore(policy Policy, mech Mechanism, recs []*Record, cfg Config, onState func(r *Record, from State)) *Core {
	if policy == nil || mech == nil {
		panic("lb: nil policy or mechanism")
	}
	if len(recs) == 0 {
		panic("lb: no backends")
	}
	for i, r := range recs {
		r.index = i
	}
	return &Core{cfg: cfg.withDefaults(), policy: policy, mech: mech, recs: recs, onState: onState}
}

// Config returns the effective (default-filled) configuration.
func (c *Core) Config() Config { return c.cfg }

// Policy returns the active policy.
func (c *Core) Policy() Policy { return c.policy }

// Mechanism returns the active mechanism.
func (c *Core) Mechanism() Mechanism { return c.mech }

// Rejects reports how many walks ran out of sweeps.
func (c *Core) Rejects() uint64 { return c.rejects }

// setState moves r to state to with recovery deadline at (0: none),
// telling the driver when either changed.
func (c *Core) setState(r *Record, to State, at time.Duration) {
	if r.state == to && r.recoverAt == at {
		return
	}
	from := r.state
	r.state, r.recoverAt = to, at
	if c.onState != nil {
		c.onState(r, from)
	}
}

// Choose is the lower-level scheduler (paper Section IV-A): the pinned
// record when it may serve the walk's session — not in Error, not
// drained, not already failed this sweep — else the Available record
// with the lowest lb_value, else the Busy one (step 3's retry), each
// level skipping the records the walk already failed on and the drained
// ones. Ties break toward the earliest record, matching mod_jk's
// first-found scan; a Chooser policy picks among a level's eligible
// records instead. A recovery that has fallen due at now reads as
// Available. Choose returns nil when no record is eligible.
func (c *Core) Choose(w *Walk, pinned *Record, now time.Duration, rng *rand.Rand) *Record {
	if pinned != nil && pinned.stateAt(now) != StateError && !pinned.quarantined && !w.tried(pinned) {
		return pinned
	}
	if r := c.lowest(StateAvailable, w, now, rng); r != nil {
		return r
	}
	return c.lowest(StateBusy, w, now, rng)
}

// lowest chooses among the records in state s at now that the walk has
// not failed on and that are not drained.
func (c *Core) lowest(s State, w *Walk, now time.Duration, rng *rand.Rand) *Record {
	chooser, choosing := c.policy.(Chooser)
	eligible := c.eligible[:0]
	var best *Record
	for _, r := range c.recs {
		if r.stateAt(now) != s || r.drained() || w.tried(r) {
			continue
		}
		if choosing {
			eligible = append(eligible, r)
		} else if best == nil || r.lbValue < best.lbValue {
			best = r
		}
	}
	c.eligible = eligible
	if choosing && len(eligible) > 0 {
		return chooser.Choose(eligible, rng)
	}
	return best
}

// Walk is one dispatch's way through the core: the sweep it is on, the
// records it already failed on, the record it chose and the mechanism's
// poll on it. A driver keeps one per dispatch and may reuse it for the
// next.
type Walk struct {
	// failed is a slice scanned linearly, not a map: a balancer has a
	// handful of backends (the paper's testbed four), and the slice keeps
	// its backing array from one dispatch to the next.
	failed []*Record
	rec    *Record
	mech   Mechanism // the mechanism the poll on rec runs under
	sweep  int
	retry  int // poll sleeps so far on rec
}

// Begin starts the walk over, on its first sweep.
func (w *Walk) Begin() {
	w.failed, w.rec, w.mech, w.sweep, w.retry = w.failed[:0], nil, nil, 1, 0
}

func (w *Walk) tried(r *Record) bool {
	for _, x := range w.failed {
		if x == r {
			return true
		}
	}
	return false
}

// Assign makes r the walk's record: the mechanism's poll on it starts,
// under the live mechanism.
func (c *Core) Assign(w *Walk, r *Record) { w.rec, w.mech, w.retry = r, c.mech, 0 }

// Check reports whether the walk should take an endpoint from its
// record's pool now. It is false once the poll is over: the mechanism's
// timeout has run out (Algorithm 1's guard, while retry×sleep < timeout),
// or the poll was aborted during its last sleep (Aborted).
func (c *Core) Check(w *Walk) bool {
	if w.retry > 0 && c.Aborted(w) {
		return false
	}
	sleep, timeout := w.mech.poll()
	return sleep == 0 || time.Duration(w.retry)*sleep < timeout
}

// Aborted reports whether a poll in progress should end before its
// timeout: the control plane drained the record (an armed probe keeps
// polling — measuring the drained backend is its purpose) or swapped in
// a mechanism that does not poll. Unlike mod_jk, which holds the worker
// for the whole window, the remedy then frees it at once: every worker
// blocked here is one less emptying the web tier's accept queue, the
// paper's amplification path.
func (c *Core) Aborted(w *Walk) bool {
	sleep, _ := c.mech.poll()
	return w.rec.drained() || sleep == 0
}

// Missed records a check that found the record's pool empty. It returns
// the sleep before the next check, or false when the mechanism gives up
// on the record now, as the modified mechanism always does.
func (w *Walk) Missed() (time.Duration, bool) {
	sleep, _ := w.mech.poll()
	if sleep == 0 {
		return 0, false
	}
	w.retry++
	return sleep, true
}

// GiveUp ends the walk's poll on its record: the failure feeds the
// transition rule (Fail) and the record joins the walk's tried list, so
// the sweep moves on. The driver reports a probe armed through the
// record as failed first (DisarmProbe).
func (c *Core) GiveUp(w *Walk, now time.Duration) {
	c.Fail(w.rec, now)
	w.failed = append(w.failed, w.rec)
	w.rec = nil
}

// NextSweep is the walk's next step when Choose found nothing: the pause
// before another sweep over every backend, or false — counted as a
// reject — when the sweeps are spent.
func (c *Core) NextSweep(w *Walk) (time.Duration, bool) {
	if w.sweep >= c.cfg.Sweeps {
		c.rejects++
		return 0, false
	}
	w.sweep++
	w.failed = w.failed[:0]
	return c.cfg.SweepPause, true
}

// Claim records a dispatch to r once the driver took one of its
// endpoints: returning an endpoint proves the backend responsive (its
// failure streak ends and it is Available), the policy books the
// dispatch, and a probe armed through r starts at now.
func (c *Core) Claim(r *Record, info RequestInfo, now time.Duration) {
	r.consecFails = 0
	c.setState(r, StateAvailable, 0)
	c.policy.OnDispatch(r, info)
	r.dispatched++
	if r.probeArmed {
		r.probeArmed, r.probing, r.probeStart = false, true, now
	}
}

// Complete records a response from r: the policy books it, r is
// Available with no failure streak, and a probe in flight through r
// ends — Complete reports when it started.
func (c *Core) Complete(r *Record, info RequestInfo) (probeStart time.Duration, probed bool) {
	r.completed++
	r.traffic += info.RequestBytes + info.ResponseBytes
	c.policy.OnComplete(r, info)
	r.consecFails = 0
	c.setState(r, StateAvailable, 0)
	if !r.probing {
		return 0, false
	}
	r.probing = false
	return r.probeStart, true
}

// Unwind records a request to r whose exchange failed: it no longer
// counts as in flight and the in-flight policies take it off r's
// lb_value, but unlike Complete it proves nothing — the driver hands the
// failure to Fail next. Unwind reports whether a probe through r, in
// flight or armed, failed with it.
func (c *Core) Unwind(r *Record) (probeFailed bool) {
	r.completed++
	c.policy.OnComplete(r, RequestInfo{})
	probeFailed = r.probing || r.probeArmed
	r.probing, r.probeArmed = false, false
	return probeFailed
}

// DisarmProbe drops a probe armed through r whose request found no
// endpoint there, reporting whether one was armed: that probe failed.
func (c *Core) DisarmProbe(r *Record) bool {
	armed := r.probeArmed
	r.probeArmed = false
	return armed
}

// Fail is the transition rule, applied to a failure on r at now:
// Available becomes Busy until BusyRecovery has passed, and any state
// becomes Error until ErrorRecovery has passed once the consecutive
// failures both reach ErrorThreshold and span ErrorAfter — longer than
// any millibottleneck lasts.
func (c *Core) Fail(r *Record, now time.Duration) {
	c.RecoverDue(r, now)
	if r.consecFails == 0 {
		r.firstFailAt = now
	}
	r.consecFails++
	switch {
	case r.consecFails >= c.cfg.ErrorThreshold && now-r.firstFailAt >= c.cfg.ErrorAfter:
		c.setState(r, StateError, now+c.cfg.ErrorRecovery)
	case r.state == StateAvailable:
		c.setState(r, StateBusy, now+c.cfg.BusyRecovery)
	}
}

// Recover readmits a Busy or Error record at its recovery deadline: it
// is Available again, and an Error's failure streak starts over.
func (c *Core) Recover(r *Record) {
	if r.state == StateError {
		r.consecFails = 0
	}
	c.setState(r, StateAvailable, 0)
}

// RecoverDue applies r's recovery when its deadline passed before now —
// for a driver that recovers a record when it is next read.
func (c *Core) RecoverDue(r *Record, now time.Duration) {
	if r.due(now) {
		c.Recover(r)
	}
}

// SetPolicy swaps the policy at runtime. The counters survive, and every
// record's lb_value is reseeded to what the incoming policy would have
// accumulated from them, so current_load's lb_value == in-flight holds at
// once. Reseeding a PoolSeeder's samples and running a Maintainer are the
// driver's.
func (c *Core) SetPolicy(p Policy) {
	if p == nil {
		panic("lb: SetPolicy with nil policy")
	}
	c.policy = p
	for _, r := range c.recs {
		r.lbValue = p.Reseed(r)
	}
}

// SetMechanism swaps the mechanism: the next choice runs under the new
// one, and a poll in progress under the original ends at its next check
// when the new one does not poll (Aborted).
func (c *Core) SetMechanism(m Mechanism) {
	if m == nil {
		panic("lb: SetMechanism with nil mechanism")
	}
	c.mech = m
}

// SetQuarantined drains (on) or paroles r. A drained record is skipped
// by the choice and by sticky sessions, except for the one request of a
// probe armed with ArmProbe. Parole disarms a pending probe and, under a
// Cumulative policy, seeds r at the tier's highest lb_value — mod_jk's
// recovery seeding — or its frozen, now-minimal value would attract the
// whole tier's traffic in one wave (the recovery spike of the paper's
// Figs. 10–11, self-inflicted).
func (c *Core) SetQuarantined(r *Record, on bool) {
	r.quarantined = on
	if on {
		return
	}
	r.probeArmed = false
	if _, ok := c.policy.(Cumulative); ok {
		for _, o := range c.recs {
			if o.lbValue > r.lbValue {
				r.lbValue = o.lbValue
			}
		}
	}
}

// ArmProbe lets exactly one request through drained r, so the control
// plane can measure whether the backend recovered. It reads and writes r
// alone, and reports whether a probe was armed: not when r is not
// quarantined or a probe is already in flight.
func (c *Core) ArmProbe(r *Record) bool {
	if !r.quarantined || r.probing {
		return false
	}
	r.probeArmed = true
	return true
}
