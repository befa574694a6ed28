// Package adapt is the millibottleneck-aware adaptive control plane: a
// closed-loop controller that subscribes to the observability signals
// of internal/obs (online detector onsets/confirmations, reject and
// state events) plus per-request outcomes, and applies graded
// remediation to a running balancer through an Actuator:
//
//  1. Quarantine/drain — a backend whose online detector reports a
//     saturation onset is weighted out of the rotation; single probe
//     requests are let through periodically and the backend is
//     re-admitted once it answers them within an RT budget (or
//     unconditionally after a parole interval, which bounds starvation).
//  2. Hot-swap — when the windowed VLRT/failure fraction or the reject
//     rate trips a threshold, the controller escalates the balancer
//     configuration toward the paper's remedies at runtime (mechanism
//     first, then policy), and reverts step by step once the signals
//     stay below the clear thresholds. The hysteresis is fast-attack,
//     slow-release: trip and clear use separate thresholds, a short
//     dwell gates successive escalations, and a much longer ClearDwell
//     — during which the detectors must also stay silent — gates each
//     revert, so millibottleneck-scale noise cannot make the
//     controller flap and recurring flush cycles cannot bait it into
//     reverting between bursts.
//
// Guardrails: at most N−1 backends are ever quarantined, and if the
// last healthy backend is detected as stalled too, the controller lifts
// every quarantine and falls back to the information-free round_robin
// policy so requests keep draining.
//
// The controller is substrate-agnostic: internal/planes attaches it to
// both substrates, stepped on virtual-time events inside the
// deterministic simulation and from a wall-clock goroutine on the proxy.
package adapt

import (
	"sync"
	"time"

	"millibalance/internal/obs"
)

// Actuator is the balancer-side surface the controller acts on. All
// methods must be safe to call from the controller's signal handlers
// and must not call back into the controller.
type Actuator interface {
	// Backends lists the backend names the controller may quarantine.
	Backends() []string
	// SetPolicy hot-swaps the balancing policy by name.
	SetPolicy(name string)
	// SetMechanism hot-swaps the get_endpoint mechanism by name.
	SetMechanism(name string)
	// SetQuarantine drains (true) or re-admits (false) one backend.
	SetQuarantine(backend string, on bool)
	// ArmProbe lets one probe request through to a quarantined backend.
	ArmProbe(backend string)
	// TightenLimit squeezes (or restores) the admission gates'
	// concurrency limit (internal/admission) on every escalation — load
	// shedding buys headroom while the swap takes hold — until the
	// ladder has fully unwound. It reports whether a gate was present,
	// so substrates without admission armed record no tighten/relax
	// decisions.
	TightenLimit(on bool) bool
}

// Config tunes the controller. Zero values take the documented
// defaults; BasePolicy and BaseMechanism are filled by the substrate
// wiring with the balancer's starting configuration.
type Config struct {
	// Tick is the controller step period (default 100 ms).
	Tick time.Duration
	// Window is the sliding window over which VLRT and reject rates are
	// computed (default 1 s, rounded up to a whole number of ticks).
	Window time.Duration

	// --- quarantine/drain ---

	// DisableQuarantine turns the per-backend drain action off, leaving
	// only the hot-swap remediation.
	DisableQuarantine bool
	// ProbeInterval spaces probe requests to a quarantined backend
	// (default 200 ms).
	ProbeInterval time.Duration
	// ProbeRTBudget is the response-time budget a probe must meet for
	// the backend to count as recovered (default 300 ms).
	ProbeRTBudget time.Duration
	// ReadmitAfter is how many consecutive in-budget probes lift a
	// quarantine (default 1).
	ReadmitAfter int
	// MaxQuarantine is the parole bound: a backend still quarantined
	// this long is re-admitted unconditionally, which makes eventual
	// re-admission independent of probe outcomes (default 10 s).
	MaxQuarantine time.Duration
	// FlapWindow is the flap-damping horizon: a backend whose detector
	// re-fires within this long of its last re-admission is flapping —
	// a flush-style millibottleneck built from bursts of micro-stalls,
	// where each burst pause answers probes in budget and each
	// re-admission re-exposes the tier to a fresh pile-up. Every flap
	// extends the minimum re-quarantine hold by one ProbeInterval, so
	// the backend must stay responsive across the whole burst train
	// before it rejoins the rotation. The parole bound still caps the
	// total hold, so liveness is unaffected (default 1 s).
	FlapWindow time.Duration

	// --- hot-swap hysteresis ---

	// VLRTThreshold classifies an outcome as very long (default 1 s);
	// failed outcomes always count as bad.
	VLRTThreshold time.Duration
	// VLRTTrip and VLRTClear bound the windowed bad-outcome fraction:
	// at or above VLRTTrip the controller escalates, and only at or
	// below VLRTClear may it de-escalate (defaults 0.02 / 0.005).
	VLRTTrip  float64
	VLRTClear float64
	// RejectTrip and RejectClear bound the windowed balancer reject
	// rate in rejects per second (defaults 2 / 0.25).
	RejectTrip  float64
	RejectClear float64
	// MinSamples is the minimum windowed outcome count before the VLRT
	// fraction is trusted to trip (default 20).
	MinSamples int
	// OnsetTrip is the leading-indicator trip: when the windowed count
	// of detector onsets reaches it, each further onset applies one
	// remediation rung immediately, bypassing the dwell. VLRT evidence
	// inherently lags a millibottleneck by the VLRT threshold itself
	// (a very long request only counts once it completes), so a
	// controller that waits for it eats one full flush cycle per rung;
	// recurring onsets prove per-backend quarantine is not containing
	// the regime and justify escalating ahead of the outcome signal
	// (default 2; set negative to disable).
	OnsetTrip int
	// MinDwell is the minimum time between reconfigurations (default
	// 2 s).
	MinDwell time.Duration
	// ClearDwell is the slow-release side of the hysteresis: the clear
	// condition must hold this long — with no detector onset anywhere
	// in the tier for just as long — before one rung is reverted.
	// Millibottlenecks demand sub-second attack but leisurely release:
	// reverting while flushes still recur re-exposes the tier to a
	// fresh pile-up per cycle, so restoration waits until the
	// millibottlenecks themselves have stopped, not merely until the
	// remedy has suppressed their symptoms (default 5× MinDwell).
	ClearDwell time.Duration

	// --- targets ---

	// PolicyTarget and MechanismTarget are the escalation remedies
	// (defaults current_load / modified_get_endpoint).
	PolicyTarget    string
	MechanismTarget string
	// FallbackPolicy engages when every candidate looks stalled
	// (default round_robin).
	FallbackPolicy string
	// BasePolicy and BaseMechanism are the balancer's starting
	// configuration, restored on de-escalation. The substrate wiring
	// fills them from its own config when empty.
	BasePolicy    string
	BaseMechanism string

	// LogCapacity bounds the decision log ring (default 4096).
	LogCapacity int
}

func (c Config) withDefaults() Config {
	if c.Tick <= 0 {
		c.Tick = 100 * time.Millisecond
	}
	if c.Window <= 0 {
		c.Window = time.Second
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 200 * time.Millisecond
	}
	if c.ProbeRTBudget <= 0 {
		c.ProbeRTBudget = 300 * time.Millisecond
	}
	if c.ReadmitAfter <= 0 {
		c.ReadmitAfter = 1
	}
	if c.MaxQuarantine <= 0 {
		c.MaxQuarantine = 10 * time.Second
	}
	if c.FlapWindow <= 0 {
		c.FlapWindow = time.Second
	}
	if c.VLRTThreshold <= 0 {
		c.VLRTThreshold = time.Second
	}
	if c.VLRTTrip <= 0 {
		c.VLRTTrip = 0.02
	}
	if c.VLRTClear <= 0 {
		c.VLRTClear = 0.005
	}
	if c.RejectTrip <= 0 {
		c.RejectTrip = 2
	}
	if c.RejectClear <= 0 {
		c.RejectClear = 0.25
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 20
	}
	if c.OnsetTrip == 0 {
		c.OnsetTrip = 2
	}
	if c.MinDwell <= 0 {
		c.MinDwell = 2 * time.Second
	}
	if c.ClearDwell <= 0 {
		c.ClearDwell = 5 * c.MinDwell
	}
	if c.PolicyTarget == "" {
		c.PolicyTarget = "current_load"
	}
	if c.MechanismTarget == "" {
		c.MechanismTarget = "modified_get_endpoint"
	}
	if c.FallbackPolicy == "" {
		c.FallbackPolicy = "round_robin"
	}
	if c.LogCapacity <= 0 {
		c.LogCapacity = 4096
	}
	return c
}

// step is one rung of the escalation ladder.
type step struct {
	policy bool // true: swap policy; false: swap mechanism
	target string
	base   string
}

type backendState struct {
	quarantined bool
	since       time.Duration
	lastProbe   time.Duration
	goodProbes  int
	lastReadmit time.Duration
	flaps       int  // consecutive onset-shortly-after-readmit cycles
	spanOpen    bool // detector saturation span currently open
}

type rateBucket struct {
	outcomes int
	bad      int
	rejects  int
	onsets   int
}

// State is a point-in-time controller snapshot (the /admin/adapt
// payload).
type State struct {
	Level       int      `json:"level"`
	Tightened   bool     `json:"tightened,omitempty"`
	Fallback    bool     `json:"fallback"`
	Policy      string   `json:"policy"`
	Mechanism   string   `json:"mechanism"`
	Quarantined []string `json:"quarantined"`
	VLRTRate    float64  `json:"vlrt_rate"`
	RejectRate  float64  `json:"reject_rate"`
	Decisions   uint64   `json:"decisions"`
}

// Controller is the closed-loop adaptive controller. All methods are
// safe for concurrent use; in the deterministic simulation they are
// driven single-threaded on virtual-time events.
type Controller struct {
	mu  sync.Mutex
	cfg Config
	act Actuator
	log *DecisionLog

	order    []string
	backends map[string]*backendState

	steps      []step
	level      int // rungs of c.steps applied
	tightened  bool
	fallback   bool
	policy     string
	mechanism  string
	lastShift  time.Duration
	lastOnset  time.Duration
	clearArmed bool
	clearSince time.Duration

	buckets []rateBucket
	cur     int
}

// NewController builds a controller over the actuator's backends. The
// controller takes no actions until signals arrive.
func NewController(cfg Config, act Actuator) *Controller {
	if act == nil {
		panic("adapt: NewController with nil actuator")
	}
	cfg = cfg.withDefaults()
	c := &Controller{
		cfg:       cfg,
		act:       act,
		log:       NewDecisionLog(cfg.LogCapacity),
		backends:  make(map[string]*backendState),
		policy:    cfg.BasePolicy,
		mechanism: cfg.BaseMechanism,
	}
	for _, name := range act.Backends() {
		c.order = append(c.order, name)
		c.backends[name] = &backendState{}
	}
	if cfg.MechanismTarget != cfg.BaseMechanism {
		c.steps = append(c.steps, step{policy: false, target: cfg.MechanismTarget, base: cfg.BaseMechanism})
	}
	if cfg.PolicyTarget != cfg.BasePolicy {
		c.steps = append(c.steps, step{policy: true, target: cfg.PolicyTarget, base: cfg.BasePolicy})
	}
	nb := int((cfg.Window + cfg.Tick - 1) / cfg.Tick)
	if nb < 1 {
		nb = 1
	}
	c.buckets = make([]rateBucket, nb)
	return c
}

// TickInterval returns the configured controller step period.
func (c *Controller) TickInterval() time.Duration { return c.cfg.Tick }

// Log exposes the decision log.
func (c *Controller) Log() *DecisionLog { return c.log }

// State snapshots the controller.
func (c *Controller) State() State {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := State{
		Level:     c.level,
		Tightened: c.tightened,
		Fallback:  c.fallback,
		Policy:    c.policy,
		Mechanism: c.mechanism,
		Decisions: c.log.Appended(),
	}
	st.VLRTRate, st.RejectRate, _ = c.rates()
	for _, name := range c.order {
		if c.backends[name].quarantined {
			st.Quarantined = append(st.Quarantined, name)
		}
	}
	return st
}

// OnEvent consumes one observability event (the EventLog append hook).
// Detector onsets trigger quarantine, detector confirmations trigger an
// immediate probe of the (now recovered) backend, and rejects feed the
// reject-rate window.
func (c *Controller) OnEvent(ev obs.Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch ev.Kind {
	case obs.KindOnset:
		// Onsets block de-escalation even when no quarantine follows:
		// the tier is only quiet once the detectors are.
		if ev.T > c.lastOnset {
			c.lastOnset = ev.T
		}
		c.buckets[c.cur].onsets++
		if bs := c.backends[ev.Source]; bs != nil {
			bs.spanOpen = true
		}
		c.onsetLocked(ev.T, ev.Source)
		if c.cfg.OnsetTrip > 0 && c.windowOnsets() >= c.cfg.OnsetTrip {
			c.escalateLocked(ev.T, "onset_storm")
		}
	case obs.KindMillibottleneck:
		// The saturation span closed: the stalled backend is likely
		// responsive again, so probe it right away instead of waiting
		// out the probe interval.
		bs := c.backends[ev.Source]
		if bs != nil {
			bs.spanOpen = false
		}
		if bs != nil && bs.quarantined {
			bs.lastProbe = ev.T
			c.act.ArmProbe(ev.Source)
			c.record(Decision{T: ev.T, Action: ActionProbe, Backend: ev.Source, Reason: "mb_end"})
		}
	case obs.KindReject:
		c.buckets[c.cur].rejects++
	}
}

// OnOutcome consumes one request outcome.
func (c *Controller) OnOutcome(now time.Duration, rt time.Duration, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.buckets[c.cur].outcomes++
	if !ok || rt >= c.cfg.VLRTThreshold {
		c.buckets[c.cur].bad++
	}
}

// OnRejects consumes a batch of n balancer rejects (for substrates that
// poll counters instead of streaming reject events).
func (c *Controller) OnRejects(n int) {
	if n <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.buckets[c.cur].rejects += n
}

// OnProbe consumes one probe outcome for a quarantined backend.
func (c *Controller) OnProbe(now time.Duration, backend string, rt time.Duration, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	bs := c.backends[backend]
	if bs == nil || !bs.quarantined {
		return
	}
	if ok && rt <= c.cfg.ProbeRTBudget {
		bs.goodProbes++
		// While the detector's saturation span is still open the backend
		// is mid-millibottleneck no matter what one probe says — a flush
		// is a train of micro-stalls, and a probe landing in a gap
		// between them is not evidence of recovery. Flap damping
		// additionally holds a flapping backend one extra ProbeInterval
		// per flap (time-based, because substrates may run one probe per
		// balancer and report several outcomes for a single arm). The
		// parole bound still caps the total hold.
		hold := time.Duration(bs.flaps) * c.cfg.ProbeInterval
		if bs.goodProbes >= c.cfg.ReadmitAfter && !bs.spanOpen && now-bs.since >= hold {
			c.readmitLocked(now, backend, "probe_ok")
		}
		return
	}
	bs.goodProbes = 0
}

// Tick advances the controller one step: quarantine maintenance (probe
// scheduling and the parole bound), hysteresis evaluation, and window
// rotation. The substrate calls it every TickInterval.
func (c *Controller) Tick(now time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()

	for _, name := range c.order {
		bs := c.backends[name]
		if !bs.quarantined {
			continue
		}
		if now-bs.since >= c.cfg.MaxQuarantine {
			c.readmitLocked(now, name, "max_quarantine")
			continue
		}
		if now-bs.lastProbe >= c.cfg.ProbeInterval {
			bs.lastProbe = now
			c.act.ArmProbe(name)
			c.record(Decision{T: now, Action: ActionProbe, Backend: name, Reason: "interval"})
		}
	}

	vlrtRate, rejectRate, outcomes := c.rates()
	trip := (outcomes >= c.cfg.MinSamples && vlrtRate >= c.cfg.VLRTTrip) ||
		rejectRate >= c.cfg.RejectTrip
	clear := vlrtRate <= c.cfg.VLRTClear && rejectRate <= c.cfg.RejectClear
	switch {
	case trip:
		c.clearArmed = false
		if now-c.lastShift >= c.cfg.MinDwell {
			c.escalateLocked(now, "trip")
		}
	case clear:
		if !c.clearArmed {
			c.clearArmed = true
			c.clearSince = now
		} else if now-c.clearSince >= c.cfg.ClearDwell && now-c.lastShift >= c.cfg.MinDwell &&
			now-c.lastOnset >= c.cfg.ClearDwell {
			// Slow release: revert only once the rates have stayed clear
			// AND the detectors have been silent for the full ClearDwell.
			// A remedy that is merely masking recurring millibottlenecks
			// keeps the rates clear while onsets continue; reverting then
			// would re-expose the tier once per flush cycle.
			c.deescalateLocked(now, vlrtRate, rejectRate)
		}
	default:
		c.clearArmed = false
	}

	c.cur = (c.cur + 1) % len(c.buckets)
	c.buckets[c.cur] = rateBucket{}
}

// rates sums the window buckets; the caller holds c.mu.
func (c *Controller) rates() (vlrtRate, rejectRate float64, outcomes int) {
	bad, rejects := 0, 0
	for _, b := range c.buckets {
		outcomes += b.outcomes
		bad += b.bad
		rejects += b.rejects
	}
	if outcomes > 0 {
		vlrtRate = float64(bad) / float64(outcomes)
	}
	windowSec := (time.Duration(len(c.buckets)) * c.cfg.Tick).Seconds()
	rejectRate = float64(rejects) / windowSec
	return vlrtRate, rejectRate, outcomes
}

// onsetLocked handles a detector onset for one backend.
func (c *Controller) onsetLocked(now time.Duration, name string) {
	if c.cfg.DisableQuarantine || c.fallback {
		return
	}
	bs := c.backends[name]
	if bs == nil || bs.quarantined {
		return
	}
	quarantined := 0
	for _, other := range c.backends {
		if other.quarantined {
			quarantined++
		}
	}
	if quarantined >= len(c.order)-1 {
		// The last healthy backend looks stalled too: draining it would
		// leave nowhere to route. Lift every quarantine and fall back to
		// round_robin so requests keep draining somewhere.
		c.enterFallbackLocked(now)
		return
	}
	if bs.lastReadmit > 0 && now-bs.lastReadmit <= c.cfg.FlapWindow {
		bs.flaps++
	} else {
		bs.flaps = 0
	}
	bs.quarantined = true
	bs.since, bs.lastProbe, bs.goodProbes = now, now, 0
	c.act.SetQuarantine(name, true)
	vlrt, rej, _ := c.rates()
	c.record(Decision{T: now, Action: ActionQuarantine, Backend: name,
		Reason: "mb_onset", VLRTRate: vlrt, RejectRate: rej, Level: c.level})
	// Tier-wide stall reflex: a strict majority of backends stalled at
	// once means every dispatch path risks the original mechanism's
	// polling pile-up — the paper's amplifier. The mechanism rung is
	// cheap and reversible, so apply it immediately instead of waiting
	// for the VLRT window to fill and the dwell to pass (by then the
	// millibottleneck is over and the damage done).
	if 2*(quarantined+1) > len(c.order) {
		c.ensureFailFastLocked(now, "tier_stall")
	}
}

// ensureFailFastLocked applies the pending mechanism rung right away,
// bypassing the dwell gate. A no-op when the next rung is a policy swap
// or the ladder is exhausted.
func (c *Controller) ensureFailFastLocked(now time.Duration, reason string) {
	if c.level >= len(c.steps) || c.steps[c.level].policy {
		return
	}
	s := c.steps[c.level]
	c.level++
	c.mechanism = s.target
	c.act.SetMechanism(s.target)
	c.lastShift = now
	vlrt, rej, _ := c.rates()
	c.record(Decision{T: now, Action: ActionSwapMechanism, Policy: c.policy,
		Mechanism: c.mechanism, Reason: reason, VLRTRate: vlrt, RejectRate: rej, Level: c.level})
	c.setTightenLocked(now, true, reason)
}

// readmitLocked lifts one quarantine.
func (c *Controller) readmitLocked(now time.Duration, name, reason string) {
	bs := c.backends[name]
	bs.quarantined = false
	bs.goodProbes = 0
	bs.lastReadmit = now
	c.act.SetQuarantine(name, false)
	c.record(Decision{T: now, Action: ActionReadmit, Backend: name, Reason: reason, Level: c.level})
}

// enterFallbackLocked lifts every quarantine and swaps to the fallback
// policy.
func (c *Controller) enterFallbackLocked(now time.Duration) {
	// Everything is stalled: polling any backend holds workers for the
	// full acquire window, so make sure the fail-fast mechanism is in
	// before opening the floodgates.
	c.ensureFailFastLocked(now, "all_backends_stalled")
	for _, name := range c.order {
		bs := c.backends[name]
		if bs.quarantined {
			bs.quarantined = false
			bs.goodProbes = 0
			c.act.SetQuarantine(name, false)
		}
	}
	c.fallback = true
	c.policy = c.cfg.FallbackPolicy
	c.act.SetPolicy(c.cfg.FallbackPolicy)
	c.lastShift = now
	c.clearArmed = false
	vlrt, rej, _ := c.rates()
	c.record(Decision{T: now, Action: ActionFallback, Policy: c.policy,
		Mechanism: c.mechanism, Reason: "all_backends_stalled",
		VLRTRate: vlrt, RejectRate: rej, Level: c.level})
}

// windowOnsets sums the detector onsets across the window buckets; the
// caller holds c.mu.
func (c *Controller) windowOnsets() int {
	n := 0
	for _, b := range c.buckets {
		n += b.onsets
	}
	return n
}

// setTightenLocked drives the admission-gate squeeze. Only an actuator
// over a live gate records the transition; state is edge-triggered so
// repeated escalations do not stack halvings.
func (c *Controller) setTightenLocked(now time.Duration, on bool, reason string) {
	if c.tightened == on {
		return
	}
	if !c.act.TightenLimit(on) {
		return
	}
	c.tightened = on
	action := ActionTightenLimit
	if !on {
		action = ActionRelaxLimit
	}
	c.record(Decision{T: now, Action: action, Reason: reason, Level: c.level})
}

// escalateLocked applies the next remediation rung.
func (c *Controller) escalateLocked(now time.Duration, reason string) {
	if c.fallback {
		return
	}
	// Tighten admission with the first rung (and keep the squeeze on an
	// exhausted ladder): shedding at the door buys the tier headroom
	// while the swap takes effect.
	c.setTightenLocked(now, true, reason)
	if c.level >= len(c.steps) {
		return
	}
	s := c.steps[c.level]
	c.level++
	action := ActionSwapMechanism
	if s.policy {
		c.policy = s.target
		c.act.SetPolicy(s.target)
		action = ActionSwapPolicy
	} else {
		c.mechanism = s.target
		c.act.SetMechanism(s.target)
	}
	c.lastShift = now
	vlrt, rej, _ := c.rates()
	c.record(Decision{T: now, Action: action, Policy: c.policy,
		Mechanism: c.mechanism, Reason: reason, VLRTRate: vlrt, RejectRate: rej, Level: c.level})
}

// deescalateLocked exits the fallback or undoes the most recent rung.
func (c *Controller) deescalateLocked(now time.Duration, vlrt, rej float64) {
	if c.fallback {
		c.fallback = false
		c.policy = c.cfg.BasePolicy
		for _, s := range c.steps[:c.level] {
			if s.policy {
				c.policy = s.target
			}
		}
		c.act.SetPolicy(c.policy)
		c.lastShift = now
		c.clearArmed = false
		c.record(Decision{T: now, Action: ActionFallbackExit, Policy: c.policy,
			Mechanism: c.mechanism, Reason: "clear", VLRTRate: vlrt, RejectRate: rej, Level: c.level})
		return
	}
	if c.level == 0 {
		return
	}
	c.level--
	s := c.steps[c.level]
	action := ActionRevertMechanism
	if s.policy {
		c.policy = s.base
		c.act.SetPolicy(s.base)
		action = ActionRevertPolicy
	} else {
		c.mechanism = s.base
		c.act.SetMechanism(s.base)
	}
	c.lastShift = now
	c.clearArmed = false
	c.record(Decision{T: now, Action: action, Policy: c.policy,
		Mechanism: c.mechanism, Reason: "clear", VLRTRate: vlrt, RejectRate: rej, Level: c.level})
	// Relax the admission squeeze only once the ladder is fully unwound
	// — the slow-release side of the hysteresis applies to shedding too.
	if c.level == 0 {
		c.setTightenLocked(now, false, "clear")
	}
}

func (c *Controller) record(d Decision) { c.log.Append(d) }
