// Package planes attaches the control planes — prequal probing, the
// admission gate and the adaptive ladder — to a substrate's balancer
// drivers, once for both substrates. A substrate supplies only what
// differs: its clock, its tick, its drivers (the simulator's web
// balancers, the proxy's Balancer), its prober, the waiter driver that
// queues at a gate, and its stall signal. All of it runs at arm time;
// per request the only plane call is adapt.Controller.OnOutcome.
package planes

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"millibalance/internal/adapt"
	"millibalance/internal/admission"
	"millibalance/internal/lb"
	"millibalance/internal/obs"
	"millibalance/internal/probe"
	"millibalance/internal/telemetry"
)

// Attachment is one substrate's control planes on its clock. Arm them
// in order: probing before the balancers are built, the gates with
// them, the adaptive ladder last.
type Attachment struct {
	now      func() time.Duration
	pools    *probe.Pools
	reseed   func()
	gates    []*admission.Gate
	backends []string
	drivers  []Driver
}

// New returns an attachment on the substrate's clock, with no plane
// armed, for the substrate to hold by value and not copy once armed.
func New(now func() time.Duration) Attachment { return Attachment{now: now} }

// Clock returns the substrate's clock every plane reads.
func (a *Attachment) Clock() func() time.Duration { return a.now }

// ArmProbing builds the probe pools on the attachment's clock, and the
// substrate's prober over them, when the run can dispatch through
// prequal: an explicit probe config, prequal as the static policy, or
// prequal among the ladder's swap targets. newProber returns the
// prober's Reseed (clear the pools, fire one probe round at once). It
// reports whether it armed. A run that never can skips the subsystem,
// keeping its event sequence.
func (a *Attachment) ArmProbing(pcfg *probe.Config, policy string, ac *adapt.Config, newProber func(*probe.Pools) (reseed func())) bool {
	if pcfg == nil && policy != "prequal" && (ac == nil || ac.PolicyTarget != "prequal" && ac.FallbackPolicy != "prequal") {
		return false
	}
	var cfg probe.Config
	if pcfg != nil {
		cfg = *pcfg
	}
	a.pools = probe.NewPools(cfg, a.now)
	a.reseed = newProber(a.pools)
	return true
}

// Pools returns the probe pools (nil unless probing is armed).
func (a *Attachment) Pools() *probe.Pools { return a.pools }

// AttachPools hands a prequal policy the pools and the prober's Reseed
// as its seed hook, so a runtime swap to it starts from live samples.
// Other policies, and every policy while probing is off, pass through.
func (a *Attachment) AttachPools(p lb.Policy) lb.Policy {
	if pq, ok := p.(*lb.Prequal); ok && a.pools != nil {
		pq.AttachPools(a.pools)
		pq.SetSeedHook(a.reseed)
	}
	return p
}

// NewGate builds an admission gate on the attachment's clock. Each drop
// is appended to events as a KindAdmissionDrop from source; a nil log
// records none. The substrate drives the gate's waiters itself.
func (a *Attachment) NewGate(cfg admission.Config, fallbackLimit int, events *obs.EventLog, source string) *admission.Gate {
	g := admission.NewGate(cfg, fallbackLimit)
	g.SetClock(a.now)
	if events != nil {
		g.SetDropHook(func(now time.Duration, cls admission.Class, r admission.Reason) {
			events.Append(obs.Event{
				T:      now,
				Kind:   obs.KindAdmissionDrop,
				Source: source,
				Reason: r.String(),
				Class:  cls.String(),
			})
		})
	}
	a.gates = append(a.gates, g)
	return g
}

// Registrar is a telemetry sampler: telemetry.Sampler on the simulator,
// telemetry.WallSampler on the proxy.
type Registrar interface {
	Register(source, signal string, read func() float64)
}

// GateGauges registers g's admission gauges under source; none for a
// nil gate.
func (a *Attachment) GateGauges(r Registrar, source string, g *admission.Gate) {
	if g == nil {
		return
	}
	r.Register(source, telemetry.SignalAdmitLimit, func() float64 { return float64(g.Limit()) })
	r.Register(source, telemetry.SignalAdmitInFlight, func() float64 { return float64(g.InFlight()) })
	r.Register(source, telemetry.SignalAdmitQueue, func() float64 { return float64(g.Queued()) })
	r.Register(source, telemetry.SignalAdmitDropRate, func() float64 { return g.DropRate(a.now()) })
}

// ProbeGauges registers backend's probe-pool gauges; none while probing
// is off. Staleness reads -1 while the backend has no sample.
func (a *Attachment) ProbeGauges(r Registrar, backend string) {
	pools := a.pools
	if pools == nil {
		return
	}
	r.Register(backend, telemetry.SignalProbePoolDepth, func() float64 { return float64(pools.Depth(backend)) })
	r.Register(backend, telemetry.SignalProbeStalenessMs, func() float64 {
		age, ok := pools.Staleness(backend)
		if !ok {
			return -1
		}
		return float64(age) / float64(time.Millisecond)
	})
}

// ValidateLadder checks the adaptive ladder's swap targets against the
// policies the substrate's drivers can run and the mechanisms both
// substrates run. Nil is valid: the ladder is not armed.
func ValidateLadder(ac *adapt.Config, policies []string) error {
	if ac == nil {
		return nil
	}
	for _, p := range []string{ac.PolicyTarget, ac.FallbackPolicy} {
		if p != "" && !slices.Contains(policies, p) {
			return fmt.Errorf("unknown adaptive policy %q (have %s)", p, strings.Join(policies, ", "))
		}
	}
	if ac.MechanismTarget != "" {
		if _, ok := lb.MechanismByName(ac.MechanismTarget, nil); !ok {
			return fmt.Errorf("unknown adaptive mechanism %q", ac.MechanismTarget)
		}
	}
	return nil
}

// Driver is one balancer the adaptive ladder acts on, by name: a name
// reaching it passed ValidateLadder or is its starting configuration.
// SetProbeHook routes each quarantine probe's outcome to fn.
type Driver interface {
	SetPolicy(name string)
	SetMechanism(name string)
	SetQuarantine(backend string, on bool) bool
	ArmProbe(backend string) bool
	SetProbeHook(fn func(backend string, rt time.Duration, ok bool))
}

// Ladder is a substrate's half of the adaptive attachment: the drivers'
// starting Policy and Mechanism, the Backends the controller may
// quarantine and the Drivers every action fans out to.
type Ladder struct {
	Policy, Mechanism string
	Backends          []string
	Drivers           []Driver
}

// ArmAdapt builds the controller with the attachment as its actuator
// and routes the drivers' probe hooks to it. Empty base names in cfg
// take the ladder's starting configuration, the mechanism in its long
// form so base and target compare equal. The substrate then calls the
// controller's Tick on its own tick and feeds it its stall signal.
func (a *Attachment) ArmAdapt(cfg adapt.Config, l Ladder) *adapt.Controller {
	if cfg.BasePolicy == "" {
		cfg.BasePolicy = l.Policy
	}
	if cfg.BaseMechanism == "" {
		cfg.BaseMechanism = l.Mechanism
		if m, ok := lb.MechanismByName(l.Mechanism, nil); ok {
			cfg.BaseMechanism = m.Name()
		}
	}
	a.backends, a.drivers = l.Backends, l.Drivers
	ctrl := adapt.NewController(cfg, a)
	onProbe := func(backend string, rt time.Duration, ok bool) { ctrl.OnProbe(a.now(), backend, rt, ok) }
	for _, d := range l.Drivers {
		d.SetProbeHook(onProbe)
	}
	return ctrl
}

// Backends, SetPolicy, SetMechanism, SetQuarantine, ArmProbe and
// TightenLimit make the attachment the adapt.Actuator over every driver
// and gate. Each driver gets its
// own probe, since each holds its own endpoint pools and needs its own
// evidence; TightenLimit reports false, so no decision is recorded, when
// admission is not armed.
func (a *Attachment) Backends() []string { return a.backends }

// SetPolicy swaps every driver's policy.
func (a *Attachment) SetPolicy(name string) {
	for _, d := range a.drivers {
		d.SetPolicy(name)
	}
}

// SetMechanism swaps every driver's mechanism.
func (a *Attachment) SetMechanism(name string) {
	for _, d := range a.drivers {
		d.SetMechanism(name)
	}
}

// SetQuarantine drains or re-admits backend on every driver.
func (a *Attachment) SetQuarantine(backend string, on bool) {
	for _, d := range a.drivers {
		d.SetQuarantine(backend, on)
	}
}

// ArmProbe arms one probe to backend on every driver.
func (a *Attachment) ArmProbe(backend string) {
	for _, d := range a.drivers {
		d.ArmProbe(backend)
	}
}

// TightenLimit squeezes or restores every gate.
func (a *Attachment) TightenLimit(on bool) bool {
	for _, g := range a.gates {
		g.Tighten(on)
	}
	return len(a.gates) > 0
}
