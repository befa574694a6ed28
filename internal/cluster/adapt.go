package cluster

import (
	"millibalance/internal/adapt"
	"millibalance/internal/lb"
	"millibalance/internal/sim"
)

// Adaptive control plane wiring for the deterministic substrate: one
// adapt.Controller per cluster, stepped on virtual-time events. The
// event log's append hook streams detector onsets/confirmations and
// rejects into the controller the instant they are emitted, probe
// outcomes flow back through each balancer's probe hook, and a
// recurring engine timer drives the controller tick — everything stays
// on the single simulation thread, so adaptive runs are exactly as
// reproducible as static ones.

// webActuator fans controller actions out to every web server's
// balancer. Each web runs its own mod_jk instance, so a hot-swap or
// quarantine applies tier-wide, the way a configuration push would.
type webActuator struct {
	c *Cluster
}

// Backends implements adapt.Actuator: the app-server names.
func (a webActuator) Backends() []string {
	out := make([]string, 0, len(a.c.Apps))
	for _, app := range a.c.Apps {
		out = append(out, app.Name())
	}
	return out
}

// SetPolicy implements adapt.Actuator. Each balancer gets a fresh
// policy instance so stateful policies (round_robin's rotation) stay
// per-balancer, matching how New distributes mechanisms. Resolution
// goes through newPolicy so a prequal target arrives with the
// cluster's probe pools attached; the balancer's SetPolicy then
// triggers the pool reseeding (clear + immediate probe round).
func (a webActuator) SetPolicy(name string) {
	for _, w := range a.c.Webs {
		p, ok := a.c.newPolicy(name)
		if !ok {
			return
		}
		w.Balancer().SetPolicy(p)
	}
}

// SetMechanism implements adapt.Actuator.
func (a webActuator) SetMechanism(name string) {
	for _, w := range a.c.Webs {
		m, ok := lb.MechanismByName(name, a.c.Eng)
		if !ok {
			return
		}
		w.Balancer().SetMechanism(m)
	}
}

// SetQuarantine implements adapt.Actuator.
func (a webActuator) SetQuarantine(backend string, on bool) {
	a.eachCandidate(backend, func(bal *lb.Balancer, cand *lb.Candidate) {
		bal.SetQuarantined(cand, on)
	})
}

// ArmProbe implements adapt.Actuator: one probe per web balancer (each
// balancer holds its own endpoint pool, so each needs its own
// evidence).
func (a webActuator) ArmProbe(backend string) {
	a.eachCandidate(backend, func(bal *lb.Balancer, cand *lb.Candidate) {
		bal.ArmProbe(cand)
	})
}

// TightenLimit implements adapt.LimitActuator: squeeze (or restore)
// every web's admission gate alongside a ladder shift. Reports false —
// no decision recorded — when admission is not armed.
func (a webActuator) TightenLimit(on bool) bool {
	if len(a.c.admGates) == 0 {
		return false
	}
	for _, g := range a.c.admGates {
		g.Tighten(on)
	}
	return true
}

func (a webActuator) eachCandidate(backend string, fn func(*lb.Balancer, *lb.Candidate)) {
	for _, w := range a.c.Webs {
		bal := w.Balancer()
		for _, cand := range bal.Candidates() {
			if cand.Name() == backend {
				fn(bal, cand)
			}
		}
	}
}

// armAdaptive builds the controller and wires it into the event log,
// the balancers' probe hooks, the outcome stream and a recurring tick.
// Called from New after instrument(), with c.events non-nil.
func (c *Cluster) armAdaptive(acfg adapt.Config) {
	if acfg.BasePolicy == "" {
		acfg.BasePolicy = c.cfg.Policy
	}
	if acfg.BaseMechanism == "" {
		// Normalize CLI short names so base and target compare equal.
		if m, ok := lb.MechanismByName(c.cfg.Mechanism, c.Eng); ok {
			acfg.BaseMechanism = m.Name()
		} else {
			acfg.BaseMechanism = c.cfg.Mechanism
		}
	}
	ctrl := adapt.NewController(acfg, webActuator{c})
	c.adapt = ctrl
	c.addEventHook(ctrl.OnEvent, false)
	for _, w := range c.Webs {
		w.Balancer().SetProbeHook(func(cand *lb.Candidate, rt sim.Time, ok bool) {
			ctrl.OnProbe(c.Eng.Now(), cand.Name(), rt, ok)
		})
	}
	var tick func()
	tick = func() {
		ctrl.Tick(c.Eng.Now())
		c.Eng.Schedule(ctrl.TickInterval(), tick)
	}
	c.Eng.Schedule(ctrl.TickInterval(), tick)
}

// AdaptController exposes the adaptive controller (nil unless
// Config.Adaptive was set).
func (c *Cluster) AdaptController() *adapt.Controller { return c.adapt }
