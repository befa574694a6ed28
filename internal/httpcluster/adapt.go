package httpcluster

import (
	"sync"
	"time"

	"millibalance/internal/adapt"
)

// Adaptive control plane wiring for the wall-clock substrate: one
// adapt.Controller per proxy, driven by a goroutine ticker instead of
// virtual-time events. The simulator feeds the controller from its
// online millibottleneck detectors; here the runner synthesizes the
// same onset/recovery signals from the balancer's own counters — a
// backend whose endpoint pool is exhausted with requests in flight and
// zero completions over a tick is stalled in exactly the sense the
// paper's detectors flag. Outcomes stream in from the proxy's request
// handler and probe results from the balancer's probe hook, so the
// remediation ladder (quarantine → mechanism swap → policy swap →
// round_robin fallback) is identical across substrates.

// proxyActuator adapts the proxy's balancer (and, when armed, its
// admission gate) to adapt.Actuator.
type proxyActuator struct {
	p *Proxy
}

// Backends implements adapt.Actuator.
func (a proxyActuator) Backends() []string {
	out := make([]string, 0, len(a.p.bal.Backends()))
	for _, be := range a.p.bal.Backends() {
		out = append(out, be.Name())
	}
	return out
}

// SetPolicy implements adapt.Actuator.
func (a proxyActuator) SetPolicy(name string) {
	if pol, err := ParsePolicy(name); err == nil {
		a.p.bal.SetPolicy(pol)
	}
}

// SetMechanism implements adapt.Actuator.
func (a proxyActuator) SetMechanism(name string) {
	if m, err := ParseMechanism(name); err == nil {
		a.p.bal.SetMechanism(m)
	}
}

// SetQuarantine implements adapt.Actuator.
func (a proxyActuator) SetQuarantine(backend string, on bool) {
	a.p.bal.SetQuarantine(backend, on)
}

// ArmProbe implements adapt.Actuator.
func (a proxyActuator) ArmProbe(backend string) {
	a.p.bal.ArmProbe(backend)
}

// TightenLimit implements adapt.LimitActuator over the proxy's
// admission gate; false (no decision) when admission is not armed.
func (a proxyActuator) TightenLimit(on bool) bool {
	if a.p.adm == nil {
		return false
	}
	a.p.adm.Tighten(on)
	return true
}

// adaptRunner owns the controller goroutine.
type adaptRunner struct {
	p    *Proxy
	ctrl *adapt.Controller
	stop chan struct{}
	wg   sync.WaitGroup

	watch       *adapt.StallWatch
	lastRejects uint64
}

// armAdapt builds the controller and starts the runner. Called from
// StartProxy before the listener serves traffic.
func (p *Proxy) armAdapt(acfg adapt.Config) {
	if acfg.BasePolicy == "" {
		acfg.BasePolicy = p.cfg.Policy.String()
	}
	if acfg.BaseMechanism == "" {
		acfg.BaseMechanism = p.cfg.Mechanism.String()
	}
	ctrl := adapt.NewController(acfg, proxyActuator{p})
	p.adaptC = ctrl
	p.bal.SetProbeHook(func(be *Backend, rt time.Duration, ok bool) {
		ctrl.OnProbe(p.now(), be.Name(), rt, ok)
	})
	r := &adaptRunner{
		p:     p,
		ctrl:  ctrl,
		stop:  make(chan struct{}),
		watch: adapt.NewStallWatch(),
	}
	p.adaptR = r
	r.wg.Add(1)
	go r.run()
}

// Adapt exposes the proxy's adaptive controller (nil unless
// ProxyConfig.Adapt was set).
func (p *Proxy) Adapt() *adapt.Controller { return p.adaptC }

func (r *adaptRunner) run() {
	defer r.wg.Done()
	ticker := time.NewTicker(r.ctrl.TickInterval())
	defer ticker.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-ticker.C:
			r.step()
		}
	}
}

// step synthesizes detector signals from the balancer counters, then
// advances the controller clock.
func (r *adaptRunner) step() {
	now := r.p.now()

	if rejects := r.p.bal.Rejects(); rejects > r.lastRejects {
		r.ctrl.OnRejects(int(rejects - r.lastRejects))
		r.lastRejects = rejects
	}

	for _, be := range r.p.bal.Backends() {
		// Each gauge holds the backend's lock for a few nanoseconds, so
		// the sampler does not perturb the dispatch path it is watching.
		s := adapt.BackendSample{
			Completed:     be.Completed(),
			InFlight:      be.InFlight(),
			FreeEndpoints: be.FreeEndpoints(),
		}
		if ev, fire := r.watch.Observe(now, be.Name(), s); fire {
			r.ctrl.OnEvent(ev)
		}
	}

	r.ctrl.Tick(now)
}

// close stops the runner goroutine.
func (r *adaptRunner) close() {
	close(r.stop)
	r.wg.Wait()
}
