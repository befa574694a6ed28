package httpcluster

import (
	"context"
	"io"
	"time"

	"millibalance/internal/adapt"
	"millibalance/internal/admission"
	"millibalance/internal/planes"
	"millibalance/internal/probe"
	"millibalance/internal/telemetry"
)

// The wall-clock substrate's half of the control planes
// (internal/planes): the proxy's clock, a goroutine ticker that Close
// stops, the one Balancer as the driver, a prober over real sockets,
// the goroutine wait plane at the gate (admission.go) and a stall
// signal polled from the balancer's counters. StartProxy arms them
// before the listener serves traffic.

// armAdmission builds the gate and its goroutine wait plane. Limits are
// clamped to the worker pool — the gate must never promise concurrency
// the pool cannot run, or admitted requests would block on the worker
// channel and re-create the pile-up the plane exists to prevent.
func (p *Proxy) armAdmission(acfg admission.Config) {
	acfg.Limit = min(acfg.Limit, p.cfg.Workers)
	acfg.MaxLimit = min(acfg.MaxLimit, p.cfg.Workers)
	p.adm = p.planes.NewGate(acfg, p.cfg.Workers, p.events, "proxy")
	p.admPlane = newAdmissionPlane(p.adm, p.planes.Clock(), &p.waiting)
}

// Admission exposes the admission gate (nil unless ProxyConfig.Admission
// or ProxyConfig.Resilience armed it).
func (p *Proxy) Admission() *admission.Gate { return p.adm }

// armProbing builds the pools and the wall prober when the proxy can
// dispatch through prequal, and starts probing. The prober is
// rate-coupled to the served counter and fetches through roundTrip, the
// requests' own path over the (possibly fault-wrapped) transport, so
// probes see the network the traffic sees. Each backend has a slot of its
// own for its probes, which the prober runs one at a time.
func (p *Proxy) armProbing(backends []*Backend) {
	var reseed func()
	armed := p.planes.ArmProbing(p.cfg.Probe, p.cfg.Policy.String(), p.cfg.Adapt, func(pools *probe.Pools) func() {
		names := make([]string, len(backends))
		for i, be := range backends {
			names[i] = be.Name()
		}
		slots := make([]exchangeSlot, len(backends))
		path := []byte(probe.ProbePath)
		fetch := func(i int, deadline time.Time) (int, io.ReadCloser, error) {
			status, _, body, err := p.roundTrip(context.Background(), &slots[i], path, backends[i], deadline)
			return status, body, err
		}
		p.prober = probe.NewWallProber(pools, names, p.served.Load, fetch)
		reseed = p.prober.Reseed
		return reseed
	})
	if armed {
		p.bal.SetProbePools(p.planes.Pools(), reseed)
		p.prober.Start()
	}
}

// ProbePools exposes the probing subsystem's pools (nil when probing is
// not armed).
func (p *Proxy) ProbePools() *probe.Pools { return p.planes.Pools() }

// proxyDriver is the proxy's Balancer as a planes.Driver: names resolve
// to the balancer's one instance per policy, so round_robin resumes its
// rotation on a swap back.
type proxyDriver struct{ *Balancer }

func (d proxyDriver) SetPolicy(name string) {
	pol, _ := ParsePolicy(name)
	d.Balancer.SetPolicy(pol)
}

func (d proxyDriver) SetMechanism(name string) {
	m, _ := ParseMechanism(name)
	d.Balancer.SetMechanism(m)
}

// armAdapt attaches the adaptive ladder to the balancer and ticks it
// from a goroutine that Close stops. Lacking the simulator's detectors,
// the proxy polls its stall signal each tick: the rejects delta, and
// adapt.StallWatch over each backend's counters.
func (p *Proxy) armAdapt(acfg adapt.Config) {
	var backends []string
	for _, be := range p.bal.Backends() {
		backends = append(backends, be.Name())
	}
	ctrl := p.planes.ArmAdapt(acfg, planes.Ladder{
		Policy:    p.bal.CurrentPolicy().String(),
		Mechanism: p.bal.CurrentMechanism().String(),
		Backends:  backends,
		Drivers:   []planes.Driver{proxyDriver{p.bal}},
	})
	p.adaptC = ctrl
	stop := make(chan struct{})
	p.adaptStop = stop
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		ticker := time.NewTicker(ctrl.TickInterval())
		defer ticker.Stop()
		watch := adapt.NewStallWatch()
		var lastRejects uint64
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
			}
			now := p.now()
			if rejects := p.bal.Rejects(); rejects > lastRejects {
				ctrl.OnRejects(int(rejects - lastRejects))
				lastRejects = rejects
			}
			for _, be := range p.bal.Backends() {
				// Each gauge holds the backend's lock for a few
				// nanoseconds, so the watch does not perturb the dispatch
				// path it is watching.
				s := adapt.BackendSample{
					Completed:     be.Completed(),
					InFlight:      be.InFlight(),
					FreeEndpoints: be.FreeEndpoints(),
				}
				if ev, fire := watch.Observe(now, be.Name(), s); fire {
					ctrl.OnEvent(ev)
				}
			}
			ctrl.Tick(now)
		}
	}()
}

// Adapt exposes the proxy's adaptive controller (nil unless
// ProxyConfig.Adapt was set).
func (p *Proxy) Adapt() *adapt.Controller { return p.adaptC }

// adaptOutcome streams one client-observed outcome into the adaptive
// controller; a no-op when the control plane is off.
func (p *Proxy) adaptOutcome(start time.Duration, ok bool) {
	if p.adaptC == nil {
		return
	}
	now := p.now()
	p.adaptC.OnOutcome(now, now-start, ok)
}

// armTelemetry builds the wall sampler on the proxy's clock over its own
// gauges, the balancer's per-backend counters and the planes' gauges.
func (p *Proxy) armTelemetry(tcfg telemetry.Config) {
	s := telemetry.NewWallSampler("proxy", tcfg, p.planes.Clock())
	s.Register("proxy", telemetry.SignalWorkersBusy, func() float64 {
		return float64(len(p.workers))
	})
	s.Register("proxy", telemetry.SignalAcceptWait, func() float64 {
		return float64(p.waiting.Load())
	})
	p.planes.GateGauges(s, "proxy", p.adm)
	for _, be := range p.bal.Backends() {
		be := be
		s.Register(be.Name(), telemetry.SignalInFlight, func() float64 {
			return float64(be.InFlight())
		})
		s.Register(be.Name(), telemetry.SignalPoolFree, func() float64 {
			return float64(be.FreeEndpoints())
		})
		s.Register(be.Name(), telemetry.SignalCompleted, func() float64 {
			return float64(be.Completed())
		})
		p.planes.ProbeGauges(s, be.Name())
	}
	p.sampler = s
	s.Start()
}

// Timeline exposes the telemetry timeline (nil when telemetry is
// disabled).
func (p *Proxy) Timeline() *telemetry.Timeline { return p.sampler.Timeline() }

// Planes exposes the proxy's control-plane attachment.
func (p *Proxy) Planes() *planes.Attachment { return &p.planes }
