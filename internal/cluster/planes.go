package cluster

import (
	"time"

	"millibalance/internal/adapt"
	"millibalance/internal/lb"
	"millibalance/internal/metrics"
	"millibalance/internal/netmodel"
	"millibalance/internal/planes"
	"millibalance/internal/probe"
)

// The deterministic substrate's half of the control planes
// (internal/planes): the engine clock, a recurring engine timer as the
// adaptive tick, the web balancers as drivers, probes that are engine
// events, and the online detectors as the stall signal. All of it runs
// on the simulation thread, so armed runs replay as exactly as static
// ones.

// probeServiceDemand is the CPU burst a probe costs the probed server —
// a counter read plus marshalling, far below a request's service time.
const probeServiceDemand = 50 * time.Microsecond

// armProbing builds the pools and the sim prober when the run can
// dispatch through prequal. A probe is a link traversal, a tiny CPU
// burst on the app server and a traversal back, so a frozen server
// holds its probe until the stall ends — which is what lets the pools go
// stale and prequal route away.
func (c *Cluster) armProbing() {
	c.planes.ArmProbing(c.cfg.Probe, c.cfg.Policy, c.cfg.Adaptive, func(pools *probe.Pools) func() {
		targets := make([]probe.SimTarget, 0, len(c.Apps))
		for _, a := range c.Apps {
			a := a
			targets = append(targets, probe.SimTarget{
				Name:     a.Name(),
				Link:     netmodel.NewLink(c.Eng, c.cfg.LinkLatency),
				InFlight: func() float64 { return float64(a.QueuedRequests()) },
				Service:  func(done func()) { a.CPU().Submit(probeServiceDemand, done) },
			})
		}
		c.prober = probe.NewSimProber(c.Eng, pools, targets)
		return c.prober.Reseed
	})
}

// newPolicy resolves a policy name to a fresh instance, with the probe
// pools attached when it is prequal.
func (c *Cluster) newPolicy(name string) lb.Policy {
	p, _ := lb.PolicyByName(name)
	return c.planes.AttachPools(p)
}

// webDriver is one web server's balancer as a planes.Driver. Each web
// runs its own mod_jk instance, so an action reaches the tier the way a
// configuration push would; a swap hands each a fresh policy instance,
// so stateful policies (round_robin's rotation) stay per balancer.
type webDriver struct {
	*lb.Balancer
	c *Cluster
}

func (d *webDriver) SetPolicy(name string) { d.Balancer.SetPolicy(d.c.newPolicy(name)) }

func (d *webDriver) SetMechanism(name string) {
	m, _ := lb.MechanismByName(name, nil)
	d.Balancer.SetMechanism(m)
}

// armAdaptive attaches the adaptive ladder to the web balancers and
// ticks it on a recurring engine timer. Its stall signal is the
// detectors' onsets and confirmations, and rejects, streamed in by the
// event log's append hook. Called last in New, with c.events non-nil.
func (c *Cluster) armAdaptive(acfg adapt.Config) {
	backends := make([]string, len(c.Apps))
	for i, a := range c.Apps {
		backends[i] = a.Name()
	}
	webs := make([]webDriver, len(c.Webs))
	drivers := make([]planes.Driver, len(c.Webs))
	for i, w := range c.Webs {
		webs[i] = webDriver{w.Balancer(), c}
		drivers[i] = &webs[i]
	}
	c.adapt = c.planes.ArmAdapt(acfg, planes.Ladder{
		Policy:    c.cfg.Policy,
		Mechanism: c.cfg.Mechanism,
		Backends:  backends,
		Drivers:   drivers,
	})
	tick := metrics.NewPoller(c.Eng, c.adapt.TickInterval())
	tick.Add(c.adapt.Tick)
	tick.Start()
	c.addEventHook(c.adapt.OnEvent, false)
}

// Pools exposes the probe pools (nil unless probing is armed).
func (c *Cluster) Pools() *probe.Pools { return c.planes.Pools() }

// Planes exposes the cluster's control-plane attachment.
func (c *Cluster) Planes() *planes.Attachment { return &c.planes }
