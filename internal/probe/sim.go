package probe

import (
	"millibalance/internal/netmodel"
	"millibalance/internal/sim"
)

// SimTarget is one probed backend in the simulated substrate. The
// wiring layer (internal/cluster) supplies the closures so this package
// stays ignorant of server internals.
type SimTarget struct {
	// Name keys the backend's pool.
	Name string
	// Link is the network hop the probe and its reply traverse.
	Link *netmodel.Link
	// InFlight reads the backend's requests-in-flight at the moment
	// the probe arrives.
	InFlight func() float64
	// Service runs the probe's (tiny) service demand through the
	// backend's CPU and calls done when it completes — which is what
	// makes a frozen backend hold the probe hostage until the stall
	// ends, exactly like the real endpoint would.
	Service func(done func())
}

// latencyEWMAAlpha smooths probe RTTs into the latency estimate; the
// wall substrate's servers keep the equivalent EWMA over real request
// latencies.
const latencyEWMAAlpha = 0.3

// SimProber probes every target on a recurring engine timer. Probe
// RTTs are ordinary scheduled events — two link traversals around a CPU
// burst — so runs remain bit-for-bit replayable. At most one probe per
// target is outstanding: a backend that sits on a probe (frozen CPU)
// suppresses further probes instead of queueing them, and its pool goes
// stale — the signal the prequal policy acts on.
type SimProber struct {
	eng     *sim.Engine
	pools   *Pools
	targets []SimTarget

	outstanding []bool
	ewma        []sim.Time // per-target latency estimate
	started     bool
}

// NewSimProber returns a prober over the targets; Start arms it.
func NewSimProber(eng *sim.Engine, pools *Pools, targets []SimTarget) *SimProber {
	if eng == nil || pools == nil {
		panic("probe: NewSimProber with nil engine or pools")
	}
	for _, t := range targets {
		if t.Link == nil || t.InFlight == nil || t.Service == nil {
			panic("probe: SimTarget with nil field")
		}
	}
	copied := make([]SimTarget, len(targets))
	copy(copied, targets)
	return &SimProber{
		eng:         eng,
		pools:       pools,
		targets:     copied,
		outstanding: make([]bool, len(copied)),
		ewma:        make([]sim.Time, len(copied)),
	}
}

// Start arms one recurring probe timer per target, staggered by a
// jittered interval so the probes do not arrive in lockstep.
func (p *SimProber) Start() {
	if p.started {
		panic("probe: SimProber.Start called twice")
	}
	p.started = true
	for i := range p.targets {
		i := i
		var tick func()
		tick = func() {
			p.probe(i)
			p.eng.Schedule(p.eng.Jitter(p.pools.cfg.Interval, 0.2), tick)
		}
		p.eng.Schedule(p.eng.Jitter(p.pools.cfg.Interval, 0.2), tick)
	}
}

// Reseed clears every pool and fires an immediate full probe round —
// the runtime policy-swap hook, as WallProber.Reseed: the incoming
// prequal policy starts from live data only. A target whose probe is
// still out is not probed twice.
func (p *SimProber) Reseed() {
	p.pools.Clear()
	for i := range p.targets {
		p.probe(i)
	}
}

// probe sends one probe to target i unless one is already in flight.
func (p *SimProber) probe(i int) {
	if p.outstanding[i] {
		return
	}
	p.outstanding[i] = true
	t := p.targets[i]
	start := p.eng.Now()
	t.Link.Deliver(func() {
		inFlight := t.InFlight()
		t.Service(func() {
			t.Link.Deliver(func() {
				p.outstanding[i] = false
				rtt := p.eng.Now() - start
				if p.ewma[i] == 0 {
					p.ewma[i] = rtt
				} else {
					p.ewma[i] += sim.Time(latencyEWMAAlpha * float64(rtt-p.ewma[i]))
				}
				p.pools.Observe(t.Name, inFlight, p.ewma[i])
			})
		})
	})
}
