package httpcluster

import (
	"time"

	"millibalance/internal/lb"
)

// Runtime reconfiguration — the proxy's side of the core's actuation
// surface (lb.Core.SetPolicy, SetMechanism, SetQuarantined, ArmProbe).
// The adaptive control plane (internal/adapt) hot-swaps the policy or
// mechanism and drains/re-admits individual backends while worker
// goroutines keep dispatching. A swap takes the balancer's mu, the lock
// every choice is made under, so a dispatch sees the configuration
// before a swap or after it, never half of it (DESIGN.md §12).

// CurrentPolicy reads the live policy (it may differ from the
// construction-time one after an adaptive hot-swap).
func (b *Balancer) CurrentPolicy() Policy {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.policy
}

// CurrentMechanism reads the live mechanism.
func (b *Balancer) CurrentMechanism() Mechanism {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.mech
}

// bumpWakeLocked closes the wake channel and installs a fresh one,
// releasing every worker sleeping in an original-mechanism poll so it
// asks the core at once whether the poll is over. The caller holds b.mu.
func (b *Balancer) bumpWakeLocked() {
	close(b.wake)
	b.wake = make(chan struct{})
}

// SetPolicy swaps the lb_value bookkeeping at runtime, reseeding every
// backend's lb_value from its preserved counters — exactly the value
// the incoming policy would have accumulated itself. Swapping to
// prequal additionally reseeds the probe pools (clear plus an
// immediate probe round), so the incoming policy starts from live
// evidence rather than samples gathered under the previous regime.
func (b *Balancer) SetPolicy(p Policy) {
	lp := b.lbPolicy(p)
	b.mu.Lock()
	b.lockBackends()
	b.policy = p
	b.core.SetPolicy(lp)
	b.unlockBackends()
	b.mu.Unlock()
	// The prequal reseed fires probes over real sockets: outside every
	// balancer lock.
	if ps, ok := lp.(lb.PoolSeeder); ok {
		ps.SeedPools()
	}
}

// SetMechanism swaps the endpoint-acquisition mechanism at runtime. A
// worker polling under the original mechanism is woken and, when the
// new mechanism does not poll, gives up on its backend at once instead
// of after the rest of the acquire window.
func (b *Balancer) SetMechanism(m Mechanism) {
	lm := b.lbMechanism(m)
	b.mu.Lock()
	defer b.mu.Unlock()
	b.mech = m
	b.core.SetMechanism(lm)
	b.bumpWakeLocked()
}

// SetQuarantine drains (or re-admits) a backend by name
// (lb.Core.SetQuarantined). In-flight requests finish normally. Reports
// whether the backend was found.
func (b *Balancer) SetQuarantine(name string, on bool) bool {
	be := b.backend(name)
	if be == nil {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.lockBackends()
	b.core.SetQuarantined(&be.rec, on)
	b.unlockBackends()
	if on {
		// Wake workers polling the drained backend inside the original
		// mechanism: quarantine means no endpoint is coming, and every
		// blocked worker is one less goroutine emptying the accept
		// queue (the paper's amplification path).
		b.bumpWakeLocked()
	}
	return true
}

// ArmProbe allows exactly one request through a quarantined backend so
// the probe hook can measure whether it has recovered. A no-op when the
// backend is not quarantined or a probe is already in flight. Reports
// whether a probe was armed.
func (b *Balancer) ArmProbe(name string) bool {
	be := b.backend(name)
	if be == nil {
		return false
	}
	be.mu.Lock()
	defer be.mu.Unlock()
	return b.core.ArmProbe(&be.rec)
}

// backend finds a backend by name; nil when there is none.
func (b *Balancer) backend(name string) *Backend {
	for _, be := range b.backends {
		if be.name == name {
			return be
		}
	}
	return nil
}

// SetProbeHook registers the probe-outcome callback: rt is the measured
// response time for a completed probe; ok is false when the probe's
// endpoint acquisition or exchange failed. Invoked without any lock
// held. Call before serving traffic.
func (b *Balancer) SetProbeHook(hook func(be *Backend, rt time.Duration, ok bool)) {
	b.onProbe = hook
}
