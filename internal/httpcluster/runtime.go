package httpcluster

import (
	"time"
)

// Runtime reconfiguration — the wall-clock twin of internal/lb's
// actuation surface. The adaptive control plane (internal/adapt)
// hot-swaps the policy or mechanism and drains/re-admits individual
// backends while worker goroutines keep dispatching. Counters survive a
// swap and each backend's lb_value is reseeded from them, so
// current_load's invariant lb_value == in-flight holds immediately
// after swapping in.
//
// Concurrency model (DESIGN.md §12): a swap takes the balancer's mu, the
// lock every choice is made under, so a dispatch sees the old
// configuration or the new one and never half of a swap.

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
// re-checks its abort conditions immediately. The caller holds b.mu.
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
	b.mu.Lock()
	b.policy = p
	for _, be := range b.backends {
		be.mu.Lock()
		switch p {
		case PolicyTotalRequest:
			be.lbValue = float64(be.dispatched) / be.weightLocked()
		case PolicyTotalTraffic:
			be.lbValue = float64(be.traffic) / be.weightLocked()
		case PolicyCurrentLoad, PolicyPrequal:
			be.lbValue = float64(be.inFlightLocked()) / be.weightLocked()
		case PolicyRoundRobin:
			// Unscaled in-flight bookkeeping, matching lb.RoundRobin.
			be.lbValue = float64(be.inFlightLocked())
		}
		be.mu.Unlock()
	}
	reseed := b.reseed
	b.mu.Unlock()
	// The reseed hook fires probes over real sockets; run it outside
	// every balancer lock.
	if p == PolicyPrequal && reseed != nil {
		reseed()
	}
}

// SetMechanism swaps the endpoint-acquisition mechanism at runtime.
// Acquisitions already polling under the original mechanism re-check
// the live mechanism every iteration and are woken mid-sleep, so an
// original→modified swap frees blocked workers immediately instead of
// holding them for the rest of the acquire window.
func (b *Balancer) SetMechanism(m Mechanism) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.mech = m
	b.bumpWakeLocked()
}

// SetQuarantine drains (or re-admits) a backend by name: while
// quarantined it is skipped by the scheduler and by sticky sessions
// except for explicitly armed probe requests. In-flight requests finish
// normally. Re-admission under a cumulative policy (total_request,
// total_traffic) applies mod_jk recovery seeding — the backend
// re-enters at the tier's maximum lb_value, so its frozen, now-minimal
// value cannot attract the entire tier's traffic in one wave. Reports
// whether the backend was found.
func (b *Balancer) SetQuarantine(name string, on bool) bool {
	be := b.backend(name)
	if be == nil {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	be.mu.Lock()
	be.quarantined = on
	if !on {
		be.probeArmed = false
	}
	be.mu.Unlock()
	if on {
		// Wake workers polling the drained backend inside the original
		// mechanism: quarantine means no endpoint is coming, and every
		// blocked worker is one less goroutine emptying the accept
		// queue (the paper's amplification path).
		b.bumpWakeLocked()
		return true
	}
	if b.policy == PolicyTotalRequest || b.policy == PolicyTotalTraffic {
		seed := 0.0
		for _, o := range b.backends {
			if o != be {
				o.mu.Lock()
				seed = max(seed, o.lbValue)
				o.mu.Unlock()
			}
		}
		be.mu.Lock()
		be.lbValue = max(be.lbValue, seed)
		be.mu.Unlock()
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
	if !be.quarantined || be.probing {
		return false
	}
	be.probeArmed = true
	return true
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
// endpoint acquisition failed. Invoked without any lock held. Call
// before serving traffic.
func (b *Balancer) SetProbeHook(hook func(be *Backend, rt time.Duration, ok bool)) {
	b.onProbe = hook
}

// Quarantined reads the backend's quarantine flag.
func (b *Backend) Quarantined() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.quarantined
}

// Traffic reads the cumulative bytes exchanged.
func (b *Backend) Traffic() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.traffic
}
