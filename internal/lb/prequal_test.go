package lb

import (
	"math/rand/v2"
	"testing"
	"time"

	"millibalance/internal/probe"
)

func prequalRNG() *rand.Rand { return rand.New(rand.NewPCG(7, 11)) }

// TestPrequalChooseColdByLatency: with fresh probes for every eligible
// candidate, selection is the pool's hot/cold rule — the cold candidate
// with the lowest probed latency wins, whatever the lb_values say.
func TestPrequalChooseColdByLatency(t *testing.T) {
	clock := time.Duration(0)
	pools := probe.NewPools(probe.Config{
		D: 3, HotQuantile: 0.5, TTL: time.Hour, ReuseBudget: 1 << 30,
	}, func() time.Duration { return clock })
	p := NewPrequal(pools)

	eligible := newRecs("slow-cold", "fast-cold", "hot")
	slow, fast, hot := eligible[0], eligible[1], eligible[2]
	// lb_values deliberately contradict the probes: the hot backend
	// looks idle to the counter-based fallback.
	slow.lbValue, fast.lbValue, hot.lbValue = 5*LBMult, 6*LBMult, 0
	pools.Observe("slow-cold", 1, 90*time.Millisecond)
	pools.Observe("fast-cold", 2, 3*time.Millisecond)
	pools.Observe("hot", 40, time.Millisecond)

	rng := prequalRNG()
	for i := 0; i < 20; i++ {
		if got := p.Choose(eligible, rng); got != fast {
			t.Fatalf("Choose #%d = %s, want fast-cold", i, got.Name())
		}
	}
}

// TestPrequalChooseFallsBackWithoutFreshProbes: a detached policy (nil
// pools) and a policy whose every sample has aged out both fall back to
// the min-lb_value scan, which under prequal's bookkeeping means lowest
// in-flight.
func TestPrequalChooseFallsBackWithoutFreshProbes(t *testing.T) {
	eligible := newRecs("a", "b")
	a, b := eligible[0], eligible[1]
	a.lbValue, b.lbValue = 3*LBMult, LBMult
	rng := prequalRNG()

	detached := NewPrequal(nil)
	if got := detached.Choose(eligible, rng); got != b {
		t.Fatalf("detached Choose = %s, want b", got.Name())
	}

	clock := time.Duration(0)
	pools := probe.NewPools(probe.Config{TTL: 50 * time.Millisecond},
		func() time.Duration { return clock })
	pools.Observe("a", 0, time.Microsecond) // flattering, soon stale
	clock = time.Second
	attached := NewPrequal(pools)
	if got := attached.Choose(eligible, rng); got != b {
		t.Fatalf("stale-pool Choose = %s, want b (fallback), not the stale-flattered a", got.Name())
	}
}

// TestPrequalBookkeepingMirrorsCurrentLoad: dispatch/complete move
// lb_value like current_load so the fallback ranking and snapshots
// remain meaningful, with the same floor at zero.
func TestPrequalBookkeepingMirrorsCurrentLoad(t *testing.T) {
	c := newRecs("app1")[0]
	p := NewPrequal(nil)
	p.OnDispatch(c, RequestInfo{})
	p.OnDispatch(c, RequestInfo{})
	if c.LBValue() != 2*LBMult {
		t.Fatalf("lb_value = %v after two dispatches", c.LBValue())
	}
	p.OnComplete(c, RequestInfo{})
	if c.LBValue() != LBMult {
		t.Fatalf("lb_value = %v after one completion", c.LBValue())
	}
	p.OnComplete(c, RequestInfo{})
	p.OnComplete(c, RequestInfo{})
	if c.LBValue() != 0 {
		t.Fatalf("lb_value = %v, want floor at 0", c.LBValue())
	}
}

// TestPrequalSeedPools: the PoolSeeder contract — a registered seed
// hook runs in place of the default clear; without one the pools are
// cleared so pre-swap samples cannot steer post-swap decisions.
func TestPrequalSeedPools(t *testing.T) {
	pools := probe.NewPools(probe.Config{TTL: time.Hour}, func() time.Duration { return 0 })
	pools.Observe("a", 1, time.Millisecond)
	p := NewPrequal(pools)
	p.SeedPools()
	if pools.Depth("a") != 0 {
		t.Fatal("default SeedPools did not clear the pools")
	}

	pools.Observe("a", 1, time.Millisecond)
	hooked := false
	p.SetSeedHook(func() { hooked = true })
	p.SeedPools()
	if !hooked {
		t.Fatal("seed hook not invoked")
	}
	if pools.Depth("a") != 1 {
		t.Fatal("seed hook replaced, not preceded by, the clear — pools must be the hook's job")
	}
}

// TestPrequalProbeView: the ProbeViewer extension surfaces the freshest
// pooled sample for decision-log enrichment, and reports absence for
// unknown backends or a detached policy.
func TestPrequalProbeView(t *testing.T) {
	pools := probe.NewPools(probe.Config{TTL: time.Hour}, func() time.Duration { return 0 })
	pools.Observe("a", 7, 4*time.Millisecond)
	p := NewPrequal(pools)
	smp, ok := p.ProbeView("a")
	if !ok || smp.InFlight != 7 || smp.Latency != 4*time.Millisecond {
		t.Fatalf("ProbeView = %+v,%v", smp, ok)
	}
	if _, ok := p.ProbeView("ghost"); ok {
		t.Fatal("ProbeView found a sample for an unprobed backend")
	}
	if _, ok := NewPrequal(nil).ProbeView("a"); ok {
		t.Fatal("detached ProbeView reported a sample")
	}
}
