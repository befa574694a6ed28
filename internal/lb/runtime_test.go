package lb

import (
	"fmt"
	"math"
	"testing"
	"time"

	"millibalance/internal/sim"
)

// expectedReseed computes, from a candidate's preserved counters, the
// lb_value each policy's Reseeder must produce. Kept as an independent
// oracle (not calling Reseed itself) so the table test would catch a
// policy whose Reseed diverges from its own bookkeeping.
func expectedReseed(policy string, c *Candidate) float64 {
	switch policy {
	case "total_request":
		return float64(c.Dispatched()) * LBMult / c.Weight()
	case "total_traffic":
		return float64(c.Traffic()) * LBMult / c.Weight()
	case "current_load", "prequal":
		// prequal's bookkeeping mirrors current_load: weight-scaled
		// in-flight, so the fallback ranking stays meaningful.
		return float64(c.InFlight()) * LBMult / c.Weight()
	default:
		// recent_request, two_choices, random, round_robin: in-flight
		// bookkeeping without weight scaling.
		return float64(c.InFlight()) * LBMult
	}
}

// TestSetPolicyAllPairs swaps between every policy pair at runtime and
// checks that the counters survive and every candidate's lb_value is
// reseeded to exactly what the incoming policy would have accumulated.
func TestSetPolicyAllPairs(t *testing.T) {
	names := PolicyNames()
	for _, from := range names {
		for _, to := range names {
			from, to := from, to
			t.Run(fmt.Sprintf("%s_to_%s", from, to), func(t *testing.T) {
				fp, ok := PolicyByName(from)
				if !ok {
					t.Fatalf("unknown policy %q", from)
				}
				h := newHarness(t, fp, NewModifiedGetEndpoint(), 10, "app1", "app2")
				h.bal.Candidates()[1].SetWeight(2)

				// Build asymmetric state: 6 dispatches with traffic,
				// complete some so dispatched != in-flight != traffic.
				for i := 0; i < 6; i++ {
					h.submit(RequestInfo{RequestBytes: 100, ResponseBytes: 300})
				}
				h.completeOne("app1")
				h.completeOne("app2")
				h.completeOne("app2")

				tp, ok := PolicyByName(to)
				if !ok {
					t.Fatalf("unknown policy %q", to)
				}
				h.bal.SetPolicy(tp)

				var total uint64
				for _, c := range h.bal.Candidates() {
					total += c.Dispatched()
					if c.InFlight() != int(c.Dispatched()-c.Completed()) {
						t.Fatalf("%s: in-flight %d != dispatched-completed %d",
							c.Name(), c.InFlight(), c.Dispatched()-c.Completed())
					}
					want := expectedReseed(to, c)
					if math.Abs(c.LBValue()-want) > 1e-9 {
						t.Fatalf("%s: lb_value after %s→%s swap = %v, want %v (dispatched=%d inflight=%d traffic=%d weight=%v)",
							c.Name(), from, to, c.LBValue(), want,
							c.Dispatched(), c.InFlight(), c.Traffic(), c.Weight())
					}
				}

				if total != 6 {
					t.Fatalf("dispatch counters lost across swap: total %d, want 6", total)
				}

				// The balancer must keep working under the new policy.
				h.submit(RequestInfo{})
				if h.rejected != 0 {
					t.Fatalf("dispatch rejected after %s→%s swap", from, to)
				}
			})
		}
	}
}

// TestSetPolicyCurrentLoadInvariant pins the invariant the adaptive
// controller relies on: immediately after swapping in current_load,
// lb_value == in-flight for every candidate, and completions drain it
// back to zero with no residue from the old policy's accounting.
func TestSetPolicyCurrentLoadInvariant(t *testing.T) {
	h := newHarness(t, TotalRequest{}, NewModifiedGetEndpoint(), 10, "app1", "app2")
	for i := 0; i < 8; i++ {
		h.submit(RequestInfo{RequestBytes: 1000})
	}
	h.completeOne("app1")

	h.bal.SetPolicy(CurrentLoad{})
	for _, c := range h.bal.Candidates() {
		if got, want := c.LBValue(), float64(c.InFlight()); got != want {
			t.Fatalf("%s: lb_value %v != in-flight %v right after swap", c.Name(), got, want)
		}
	}
	// Drain everything: lb_value must hit exactly zero.
	for _, n := range []string{"app1", "app2"} {
		for len(h.pending[n]) > 0 {
			h.completeOne(n)
		}
	}
	for _, c := range h.bal.Candidates() {
		if c.LBValue() != 0 || c.InFlight() != 0 {
			t.Fatalf("%s: lb_value=%v in-flight=%d after drain, want 0/0", c.Name(), c.LBValue(), c.InFlight())
		}
	}
}

// TestSetPolicyArmsMaintainer swaps from a non-Maintainer to
// recent_request on a balancer built with no MaintainInterval and checks
// the decay tick starts running.
func TestSetPolicyArmsMaintainer(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	cands := []*Candidate{NewCandidate("app1", sim.NewPool(10))}
	bal := New(eng, TotalRequest{}, NewModifiedGetEndpoint(), cands, Config{})
	bal.Dispatch(RequestInfo{}, func(c *Candidate, done func()) {}, func() {})

	bal.SetPolicy(RecentRequest{})
	cands[0].lbValue = 8
	eng.Run(2 * time.Second) // default 500ms interval → several halvings
	if got := cands[0].LBValue(); got >= 8 {
		t.Fatalf("lb_value %v did not decay — maintain tick not armed by SetPolicy", got)
	}
}

// TestSetMechanismAtRuntime swaps modified→original and verifies the next
// acquisition uses the polling mechanism: with the pool exhausted, the
// modified mechanism would fail fast and reject, while the original one
// parks the worker and wins the endpoint once a completion frees it.
func TestSetMechanismAtRuntime(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	cands := []*Candidate{NewCandidate("app1", sim.NewPool(1))}
	bal := New(eng, TotalRequest{}, NewModifiedGetEndpoint(), cands, Config{Sweeps: 1})

	dispatched := 0
	rejected := 0
	var finish func()
	send := func(c *Candidate, done func()) { dispatched++; finish = done }
	submit := func() { bal.Dispatch(RequestInfo{}, send, func() { rejected++ }) }

	submit() // holds the only endpoint
	if dispatched != 1 {
		t.Fatalf("setup dispatch failed")
	}

	bal.SetMechanism(NewOriginalGetEndpoint())
	submit() // pool exhausted: must poll, not reject
	if rejected != 0 {
		t.Fatalf("rejected under original mechanism — swap did not take effect")
	}
	// Free the endpoint; the parked poller should claim it.
	eng.Schedule(50*time.Millisecond, func() { finish() })
	eng.Run(time.Second)
	if dispatched != 2 {
		t.Fatalf("dispatched %d, want 2 (poller should win the freed endpoint)", dispatched)
	}
}

// TestQuarantineExcludesCandidate verifies a quarantined candidate gets
// no traffic even when its lb_value is minimal, and re-admission
// restores it.
func TestQuarantineExcludesCandidate(t *testing.T) {
	h := newHarness(t, TotalRequest{}, NewModifiedGetEndpoint(), 10, "app1", "app2")
	c1 := h.bal.Candidates()[0]
	h.bal.SetQuarantine("app1", true)
	if !c1.Quarantined() {
		t.Fatalf("candidate not marked quarantined")
	}
	for i := 0; i < 10; i++ {
		h.submit(RequestInfo{})
	}
	if h.dispatched["app1"] != 0 {
		t.Fatalf("quarantined app1 received %d requests", h.dispatched["app1"])
	}
	if h.dispatched["app2"] != 10 {
		t.Fatalf("app2 received %d of 10", h.dispatched["app2"])
	}

	h.bal.SetQuarantine("app1", false)
	h.submit(RequestInfo{})
	if h.dispatched["app1"] != 1 {
		t.Fatalf("re-admitted app1 still starved (dist=%v)", h.dispatched)
	}
}

// TestArmProbeDispatchesExactlyOne verifies the probe path: an armed
// probe makes the quarantined candidate eligible for exactly one
// request, the probe hook fires with the measured RT on completion, and
// without re-arming no further traffic reaches it.
func TestArmProbeDispatchesExactlyOne(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	cands := []*Candidate{
		NewCandidate("app1", sim.NewPool(10)),
		NewCandidate("app2", sim.NewPool(10)),
	}
	bal := New(eng, TotalRequest{}, NewModifiedGetEndpoint(), cands, Config{})

	type probe struct {
		name string
		rt   sim.Time
		ok   bool
	}
	var probes []probe
	bal.SetProbeHook(func(name string, rt sim.Time, ok bool) {
		probes = append(probes, probe{name, rt, ok})
	})

	dispatched := map[string]int{}
	send := func(c *Candidate, done func()) {
		dispatched[c.Name()]++
		eng.Schedule(70*time.Millisecond, done)
	}
	submit := func() { bal.Dispatch(RequestInfo{}, send, func() {}) }

	bal.SetQuarantine(cands[0].Name(), true)
	bal.ArmProbe(cands[0].Name())

	// The armed candidate has the minimal lb_value, so the next dispatch
	// is the probe; subsequent ones must avoid it again.
	for i := 0; i < 5; i++ {
		submit()
	}
	if dispatched["app1"] != 1 {
		t.Fatalf("probe-armed app1 got %d requests, want exactly 1", dispatched["app1"])
	}
	eng.Run(time.Second)
	if len(probes) != 1 {
		t.Fatalf("probe hook fired %d times, want 1", len(probes))
	}
	if p := probes[0]; p.name != "app1" || !p.ok || p.rt != 70*time.Millisecond {
		t.Fatalf("probe = %+v, want app1 ok rt=70ms", probes[0])
	}
}

// TestArmProbeFailureReportsNotOK verifies an armed probe whose endpoint
// acquisition fails reports ok=false so the controller resets its
// re-admission count.
func TestArmProbeFailureReportsNotOK(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	cands := []*Candidate{
		NewCandidate("app1", sim.NewPool(1)),
		NewCandidate("app2", sim.NewPool(10)),
	}
	bal := New(eng, TotalRequest{}, NewModifiedGetEndpoint(), cands, Config{Sweeps: 1})

	var probes []bool
	bal.SetProbeHook(func(_ string, rt sim.Time, ok bool) { probes = append(probes, ok) })

	// Exhaust app1's pool, then quarantine it (the in-flight request
	// never completes — a stalled backend).
	bal.Dispatch(RequestInfo{}, func(c *Candidate, done func()) {}, func() {})
	bal.SetQuarantine(cands[0].Name(), true)
	bal.ArmProbe(cands[0].Name())

	// The probe runs when app1 wins the min-lb_value scan; raise app2's
	// so the next dispatch attempts the stalled candidate first.
	cands[1].lbValue = 5
	bal.Dispatch(RequestInfo{}, func(c *Candidate, done func()) {}, func() {})
	if len(probes) != 1 || probes[0] {
		t.Fatalf("probes = %v, want one failed probe", probes)
	}
}

// TestSetQuarantinedLiftDisarmsProbe: lifting quarantine clears a
// pending probe arm so a stale probe result cannot fire later.
func TestSetQuarantinedLiftDisarmsProbe(t *testing.T) {
	h := newHarness(t, TotalRequest{}, NewModifiedGetEndpoint(), 10, "app1", "app2")
	fired := 0
	h.bal.SetProbeHook(func(string, sim.Time, bool) { fired++ })

	h.bal.SetQuarantine("app1", true)
	h.bal.ArmProbe("app1")
	h.bal.SetQuarantine("app1", false)
	for i := 0; i < 4; i++ {
		h.submit(RequestInfo{})
		h.completeOne("app1")
		h.completeOne("app2")
	}
	if fired != 0 {
		t.Fatalf("probe hook fired %d times after quarantine lift", fired)
	}
}
