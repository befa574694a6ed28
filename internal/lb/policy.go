package lb

import (
	"math/rand/v2"

	"millibalance/internal/obs"
)

// RequestInfo carries the request attributes policies account for.
type RequestInfo struct {
	// RequestBytes and ResponseBytes are the message sizes exchanged
	// with the backend — the total_traffic policy's accounting unit
	// ("read + write sizes" in Algorithm 3).
	RequestBytes  int64
	ResponseBytes int64
	// SessionID, when non-zero and the balancer has StickySessions
	// enabled, pins the request to the backend the session first
	// landed on (mod_jk's sticky_session).
	SessionID uint64
	// Span, when non-nil, records the request's lifecycle stages; the
	// simulator's balancer charges the whole endpoint-acquisition window
	// (mechanism sleeps, retries and inter-sweep pauses) to
	// StageGetEndpoint.
	Span *obs.Span
}

// Policy is the upper level of the two-level scheduler: it maintains
// each record's lb_value. The lower level (Core.Choose) picks the
// Available record with the lowest lb_value, so a policy expresses its
// preference through the value updates — unless it is also a Chooser.
type Policy interface {
	// Name identifies the policy in configs and reports.
	Name() string
	// OnDispatch runs when a request is sent to the backend (after a
	// successful endpoint acquisition).
	OnDispatch(r *Record, info RequestInfo)
	// OnComplete runs when the backend's response returns, and with an
	// empty info when the exchange failed.
	OnComplete(r *Record, info RequestInfo)
	// Reseed returns the lb_value the policy would have accumulated for
	// r's counters; Core.SetPolicy applies it when the policy is swapped
	// in at runtime.
	Reseed(r *Record) float64
}

// Maintainer is an optional Policy extension: Maintain runs for every
// record at each maintenance tick (mod_jk's global maintain).
type Maintainer interface {
	Maintain(r *Record)
}

// Chooser is an optional Policy extension overriding the choice of the
// lowest lb_value: Choose picks among the eligible records, all in one
// state, in record order, never empty.
type Chooser interface {
	Choose(eligible []*Record, rng *rand.Rand) *Record
}

// Cumulative marks policies whose lb_value grows monotonically for the
// life of the run (total_request, total_traffic): paroling a record
// seeds it at the tier's maximum (Core.SetQuarantined).
type Cumulative interface {
	Cumulative()
}

// PoolSeeder is an optional Policy extension: a policy backed by an
// external sample store (prequal's probe pools) reseeds it when swapped
// in at runtime, so stale pre-swap samples cannot steer the first
// post-swap decisions.
type PoolSeeder interface {
	SeedPools()
}

// LBMult is the lb_value increment unit, matching mod_jk's lb_mult.
const LBMult = 1.0

// unload takes unit off r's lb_value, flooring at zero: the completion
// side of the in-flight policies.
func unload(r *Record, unit float64) {
	if r.lbValue >= unit {
		r.lbValue -= unit
	} else {
		r.lbValue = 0
	}
}

// TotalRequest is mod_jk's default policy (Algorithm 2): rank backends
// by the accumulated number of requests served, fewest first. The
// lb_value is incremented when the request is dispatched; completions do
// not change it. Under a millibottleneck the stalled backend stops being
// dispatched to only while a worker is stuck inside get_endpoint — its
// lb_value stays the lowest, so every new arrival keeps choosing it (the
// paper's policy-level limitation).
type TotalRequest struct{}

// Name implements Policy.
func (TotalRequest) Name() string { return "total_request" }

// OnDispatch implements Policy.
func (TotalRequest) OnDispatch(r *Record, _ RequestInfo) { r.lbValue += r.scaled(LBMult) }

// OnComplete implements Policy.
func (TotalRequest) OnComplete(*Record, RequestInfo) {}

// Reseed implements Policy: the lifetime dispatch count.
func (TotalRequest) Reseed(r *Record) float64 { return r.scaled(float64(r.dispatched) * LBMult) }

// Cumulative marks the monotone bookkeeping for recovery seeding.
func (TotalRequest) Cumulative() {}

// TotalTraffic is mod_jk's traffic policy (Algorithm 3): rank backends by
// the accumulated bytes exchanged, fewest first. The lb_value grows by
// the request plus response sizes when the response returns. A stalled
// backend returns no responses, so its lb_value freezes at the minimum
// while healthy backends' values keep growing — the same limitation,
// expressed through completions.
type TotalTraffic struct{}

// Name implements Policy.
func (TotalTraffic) Name() string { return "total_traffic" }

// OnDispatch implements Policy.
func (TotalTraffic) OnDispatch(*Record, RequestInfo) {}

// OnComplete implements Policy.
func (TotalTraffic) OnComplete(r *Record, info RequestInfo) {
	r.lbValue += r.scaled(float64(info.RequestBytes+info.ResponseBytes) * LBMult)
}

// Reseed implements Policy: the lifetime bytes exchanged.
func (TotalTraffic) Reseed(r *Record) float64 { return r.scaled(float64(r.traffic) * LBMult) }

// Cumulative marks the monotone bookkeeping for recovery seeding.
func (TotalTraffic) Cumulative() {}

// weightedLoad is current_load's bookkeeping, which prequal shares: the
// in-flight count, each request weighted by 1/weight.
type weightedLoad struct{}

// OnDispatch implements Policy.
func (weightedLoad) OnDispatch(r *Record, _ RequestInfo) { r.lbValue += r.scaled(LBMult) }

// OnComplete implements Policy.
func (weightedLoad) OnComplete(r *Record, _ RequestInfo) { unload(r, r.scaled(LBMult)) }

// Reseed implements Policy: the in-flight count, exactly the value the
// bookkeeping would have reached, so lb_value == in-flight (at weight 1)
// holds right after a swap.
func (weightedLoad) Reseed(r *Record) float64 { return r.scaled(float64(r.InFlight()) * LBMult) }

// CurrentLoad is the paper's policy-level remedy (Algorithm 4): rank
// backends by the number of requests currently being served. Dispatches
// increment the lb_value and completions decrement it (with a floor at
// zero), so a backend that stops completing — a millibottleneck —
// accumulates the highest lb_value and stops being chosen, without
// relying on the 3-state machine.
type CurrentLoad struct{ weightedLoad }

// Name implements Policy.
func (CurrentLoad) Name() string { return "current_load" }

// The policies below go beyond the paper's three. recent_request
// implements the paper's closing suggestion of "adding the consideration
// of recent utilization changes" by decaying the cumulative counter
// (mod_jk's own worker.maintain halves lb_values every maintain
// interval); two_choices is the classic power-of-two-choices baseline,
// random the no-information one, and round_robin the adaptive control
// plane's fallback. The last three keep current_load's bookkeeping
// without the weighting, so snapshots and decision events stay
// meaningful, but choose by their own rule.

// load is the extension policies' in-flight bookkeeping.
type load struct{}

// OnDispatch implements Policy.
func (load) OnDispatch(r *Record, _ RequestInfo) { r.lbValue += LBMult }

// OnComplete implements Policy.
func (load) OnComplete(r *Record, _ RequestInfo) { unload(r, LBMult) }

// Reseed implements Policy: the in-flight count.
func (load) Reseed(r *Record) float64 { return float64(r.InFlight()) * LBMult }

// RecentRequest ranks backends by a *decaying* request counter:
// dispatches increment the lb_value and each maintenance tick halves it,
// so the ranking reflects recent — not lifetime — utilization. With a
// sub-second maintain interval a stalled backend's frozen counter loses
// its misleading advantage within a few ticks, softening the instability
// without tracking in-flight state.
type RecentRequest struct{}

// Name implements Policy.
func (RecentRequest) Name() string { return "recent_request" }

// OnDispatch implements Policy.
func (RecentRequest) OnDispatch(r *Record, _ RequestInfo) { r.lbValue += LBMult }

// OnComplete implements Policy.
func (RecentRequest) OnComplete(*Record, RequestInfo) {}

// Maintain implements Maintainer: the mod_jk halving decay.
func (RecentRequest) Maintain(r *Record) { r.lbValue /= 2 }

// Reseed implements Policy: the decayed counter cannot be reconstructed
// from lifetime totals, so the in-flight count serves as the
// recent-utilization estimate a fresh decay starts from.
func (RecentRequest) Reseed(r *Record) float64 { return float64(r.InFlight()) * LBMult }

// TwoChoices is the power-of-two-choices baseline: sample two eligible
// backends uniformly and dispatch to the one with fewer in-flight
// requests. Selection is randomized, which bounds herd behaviour when
// many balancers share the same view.
type TwoChoices struct{ load }

// Name implements Policy.
func (TwoChoices) Name() string { return "two_choices" }

// Choose implements Chooser.
func (TwoChoices) Choose(eligible []*Record, rng *rand.Rand) *Record {
	if len(eligible) == 1 {
		return eligible[0]
	}
	i := rng.IntN(len(eligible))
	j := rng.IntN(len(eligible) - 1)
	if j >= i {
		j++
	}
	a, b := eligible[i], eligible[j]
	if b.lbValue < a.lbValue {
		return b
	}
	return a
}

// RandomPolicy dispatches uniformly at random among eligible backends —
// the no-information baseline.
type RandomPolicy struct{ load }

// Name implements Policy.
func (RandomPolicy) Name() string { return "random" }

// Choose implements Chooser.
func (RandomPolicy) Choose(eligible []*Record, rng *rand.Rand) *Record {
	return eligible[rng.IntN(len(eligible))]
}

// RoundRobin cycles through the backends in their stable order — the
// information-free fallback the adaptive control plane engages when
// every backend looks stalled and load-dependent lb_values carry no
// signal. The cursor is the index just past the last choice: the next
// choice is the first eligible record at or after it, else the first
// eligible one. Eligibility churn (a Busy flicker, a quarantine) then
// skips a record without shifting the rotation, where indexing the
// eligible list with a counter let churn hand consecutive choices to one
// backend. A balancer keeps one instance across policy swaps, so the
// rotation resumes where it left off.
type RoundRobin struct {
	load
	next int
}

// Name implements Policy.
func (*RoundRobin) Name() string { return "round_robin" }

// Choose implements Chooser.
func (rr *RoundRobin) Choose(eligible []*Record, _ *rand.Rand) *Record {
	pick := eligible[0]
	for _, r := range eligible {
		if r.index >= rr.next {
			pick = r
			break
		}
	}
	rr.next = pick.index + 1
	return pick
}

// PolicyByName returns the policy with the given name, used by CLI flags
// and experiment configs.
func PolicyByName(name string) (Policy, bool) {
	switch name {
	case "total_request":
		return TotalRequest{}, true
	case "total_traffic":
		return TotalTraffic{}, true
	case "current_load":
		return CurrentLoad{}, true
	case "recent_request":
		return RecentRequest{}, true
	case "two_choices":
		return TwoChoices{}, true
	case "random":
		return RandomPolicy{}, true
	case "round_robin":
		return &RoundRobin{}, true
	case "prequal":
		// Detached: the substrate wiring attaches the probe pools (see
		// Prequal.AttachPools); until then selection falls back to the
		// in-flight ranking.
		return NewPrequal(nil), true
	default:
		return nil, false
	}
}

// PolicyNames lists the available policy names (the paper's three
// first, then the extensions).
func PolicyNames() []string {
	return []string{
		"total_request", "total_traffic", "current_load",
		"recent_request", "two_choices", "random", "round_robin",
		"prequal",
	}
}
