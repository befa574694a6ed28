package lb

import (
	"math/rand/v2"
	"time"

	"millibalance/internal/obs"
	"millibalance/internal/probe"
)

// Prequal is the probing policy (Wydrowski et al., arXiv:2312.10172)
// adapted to the mod_jk two-level scheduler: selection consults only the
// asynchronous probe pools — sample d backends, classify them hot or
// cold by the in-flight quantile of the fresh probes, dispatch to the
// cold backend with the lowest estimated latency, else the one with the
// lowest probed in-flight count. It never reads the cumulative counters
// that invert under millibottlenecks: a frozen backend stops answering
// probes, its pooled samples age past the staleness TTL, and it silently
// drops out of selection — no mechanism remedy required.
//
// The lb_value bookkeeping is current_load's (in-flight) so snapshots,
// decision events and the no-fresh-data fallback ranking stay
// meaningful, but a healthy probe pool overrides it entirely.
type Prequal struct {
	weightedLoad
	pools *probe.Pools
	seed  func()
	// handles caches each record's pool handle by record index, resolved
	// for the name in names, so a choice hands the pools an eligibility
	// mask and looks up no name.
	handles []probe.Handle
	names   []string
}

// NewPrequal returns a prequal policy reading the given pools. A nil
// pools is legal — PolicyByName cannot know the substrate's prober —
// and makes the policy rank by in-flight alone until AttachPools runs.
func NewPrequal(pools *probe.Pools) *Prequal { return &Prequal{pools: pools} }

// AttachPools connects the policy to a substrate's probe pools.
func (p *Prequal) AttachPools(pools *probe.Pools) {
	p.pools, p.handles, p.names = pools, p.handles[:0], p.names[:0]
}

// Pools returns the attached pools (nil when detached).
func (p *Prequal) Pools() *probe.Pools { return p.pools }

// SetSeedHook registers the reseeding action SeedPools runs on a runtime
// swap-in — typically pool clear plus an immediate probe round from the
// substrate's prober.
func (p *Prequal) SetSeedHook(fn func()) { p.seed = fn }

// Name implements Policy.
func (p *Prequal) Name() string { return "prequal" }

// SeedPools implements PoolSeeder: runs the registered seed hook, or
// just clears the pools so stale pre-swap samples cannot steer the first
// post-swap decisions.
func (p *Prequal) SeedPools() {
	if p.seed != nil {
		p.seed()
		return
	}
	if p.pools != nil {
		p.pools.Clear()
	}
}

// Choose implements Chooser: the pools' hot/cold pick over the eligible
// records (probe.Pools.Pick), falling back to the lowest lb_value — the
// lowest in-flight under this policy's bookkeeping — when no sampled
// record has a fresh probe, the pools are detached, or a record's index
// lies past the pick's 64-bit mask.
func (p *Prequal) Choose(eligible []*Record, rng *rand.Rand) *Record {
	if r := p.pick(eligible, rng); r != nil {
		return r
	}
	best := eligible[0]
	for _, r := range eligible[1:] {
		if r.lbValue < best.lbValue {
			best = r
		}
	}
	return best
}

func (p *Prequal) pick(eligible []*Record, rng *rand.Rand) *Record {
	if p.pools == nil {
		return nil
	}
	var mask uint64
	for _, r := range eligible {
		if r.index >= 64 {
			return nil
		}
		p.resolve(r)
		mask |= 1 << r.index
	}
	i := p.pools.Pick(p.handles, mask, rng)
	for _, r := range eligible {
		if r.index == i {
			return r
		}
	}
	return nil
}

// resolve caches the pool handle of r's name at r's index.
func (p *Prequal) resolve(r *Record) {
	i := r.index
	for len(p.handles) <= i {
		p.handles = append(p.handles, probe.Handle{})
		p.names = append(p.names, "")
	}
	if p.names[i] != r.name {
		p.handles[i], p.names[i] = p.pools.Handle(r.name), r.name
	}
}

// peekRows fills the probe fields of a decision's rows, rows[i] being
// recs[i]'s, with the freshest sample the pools hold for each record:
// one Pools call over the cached handles. Detached, it leaves them zero.
func (p *Prequal) peekRows(rows []obs.Row, recs []*Record) {
	if p.pools == nil {
		return
	}
	for _, r := range recs {
		p.resolve(r)
	}
	p.pools.PeekEach(p.handles[:len(recs)], func(i int, s probe.Sample) {
		row := &rows[i]
		row.ProbeInFlight = s.InFlight
		row.ProbeLatencyMs = float64(s.Latency) / float64(time.Millisecond)
		row.ProbeAgeMs = float64(s.Age) / float64(time.Millisecond)
		row.ProbeFresh = true
	})
}
