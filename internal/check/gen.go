package check

import (
	"math"

	"millibalance/internal/httpcluster"
)

// rng is the harness's deterministic generator: splitmix64 over a
// counter, so a script seed reproduces forever and everywhere.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// genWeights are the lbfactors the generator assigns. The non-finite
// and non-positive tail exercises the write-site guards: a NaN weight
// must be rejected at SetWeight, not propagated into every subsequent
// lb_value update (the poisoning bug this harness flushed out).
var genWeights = []float64{1, 1, 1, 2, 2, 3, 0.5, 0, -1, math.NaN(), math.Inf(1)}

// Generate derives a script from a seed. Arms, topology, the starting
// policy/mechanism and the op mix are all drawn from the seed, so a
// corpus of seeds covers sticky/instant/overflow timing × all four
// deterministic policies × both mechanisms.
func Generate(seed uint64) Script {
	r := &rng{s: seed * 0x9e3779b97f4a7c15}
	arms := []Arm{ArmSticky, ArmSticky, ArmInstant, ArmInstant, ArmOverflow}
	s := Script{
		Arm:       arms[r.intn(len(arms))],
		Backends:  2 + r.intn(3),
		Endpoints: 1 + r.intn(3),
		Policy:    scriptPolicies[r.intn(len(scriptPolicies))],
		Mech:      httpcluster.Mechanism(1 + r.intn(2)),
	}
	nops := 30 + r.intn(120)
	for i := 0; i < nops; i++ {
		s.Ops = append(s.Ops, genOp(r))
	}
	return s
}

func genOp(r *rng) Op {
	switch roll := r.intn(100); {
	case roll < 45:
		return Op{Kind: OpAcquire, A: int64(r.intn(4096))}
	case roll < 65:
		return Op{Kind: OpDone, A: int64(r.intn(16)), B: int64(r.intn(8192))}
	case roll < 73:
		return Op{Kind: OpFail, A: int64(r.intn(16))}
	case roll < 81:
		return Op{Kind: OpSetPolicy, Policy: scriptPolicies[r.intn(len(scriptPolicies))]}
	case roll < 86:
		return Op{Kind: OpSetMechanism, Mech: httpcluster.Mechanism(1 + r.intn(2))}
	case roll < 94:
		return Op{Kind: OpQuarantine, A: int64(r.intn(MaxBackends)), On: r.intn(2) == 0}
	default:
		return Op{Kind: OpWeight, A: int64(r.intn(MaxBackends)), F: genWeights[r.intn(len(genWeights))]}
	}
}

// Shrink minimizes a failing script with ddmin over the op list:
// chunk-removal passes with halving granularity, repeated until no
// single op can be removed while the script keeps failing. The replay
// semantics make any subsequence valid (slot references resolve modulo
// the live open count; empty-list references are skipped), so removal
// never has to repair the remaining ops.
func Shrink(s Script, fails func(Script) bool) Script {
	if !fails(s) {
		return s
	}
	best := s
	pass := func(chunk int) bool {
		removed := false
		for start := 0; start+chunk <= len(best.Ops); {
			cand := best
			cand.Ops = append(append([]Op{}, best.Ops[:start]...), best.Ops[start+chunk:]...)
			if fails(cand) {
				best = cand
				removed = true
				continue // same start now addresses the next chunk
			}
			start += chunk
		}
		return removed
	}
	for chunk := len(best.Ops) / 2; chunk > 1; chunk /= 2 {
		pass(chunk)
	}
	for pass(1) {
	}
	// Topology passes: fewer backends and endpoints make the committed
	// regression easier to read.
	for best.Backends > 1 {
		cand := best
		cand.Backends--
		if !fails(cand) {
			break
		}
		best = cand
	}
	for best.Endpoints > 1 {
		cand := best
		cand.Endpoints--
		if !fails(cand) {
			break
		}
		best = cand
	}
	return best
}
