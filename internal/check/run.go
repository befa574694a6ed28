package check

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"millibalance/internal/httpcluster"
)

// Failure describes the first point at which a script run broke a
// dispatch invariant. Step is the index into Script.Ops (len(Ops) means
// the post-script drained-state check).
type Failure struct {
	Step int
	Msg  string
}

func (f *Failure) Error() string {
	return fmt.Sprintf("step %d: %s", f.Step, f.Msg)
}

// Run replays the script against a fresh Balancer and returns the first
// invariant violation, or nil when the run is clean. Replay is
// single-threaded and deterministic. A non-nil digest receives the
// run's decisions as they are made (see writeChoice and writeFinal);
// the tests compare it against testdata/decisions.golden.
func Run(s Script, digest io.Writer) *Failure {
	if s.Backends < 1 || s.Backends > MaxBackends {
		return &Failure{Step: -1, Msg: fmt.Sprintf("bad topology: %d backends", s.Backends)}
	}
	if s.Endpoints < 1 {
		return &Failure{Step: -1, Msg: "bad topology: no endpoints"}
	}
	names := backendNames[:s.Backends]
	backends := make([]*httpcluster.Backend, s.Backends)
	for i, n := range names {
		backends[i] = httpcluster.NewBackend(n, "http://unused", s.Endpoints)
	}
	bal := httpcluster.NewBalancer(s.Policy, s.Mech, backends, s.Arm.Config())

	var open []httpcluster.Release
	for step, op := range s.Ops {
		switch op.Kind {
		case OpAcquire:
			be, rel, err := bal.Acquire(op.A)
			if err == nil {
				open = append(open, rel)
			}
			if digest != nil {
				writeChoice(digest, backends, be)
			}
		case OpDone:
			if len(open) == 0 {
				continue
			}
			i := int(op.A) % len(open)
			open[i].Done(op.B)
			open = append(open[:i], open[i+1:]...)
		case OpFail:
			if len(open) == 0 {
				continue
			}
			i := int(op.A) % len(open)
			open[i].Fail()
			open = append(open[:i], open[i+1:]...)
		case OpSetPolicy:
			bal.SetPolicy(op.Policy)
		case OpSetMechanism:
			bal.SetMechanism(op.Mech)
		case OpQuarantine:
			bal.SetQuarantine(names[int(op.A)%len(names)], op.On)
		case OpWeight:
			backends[int(op.A)%len(backends)].SetWeight(op.F)
		}
		if f := checkInvariants(step, backends, s.Endpoints); f != nil {
			return f
		}
	}
	// Drain so the end state is a quiesced system.
	for _, rel := range open {
		rel.Done(0)
	}
	if f := checkDrained(len(s.Ops), backends, s.Endpoints); f != nil {
		return f
	}
	if digest != nil {
		writeFinal(digest, bal, backends)
	}
	return nil
}

// checkInvariants asserts the properties that must hold after every
// step: finite, non-negative lb_values, finite positive weights, pool
// tokens within [0, capacity], and completed ≤ dispatched.
func checkInvariants(step int, backends []*httpcluster.Backend, endpoints int) *Failure {
	for _, be := range backends {
		if lb := be.LBValue(); !finite(lb) || lb < 0 {
			return &Failure{Step: step, Msg: fmt.Sprintf("%s: lb_value %g not finite and non-negative", be.Name(), lb)}
		}
		if w := be.Weight(); !finite(w) || w <= 0 {
			return &Failure{Step: step, Msg: fmt.Sprintf("%s: weight %g not finite and positive", be.Name(), w)}
		}
		if free := be.FreeEndpoints(); free < 0 || free > endpoints {
			return &Failure{Step: step, Msg: fmt.Sprintf("%s: %d/%d free endpoint tokens", be.Name(), free, endpoints)}
		}
		if d, c := be.Dispatched(), be.Completed(); c > d {
			return &Failure{Step: step, Msg: fmt.Sprintf("%s: completed %d > dispatched %d", be.Name(), c, d)}
		}
	}
	return nil
}

// checkDrained asserts the quiesced end state: every token is home and
// every dispatch completed.
func checkDrained(step int, backends []*httpcluster.Backend, endpoints int) *Failure {
	for _, be := range backends {
		if free := be.FreeEndpoints(); free != endpoints {
			return &Failure{Step: step, Msg: fmt.Sprintf("%s: %d/%d free endpoint tokens after drain", be.Name(), free, endpoints)}
		}
		if d, c := be.Dispatched(), be.Completed(); d != c {
			return &Failure{Step: step, Msg: fmt.Sprintf("%s: dispatched %d != completed %d after drain", be.Name(), d, c)}
		}
	}
	return nil
}

// writeChoice records one acquire's outcome: the chosen backend's index,
// or 0xff when the acquire failed.
func writeChoice(w io.Writer, backends []*httpcluster.Backend, chosen *httpcluster.Backend) {
	rec := [1]byte{0xff}
	for i, be := range backends {
		if be == chosen {
			rec[0] = byte(i)
		}
	}
	_, _ = w.Write(rec[:])
}

// writeFinal records the drained end state: the reject count and, per
// backend, dispatched, completed, traffic, the lb_value's bits, the
// state, the quarantine flag and the free endpoint tokens.
func writeFinal(w io.Writer, bal *httpcluster.Balancer, backends []*httpcluster.Backend) {
	le := binary.LittleEndian
	rec := le.AppendUint64(nil, bal.Rejects())
	for _, be := range backends {
		rec = le.AppendUint64(rec, be.Dispatched())
		rec = le.AppendUint64(rec, be.Completed())
		rec = le.AppendUint64(rec, uint64(be.Traffic()))
		rec = le.AppendUint64(rec, math.Float64bits(be.LBValue()))
		quarantined := byte(0)
		if be.Quarantined() {
			quarantined = 1
		}
		rec = append(rec, byte(be.State()), quarantined)
		rec = le.AppendUint64(rec, uint64(be.FreeEndpoints()))
	}
	_, _ = w.Write(rec)
}
