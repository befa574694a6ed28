package check

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Failure describes the first point at which a script run broke a
// dispatch invariant or the two drivers parted. Step is the index into
// Script.Ops (len(Ops) means the post-script drained-state check).
type Failure struct {
	Step int
	Msg  string
}

func (f *Failure) Error() string {
	return fmt.Sprintf("step %d: %s", f.Step, f.Msg)
}

// driverNames name Run's drivers in messages, in Run's order.
var driverNames = [...]string{"proxy", "simulator"}

// Run replays the script through both of the decision core's drivers in
// lockstep — the proxy's httpcluster.Balancer and lb.Balancer on a
// sim.Engine — and returns the first invariant violation, or the first
// step at which the two disagree on a choice, the reject count or any
// backend's state, lb_value, weight, counters or tokens; nil when the run
// is clean. Replay is single-threaded and deterministic. A non-nil digest
// receives the run's decisions as they are made (see writeChoice and
// writeFinal); the tests compare it against testdata/decisions.golden. A
// clean run's drivers agree on every step, so the digest is both
// drivers'.
func Run(s Script, digest io.Writer) *Failure {
	if s.Backends < 1 || s.Backends > MaxBackends {
		return &Failure{Step: -1, Msg: fmt.Sprintf("bad topology: %d backends", s.Backends)}
	}
	if s.Endpoints < 1 {
		return &Failure{Step: -1, Msg: "bad topology: no endpoints"}
	}
	drivers := [...]driver{newProxyDriver(s), newSimDriver(s)}
	for step, op := range s.Ops {
		var chosen [len(drivers)]int
		for k, d := range drivers {
			chosen[k] = apply(d, op, s.Backends)
			d.settle()
		}
		if chosen[0] != chosen[1] {
			return &Failure{Step: step, Msg: fmt.Sprintf("proxy chose %s, simulator chose %s",
				choiceName(chosen[0]), choiceName(chosen[1]))}
		}
		if op.Kind == OpAcquire && digest != nil {
			writeChoice(digest, chosen[0])
		}
		if f := compare(step, drivers[:], s); f != nil {
			return f
		}
	}
	// Drain so the end state is a quiesced system.
	for _, d := range drivers {
		for d.open() > 0 {
			d.done(0, 0)
		}
		d.settle()
	}
	if f := compare(len(s.Ops), drivers[:], s); f != nil {
		return f
	}
	for k, d := range drivers {
		if f := checkDrained(len(s.Ops), driverNames[k], d, s); f != nil {
			return f
		}
	}
	if digest != nil {
		writeFinal(digest, drivers[0], s.Backends)
	}
	return nil
}

// apply runs one op on d and returns an acquire's choice (-1 for a
// reject), or -2 for any other op.
func apply(d driver, op Op, backends int) int {
	switch op.Kind {
	case OpAcquire:
		return d.acquire(op.A)
	case OpDone:
		if n := d.open(); n > 0 {
			d.done(int(op.A)%n, op.B)
		}
	case OpFail:
		if n := d.open(); n > 0 {
			d.fail(int(op.A) % n)
		}
	case OpSetPolicy:
		d.setPolicy(op.Policy)
	case OpSetMechanism:
		d.setMechanism(op.Mech)
	case OpQuarantine:
		d.quarantine(int(op.A)%backends, op.On)
	case OpWeight:
		d.weight(int(op.A)%backends, op.F)
	}
	return -2
}

func choiceName(i int) string {
	if i < 0 {
		return "nothing"
	}
	return backendNames[i]
}

// compare checks each driver's invariants, then that the drivers agree
// on the reject count and on every backend.
func compare(step int, drivers []driver, s Script) *Failure {
	for k, d := range drivers {
		if f := checkInvariants(step, driverNames[k], d, s); f != nil {
			return f
		}
	}
	if a, b := drivers[0].rejects(), drivers[1].rejects(); a != b {
		return &Failure{Step: step, Msg: fmt.Sprintf("rejects: proxy %d, simulator %d", a, b)}
	}
	for i := 0; i < s.Backends; i++ {
		if a, b := drivers[0].backend(i), drivers[1].backend(i); a != b {
			return &Failure{Step: step, Msg: fmt.Sprintf("%s: proxy %+v, simulator %+v", backendNames[i], a, b)}
		}
	}
	return nil
}

// checkInvariants asserts the properties that must hold after every
// step: finite, non-negative lb_values, finite positive weights, pool
// tokens within [0, capacity], and completed ≤ dispatched.
func checkInvariants(step int, name string, d driver, s Script) *Failure {
	for i := 0; i < s.Backends; i++ {
		be, at := d.backend(i), name+": "+backendNames[i]
		if !finite(be.lbValue) || be.lbValue < 0 {
			return &Failure{Step: step, Msg: fmt.Sprintf("%s: lb_value %g not finite and non-negative", at, be.lbValue)}
		}
		if !finite(be.weight) || be.weight <= 0 {
			return &Failure{Step: step, Msg: fmt.Sprintf("%s: weight %g not finite and positive", at, be.weight)}
		}
		if be.free < 0 || be.free > s.Endpoints {
			return &Failure{Step: step, Msg: fmt.Sprintf("%s: %d/%d free endpoint tokens", at, be.free, s.Endpoints)}
		}
		if be.completed > be.dispatched {
			return &Failure{Step: step, Msg: fmt.Sprintf("%s: completed %d > dispatched %d", at, be.completed, be.dispatched)}
		}
	}
	return nil
}

// checkDrained asserts the quiesced end state: every token is home and
// every dispatch completed.
func checkDrained(step int, name string, d driver, s Script) *Failure {
	for i := 0; i < s.Backends; i++ {
		be, at := d.backend(i), name+": "+backendNames[i]
		if be.free != s.Endpoints {
			return &Failure{Step: step, Msg: fmt.Sprintf("%s: %d/%d free endpoint tokens after drain", at, be.free, s.Endpoints)}
		}
		if be.dispatched != be.completed {
			return &Failure{Step: step, Msg: fmt.Sprintf("%s: dispatched %d != completed %d after drain", at, be.dispatched, be.completed)}
		}
	}
	return nil
}

// writeChoice records one acquire's outcome: the chosen backend's index,
// or 0xff when the acquire failed.
func writeChoice(w io.Writer, chosen int) {
	rec := [1]byte{0xff}
	if chosen >= 0 {
		rec[0] = byte(chosen)
	}
	_, _ = w.Write(rec[:])
}

// writeFinal records the drained end state: the reject count and, per
// backend, dispatched, completed, traffic, the lb_value's bits, the
// state, the quarantine flag and the free endpoint tokens.
func writeFinal(w io.Writer, d driver, backends int) {
	le := binary.LittleEndian
	rec := le.AppendUint64(nil, d.rejects())
	for i := 0; i < backends; i++ {
		be := d.backend(i)
		rec = le.AppendUint64(rec, be.dispatched)
		rec = le.AppendUint64(rec, be.completed)
		rec = le.AppendUint64(rec, uint64(be.traffic))
		rec = le.AppendUint64(rec, math.Float64bits(be.lbValue))
		quarantined := byte(0)
		if be.quarantined {
			quarantined = 1
		}
		rec = append(rec, byte(be.state), quarantined)
		rec = le.AppendUint64(rec, uint64(be.free))
	}
	_, _ = w.Write(rec)
}
