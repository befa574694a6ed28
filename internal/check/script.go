// Package check is the script harness for the balancer's decision core.
// It replays randomized op scripts through both of the core's drivers in
// lockstep — httpcluster.Balancer on the wall clock and lb.Balancer on a
// sim.Engine — checks after every step that the two agree and that the
// dispatch invariants hold (finite lb_values, pool tokens within
// [0, capacity], completed ≤ dispatched), and digests every decision so
// the tests can pin them against testdata/decisions.golden (DESIGN.md
// §13).
//
// Its parts:
//
//   - a seeded script generator with ddmin shrinking: a failing script
//     is minimized and written under testdata/, where it becomes a
//     committed regression replayed by TestDifferentialCorpus;
//   - the decision golden: one SHA-256 per generated cell and corpus
//     script, recorded while the proxy's balancer still ran in lockstep
//     with a second, independent implementation, and reproduced by both
//     drivers;
//   - native go test -fuzz targets (fuzz_test.go) that decode arbitrary
//     bytes into scripts and harden the text format.
package check

import (
	"bufio"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"millibalance/internal/httpcluster"
)

// Arm selects the timing regime of a script's balancer config. All
// three pin every wall-clock-dependent decision (the Busy/Error
// recovery deadlines) to one outcome on every step, so replay is
// deterministic:
//
//   - ArmSticky: recovery intervals of an hour; no recovery ever fires
//     inside a run, transitions latch.
//   - ArmInstant: recovery intervals of a nanosecond; every recovery is
//     due by the next touch, transitions always heal.
//   - ArmOverflow: recovery intervals of 1<<59 ns (≈ 18 years) —
//     sticky in intent, at the far end of what a deadline can hold.
//     This arm once found deadlines wrapping: packed into a 59-bit
//     field, one this far out read as already passed and healed a Busy
//     backend at once (testdata/recover-overflow*.script).
type Arm string

const (
	ArmSticky   Arm = "sticky"
	ArmInstant  Arm = "instant"
	ArmOverflow Arm = "overflow"
)

// Config returns the balancer config the arm pins down. Sweeps is 1 and
// the original mechanism's poll sleeps are nanoseconds, so a script
// replays in microseconds regardless of the mechanism ops it contains.
func (a Arm) Config() httpcluster.Config {
	cfg := httpcluster.Config{
		Sweeps:         1,
		ErrorThreshold: 2,
		AcquireSleep:   time.Nanosecond,
		AcquireTimeout: 2 * time.Nanosecond,
		SweepPause:     time.Nanosecond,
	}
	switch a {
	case ArmInstant:
		cfg.BusyRecovery = time.Nanosecond
		cfg.ErrorRecovery = time.Nanosecond
		cfg.ErrorAfter = time.Nanosecond
	case ArmOverflow:
		cfg.BusyRecovery = time.Duration(1 << 59)
		cfg.ErrorRecovery = time.Duration(1 << 59)
		cfg.ErrorAfter = time.Hour
	default: // ArmSticky
		cfg.BusyRecovery = time.Hour
		cfg.ErrorRecovery = time.Hour
		cfg.ErrorAfter = time.Hour
	}
	return cfg
}

// OpKind enumerates the script operations.
type OpKind int

const (
	// OpAcquire dispatches one request of A bytes; on success the pair
	// of releases joins the open list.
	OpAcquire OpKind = iota
	// OpDone completes open request A (modulo the open count) with B
	// response bytes.
	OpDone
	// OpFail unwinds open request A (modulo the open count) as an
	// upstream failure.
	OpFail
	// OpSetPolicy hot-swaps the policy.
	OpSetPolicy
	// OpSetMechanism hot-swaps the mechanism. With nanosecond poll
	// sleeps a single-threaded script sees the original mechanism's
	// exhausted-pool polling fail as the modified one does, only later.
	OpSetMechanism
	// OpQuarantine drains (On) or paroles (!On) backend A.
	OpQuarantine
	// OpWeight sets backend A's lbfactor to F.
	OpWeight
)

// Op is one script step. A and B are operands whose meaning depends on
// Kind; F is OpWeight's value; On is OpQuarantine's direction; Policy
// and Mech carry the swap targets.
type Op struct {
	Kind   OpKind
	A, B   int64
	F      float64
	On     bool
	Policy httpcluster.Policy
	Mech   httpcluster.Mechanism
}

// Script is one deterministic run: a fixed topology, a timing arm, a
// starting policy/mechanism, and an op list.
type Script struct {
	Arm       Arm
	Backends  int
	Endpoints int
	Policy    httpcluster.Policy
	Mech      httpcluster.Mechanism
	Ops       []Op
}

// backendNames are the stable names scripts index into (modulo
// Backends).
var backendNames = []string{"a", "b", "c", "d", "e", "f", "g", "h"}

// MaxBackends bounds a script's topology (the paper's testbed has four
// application servers; eight leaves the fuzzer headroom).
const MaxBackends = 8

// scriptPolicies are the deterministic policies scripts swap between.
// Prequal is excluded: its power-of-d sampling is random by design, so
// its choices have no place in a decision golden.
var scriptPolicies = []httpcluster.Policy{
	httpcluster.PolicyTotalRequest,
	httpcluster.PolicyTotalTraffic,
	httpcluster.PolicyCurrentLoad,
	httpcluster.PolicyRoundRobin,
}

func policyName(p httpcluster.Policy) string { return p.String() }

func mechName(m httpcluster.Mechanism) string {
	if m == httpcluster.MechanismOriginal {
		return "original"
	}
	return "modified"
}

// Marshal renders the script in the line-oriented testdata format:
//
//	# millicheck script v1
//	arm overflow
//	backends 2
//	endpoints 1
//	policy current_load
//	mech modified
//	acquire 128
//	done 0 256
//	fail 0
//	setpolicy round_robin
//	setmech original
//	quarantine 1 on
//	weight 0 2.5
func (s Script) Marshal() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# millicheck script v1\n")
	fmt.Fprintf(&b, "arm %s\n", s.Arm)
	fmt.Fprintf(&b, "backends %d\n", s.Backends)
	fmt.Fprintf(&b, "endpoints %d\n", s.Endpoints)
	fmt.Fprintf(&b, "policy %s\n", policyName(s.Policy))
	fmt.Fprintf(&b, "mech %s\n", mechName(s.Mech))
	for _, op := range s.Ops {
		switch op.Kind {
		case OpAcquire:
			fmt.Fprintf(&b, "acquire %d\n", op.A)
		case OpDone:
			fmt.Fprintf(&b, "done %d %d\n", op.A, op.B)
		case OpFail:
			fmt.Fprintf(&b, "fail %d\n", op.A)
		case OpSetPolicy:
			fmt.Fprintf(&b, "setpolicy %s\n", policyName(op.Policy))
		case OpSetMechanism:
			fmt.Fprintf(&b, "setmech %s\n", mechName(op.Mech))
		case OpQuarantine:
			state := "off"
			if op.On {
				state = "on"
			}
			fmt.Fprintf(&b, "quarantine %d %s\n", op.A, state)
		case OpWeight:
			fmt.Fprintf(&b, "weight %d %s\n", op.A, strconv.FormatFloat(op.F, 'g', -1, 64))
		}
	}
	return b.String()
}

// Unmarshal parses the Marshal format. Unknown directives and malformed
// lines are errors; the caller decides whether that aborts (corpus
// replay) or skips (fuzzing).
func Unmarshal(text string) (Script, error) {
	s := Script{
		Arm:       ArmSticky,
		Backends:  4,
		Endpoints: 2,
		Policy:    httpcluster.PolicyCurrentLoad,
		Mech:      httpcluster.MechanismModified,
	}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := strings.TrimSpace(sc.Text())
		if raw == "" || strings.HasPrefix(raw, "#") {
			continue
		}
		fields := strings.Fields(raw)
		bad := func(why string) (Script, error) {
			return Script{}, fmt.Errorf("check: line %d %q: %s", line, raw, why)
		}
		switch fields[0] {
		case "arm":
			if len(fields) != 2 {
				return bad("want arm <name>")
			}
			switch Arm(fields[1]) {
			case ArmSticky, ArmInstant, ArmOverflow:
				s.Arm = Arm(fields[1])
			default:
				return bad("unknown arm")
			}
		case "backends":
			n, err := strconv.Atoi(fields[len(fields)-1])
			if err != nil || len(fields) != 2 {
				return bad("want backends <n>")
			}
			if n < 1 {
				n = 1
			}
			if n > MaxBackends {
				n = MaxBackends
			}
			s.Backends = n
		case "endpoints":
			n, err := strconv.Atoi(fields[len(fields)-1])
			if err != nil || len(fields) != 2 {
				return bad("want endpoints <n>")
			}
			if n < 1 {
				n = 1
			}
			if n > 64 {
				n = 64
			}
			s.Endpoints = n
		case "policy", "setpolicy":
			if len(fields) != 2 {
				return bad("want one policy name")
			}
			p, err := httpcluster.ParsePolicy(fields[1])
			if err != nil || p == httpcluster.PolicyPrequal {
				return bad("not a deterministic policy")
			}
			if fields[0] == "policy" {
				s.Policy = p
			} else {
				s.Ops = append(s.Ops, Op{Kind: OpSetPolicy, Policy: p})
			}
		case "mech", "setmech":
			if len(fields) != 2 {
				return bad("want one mechanism name")
			}
			m, err := httpcluster.ParseMechanism(fields[1])
			if err != nil {
				return bad("unknown mechanism")
			}
			if fields[0] == "mech" {
				s.Mech = m
			} else {
				s.Ops = append(s.Ops, Op{Kind: OpSetMechanism, Mech: m})
			}
		case "acquire":
			if len(fields) != 2 {
				return bad("want acquire <bytes>")
			}
			n, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil || n < 0 {
				return bad("bad byte count")
			}
			s.Ops = append(s.Ops, Op{Kind: OpAcquire, A: n})
		case "done":
			if len(fields) != 3 {
				return bad("want done <slot> <bytes>")
			}
			slot, err1 := strconv.ParseInt(fields[1], 10, 64)
			n, err2 := strconv.ParseInt(fields[2], 10, 64)
			if err1 != nil || err2 != nil || slot < 0 || n < 0 {
				return bad("bad operands")
			}
			s.Ops = append(s.Ops, Op{Kind: OpDone, A: slot, B: n})
		case "fail":
			if len(fields) != 2 {
				return bad("want fail <slot>")
			}
			slot, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil || slot < 0 {
				return bad("bad slot")
			}
			s.Ops = append(s.Ops, Op{Kind: OpFail, A: slot})
		case "quarantine":
			if len(fields) != 3 || (fields[2] != "on" && fields[2] != "off") {
				return bad("want quarantine <backend> on|off")
			}
			idx, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil || idx < 0 {
				return bad("bad backend index")
			}
			s.Ops = append(s.Ops, Op{Kind: OpQuarantine, A: idx, On: fields[2] == "on"})
		case "weight":
			if len(fields) != 3 {
				return bad("want weight <backend> <value>")
			}
			idx, err1 := strconv.ParseInt(fields[1], 10, 64)
			w, err2 := strconv.ParseFloat(fields[2], 64)
			if err1 != nil || err2 != nil || idx < 0 {
				return bad("bad operands")
			}
			s.Ops = append(s.Ops, Op{Kind: OpWeight, A: idx, F: w})
		default:
			return bad("unknown directive")
		}
	}
	if err := sc.Err(); err != nil {
		return Script{}, fmt.Errorf("check: scan: %w", err)
	}
	return s, nil
}

// finite reports whether v is a usable float (not NaN, not ±Inf).
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
