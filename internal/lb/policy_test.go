package lb

import (
	"testing"
	"testing/quick"

	"millibalance/internal/sim"
)

func newCand(name string, endpoints int) *Candidate {
	return NewCandidate(name, sim.NewPool(endpoints))
}

func TestTotalRequestIncrementsOnDispatchOnly(t *testing.T) {
	c := newRecs("app1")[0]
	p := TotalRequest{}
	p.OnDispatch(c, RequestInfo{})
	if c.LBValue() != LBMult {
		t.Fatalf("lb_value = %v after dispatch", c.LBValue())
	}
	p.OnComplete(c, RequestInfo{})
	if c.LBValue() != LBMult {
		t.Fatalf("lb_value = %v after completion; total_request must not change on completion", c.LBValue())
	}
}

func TestTotalTrafficIncrementsOnCompletionOnly(t *testing.T) {
	c := newRecs("app1")[0]
	p := TotalTraffic{}
	info := RequestInfo{RequestBytes: 300, ResponseBytes: 700}
	p.OnDispatch(c, info)
	if c.LBValue() != 0 {
		t.Fatalf("lb_value = %v after dispatch; total_traffic accounts on completion", c.LBValue())
	}
	p.OnComplete(c, info)
	if c.LBValue() != 1000*LBMult {
		t.Fatalf("lb_value = %v, want 1000", c.LBValue())
	}
}

func TestCurrentLoadTracksInFlight(t *testing.T) {
	c := newRecs("app1")[0]
	p := CurrentLoad{}
	p.OnDispatch(c, RequestInfo{})
	p.OnDispatch(c, RequestInfo{})
	if c.LBValue() != 2*LBMult {
		t.Fatalf("lb_value = %v after two dispatches", c.LBValue())
	}
	p.OnComplete(c, RequestInfo{})
	if c.LBValue() != LBMult {
		t.Fatalf("lb_value = %v after one completion", c.LBValue())
	}
}

func TestCurrentLoadFloorsAtZero(t *testing.T) {
	c := newRecs("app1")[0]
	p := CurrentLoad{}
	p.OnComplete(c, RequestInfo{})
	if c.LBValue() != 0 {
		t.Fatalf("lb_value = %v, want floor at 0", c.LBValue())
	}
}

// Property: under any interleaving of dispatches and completions (never
// completing more than dispatched), current_load's lb_value equals the
// in-flight count times LBMult — the paper's "current state" semantics.
func TestQuickCurrentLoadEqualsInFlight(t *testing.T) {
	f := func(ops []bool) bool {
		c := newRecs("app1")[0]
		p := CurrentLoad{}
		inFlight := 0
		for _, dispatch := range ops {
			if dispatch {
				p.OnDispatch(c, RequestInfo{})
				inFlight++
			} else if inFlight > 0 {
				p.OnComplete(c, RequestInfo{})
				inFlight--
			}
			if c.LBValue() != float64(inFlight)*LBMult {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPolicyByName(t *testing.T) {
	for _, name := range PolicyNames() {
		p, ok := PolicyByName(name)
		if !ok {
			t.Fatalf("PolicyByName(%q) not found", name)
		}
		if p.Name() != name {
			t.Fatalf("policy %q reports name %q", name, p.Name())
		}
	}
	if _, ok := PolicyByName("nonsense"); ok {
		t.Fatal("unknown policy resolved")
	}
}

func TestMechanismByName(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	for _, name := range MechanismNames() {
		m, ok := MechanismByName(name, eng)
		if !ok || m.Name() != name {
			t.Fatalf("MechanismByName(%q) = %v, %v", name, m, ok)
		}
	}
	if m, ok := MechanismByName("original", eng); !ok || m.Name() != "original_get_endpoint" {
		t.Fatal("short alias 'original' not resolved")
	}
	if m, ok := MechanismByName("modified", eng); !ok || m.Name() != "modified_get_endpoint" {
		t.Fatal("short alias 'modified' not resolved")
	}
	if _, ok := MechanismByName("nonsense", eng); ok {
		t.Fatal("unknown mechanism resolved")
	}
}

func TestStateString(t *testing.T) {
	cases := map[State]string{
		StateAvailable: "available",
		StateBusy:      "busy",
		StateError:     "error",
		State(99):      "State(99)",
	}
	for s, want := range cases {
		if s.String() != want {
			t.Fatalf("State(%d).String() = %q, want %q", int(s), s.String(), want)
		}
	}
}

func TestNewCandidateNilPoolPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil pool did not panic")
		}
	}()
	NewCandidate("x", nil)
}

// newRecs returns records numbered in order, as NewCore numbers them.
func newRecs(names ...string) []*Record {
	recs := make([]*Record, len(names))
	for i, n := range names {
		r := NewRecord(n)
		r.index = i
		recs[i] = &r
	}
	return recs
}
