package faults

import "testing"

// Error-path coverage for the scenario parser. TestParseScenario only
// checks that malformed specs are rejected; these tests pin the exact
// diagnostics, because the messages are what operators see when a
// -faults flag is mistyped and a vague error makes the DSL unusable.
func TestParseSpecErrorMessages(t *testing.T) {
	cases := []struct {
		spec string
		want string
	}{
		{"freeze", `faults: "freeze": want shape:schedule[:key=value]...`},
		{"warp:periodic", `faults: unknown shape "warp"`},
		{"freeze:sometimes", `faults: unknown schedule "sometimes"`},
		{"freeze:periodic:interval", `faults: "interval": want key=value`},
		{"freeze:periodic:bogus=1", `faults: unknown key "bogus" in "freeze:periodic:bogus=1"`},
		{"freeze:periodic:interval=-2s", `faults: "interval=-2s": duration -2s not positive`},
		{"freeze:periodic:duration=0s", `faults: "duration=0s": duration 0s not positive`},
		{"gc_pause:periodic:jitter=-0.1", `faults: "jitter=-0.1": jitter outside [0,1]`},
		{"gc_pause:periodic:jitter=1.5", `faults: "jitter=1.5": jitter outside [0,1]`},
		{"gc_pause:periodic:jitter=NaN", `faults: "jitter=NaN": jitter outside [0,1]`},
		{"gc_pause:periodic:jitter=+Inf", `faults: "jitter=+Inf": jitter outside [0,1]`},
		{"gc_pause:periodic:jitter=-Inf", `faults: "jitter=-Inf": jitter outside [0,1]`},
		{"gc_pause:periodic:jitter=5ms", `faults: "jitter=5ms": strconv.ParseFloat: parsing "5ms": invalid syntax`},
		{"netloss:oneshot:loss=1.5", `faults: "loss=1.5": loss outside [0,1]`},
		{"netloss:oneshot:loss=-0.1", `faults: "loss=-0.1": loss outside [0,1]`},
	}
	for _, tc := range cases {
		_, err := ParseSpec(tc.spec)
		if err == nil {
			t.Errorf("ParseSpec(%q) accepted, want error %q", tc.spec, tc.want)
			continue
		}
		if err.Error() != tc.want {
			t.Errorf("ParseSpec(%q) = %q, want %q", tc.spec, err.Error(), tc.want)
		}
	}
}

func TestParseScenarioErrorMessages(t *testing.T) {
	for _, empty := range []string{"", "   ", ",", " , ,"} {
		_, err := ParseScenario(empty)
		if err == nil || err.Error() != "faults: empty scenario" {
			t.Errorf("ParseScenario(%q) err = %v, want faults: empty scenario", empty, err)
		}
	}

	// A bad spec anywhere in the list surfaces its own diagnostic, not a
	// generic scenario error.
	_, err := ParseScenario("freeze:periodic, warp:oneshot")
	if err == nil || err.Error() != `faults: unknown shape "warp"` {
		t.Errorf("ParseScenario err = %v, want unknown shape", err)
	}
}
