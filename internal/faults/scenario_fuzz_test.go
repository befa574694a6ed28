package faults_test

import (
	"math"
	"strings"
	"testing"

	"millibalance/internal/faults"
)

// gridScenarios are the simulator grid's injected shapes
// (internal/experiments/grid.go) in text form at -scale 1, a 180 s run.
var gridScenarios = []string{
	"gc_pause:periodic:interval=4s:duration=180ms:jitter=0.3:target=tomcat1,gc_pause:periodic:interval=4s:duration=180ms:jitter=0.3:target=tomcat2," +
		"gc_pause:periodic:interval=4s:duration=180ms:jitter=0.3:target=tomcat3,gc_pause:periodic:interval=4s:duration=180ms:jitter=0.3:target=tomcat4",
	"freeze:random:interval=5s:duration=150ms:target=tomcat1,freeze:random:interval=5s:duration=150ms:target=tomcat2," +
		"freeze:random:interval=5s:duration=150ms:target=tomcat3,freeze:random:interval=5s:duration=150ms:target=tomcat4",
	"freeze:periodic:interval=7.2s:duration=720ms:jitter=0.2",
	"freeze:oneshot:interval=45s:duration=18s,freeze:oneshot:interval=1m48s:duration=18s",
	"freeze:random:interval=4.5s:duration=600ms",
	"freeze:oneshot:interval=5s:duration=50ms",
	"freeze:oneshot:interval=5s:duration=200ms",
}

// FuzzParseScenario asserts the parser's postcondition: whatever bytes
// arrive, ParseScenario either returns an error or returns specs that
// satisfy every documented invariant — a known shape, a valid schedule
// kind, positive interval and duration, and a finite loss and jitter
// within [0, 1]. The NaN-loss hole ("loss=NaN" parsed as valid because
// NaN compares false against both bounds) was found by exactly this
// property. The seeds end with every grid shape and chaos matrix row.
func FuzzParseScenario(f *testing.F) {
	f.Add("freeze:periodic:interval=2s:duration=300ms:jitter=0.25:target=app1")
	f.Add("netloss:oneshot:interval=5s:duration=1s:loss=0.5:target=app2,slow:random:delay=50ms:seed=7")
	f.Add("crash:periodic:count=3")
	f.Add("netloss:oneshot:loss=NaN")
	f.Add("netloss:oneshot:loss=+Inf")
	f.Add("gc_pause:random:interval=1s:duration=10ms")
	f.Add("freeze:periodic:duration=-5s")
	f.Add(":" + strings.Repeat(":", 40))
	f.Add("freeze:periodic:jitter=NaN")
	for _, s := range gridScenarios {
		f.Add(s)
	}
	for _, row := range chaosRows {
		f.Add(row.scenario)
	}
	f.Fuzz(func(t *testing.T, text string) {
		specs, err := faults.ParseScenario(text)
		if err != nil {
			return
		}
		if len(specs) == 0 {
			t.Fatal("nil error with zero specs")
		}
		for i, s := range specs {
			switch s.ShapeKind {
			case "freeze", "gc_pause", "slow", "crash", "netdelay", "netloss":
			default:
				t.Errorf("spec %d: unknown shape %q accepted", i, s.ShapeKind)
			}
			switch s.Sched.Kind {
			case faults.Periodic, faults.Random, faults.OneShot:
			default:
				t.Errorf("spec %d: invalid schedule kind %v accepted", i, s.Sched.Kind)
			}
			if s.Sched.Interval <= 0 || s.Sched.Duration <= 0 {
				t.Errorf("spec %d: non-positive window %v/%v accepted", i, s.Sched.Interval, s.Sched.Duration)
			}
			if j := s.Sched.Jitter; math.IsNaN(j) || j < 0 || j > 1 {
				t.Errorf("spec %d: jitter %g outside [0,1] accepted", i, j)
			}
			if math.IsNaN(s.Loss) || math.IsInf(s.Loss, 0) || s.Loss < 0 || s.Loss > 1 {
				t.Errorf("spec %d: loss %g outside [0,1] accepted", i, s.Loss)
			}
			if s.Delay < 0 || s.Latency < 0 {
				t.Errorf("spec %d: negative delay/latency %v/%v accepted", i, s.Delay, s.Latency)
			}
		}
	})
}

// TestParseScenarioRejectsNonFiniteLoss is the direct regression for
// the NaN hole, independent of the fuzzer.
func TestParseScenarioRejectsNonFiniteLoss(t *testing.T) {
	for _, bad := range []string{"loss=NaN", "loss=nan", "loss=+Inf", "loss=Inf", "loss=-Inf"} {
		if _, err := faults.ParseScenario("netloss:oneshot:" + bad); err == nil {
			t.Errorf("ParseScenario accepted %q", bad)
		}
	}
	if _, err := faults.ParseScenario("netloss:oneshot:loss=0.25"); err != nil {
		t.Errorf("ParseScenario rejected a valid loss: %v", err)
	}
}
