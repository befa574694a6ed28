package experiments

import (
	"strings"
	"testing"

	"millibalance/internal/cluster"
)

// TestInjectRefusesWhatTheSimulatorCannotDo: a scenario token means one
// thing on both substrates, and the simulator can only freeze a CPU, so
// it refuses the shapes that need a live server or a network.
func TestInjectRefusesWhatTheSimulatorCannotDo(t *testing.T) {
	c := cluster.New(cluster.QuietMiniConfig())
	for _, shape := range []string{"slow", "crash", "netdelay", "netloss"} {
		_, err := inject(c, shape+":periodic")
		if err == nil || !strings.Contains(err.Error(), "cannot inject "+shape) {
			t.Errorf("inject(%s) err = %v, want a refusal", shape, err)
		}
	}
	if _, err := inject(c, "freeze:oneshot:target=tomcat9"); err == nil || !strings.Contains(err.Error(), "no such app server") {
		t.Errorf("unknown target err = %v", err)
	}
	if _, err := inject(c, "freeze:oneshot:jitter=2"); err == nil {
		t.Error("a grammar error was not returned")
	}
}

// TestShapeScenariosBind: every injected grid shape's scenario parses and
// binds at the tests' scale and at -scale 1.
func TestShapeScenariosBind(t *testing.T) {
	for name, sh := range shapes {
		if sh.faults == nil {
			continue
		}
		for _, opt := range []Options{testOpt, {DurationScale: 1}} {
			cfg := sh.config(opt)
			c := cluster.New(cfg)
			scenario := sh.faults(c, cfg.Duration)
			if _, err := inject(c, scenario); err != nil {
				t.Errorf("%s at scale %v: %q: %v", name, opt.DurationScale, scenario, err)
			}
		}
	}
}
