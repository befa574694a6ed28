package cluster

import (
	"reflect"
	"testing"
	"time"

	"millibalance/internal/adapt"
	"millibalance/internal/mbneck"
)

// TestAdaptiveDisabledByDefault: a nil Adaptive config leaves the
// control plane entirely unarmed.
func TestAdaptiveDisabledByDefault(t *testing.T) {
	cfg := QuietMiniConfig()
	cfg.Duration = 2 * time.Second
	res := Run(cfg)
	if res.Adapt != nil {
		t.Fatalf("decision log present without Adaptive config")
	}
}

// TestAdaptiveQuarantinesFlushingBackend runs the mini topology with
// writeback millibottlenecks armed and the adaptive controller on: the
// detectors' onsets must translate into quarantine decisions, probes
// must re-admit the backends once their flushes pass, and the whole
// decision sequence must be deterministic run-to-run.
func TestAdaptiveQuarantinesFlushingBackend(t *testing.T) {
	cfg := MiniConfig()
	cfg.Adaptive = &adapt.Config{}

	res := Run(cfg)
	if res.Adapt == nil {
		t.Fatal("no decision log")
	}
	if res.Adapt.Count(adapt.ActionQuarantine) == 0 {
		t.Fatalf("no quarantine decisions over %d total", res.Adapt.Len())
	}
	if res.Adapt.Count(adapt.ActionReadmit) == 0 {
		t.Fatalf("quarantined backends never re-admitted (decisions: %d)", res.Adapt.Len())
	}
	// The run must still complete work.
	if res.Responses.Total() == 0 {
		t.Fatal("no requests completed under adaptive control")
	}
	// Event capacity was forced on (the controller needs the detectors).
	if res.Events == nil {
		t.Fatal("event log not armed by Adaptive config")
	}

	// Determinism: an identical config yields the identical decision
	// sequence — the controller runs on the simulation thread only.
	res2 := Run(cfg)
	if !reflect.DeepEqual(res.Adapt.Decisions(), res2.Adapt.Decisions()) {
		t.Fatalf("adaptive decisions differ between identical runs:\n%v\nvs\n%v",
			res.Adapt.Decisions(), res2.Adapt.Decisions())
	}
}

// TestAdaptiveFallbackWhenAllBackendsStalled stalls every app server
// simultaneously: the guardrail must refuse to quarantine the last
// backend, engage the round_robin fallback instead, and exit it once
// the stall clears — with requests still draining end to end.
func TestAdaptiveFallbackWhenAllBackendsStalled(t *testing.T) {
	cfg := QuietMiniConfig() // no natural millibottlenecks
	// Shrink the slow-release dwell so the fallback exit fits inside the
	// 10 s mini run (the default ClearDwell waits 10 s of detector
	// silence before restoring anything).
	cfg.Adaptive = &adapt.Config{
		MinDwell:   time.Second,
		ClearDwell: 2 * time.Second,
	}

	c := New(cfg)
	for _, app := range c.Apps {
		mbneck.NewStalls(c.Eng, app.CPU(), mbneck.Schedule{
			Kind: mbneck.OneShot, Interval: 3 * time.Second, Duration: 1200 * time.Millisecond,
		}).Start()
	}
	res := c.Run()

	if res.Adapt == nil {
		t.Fatal("no decision log")
	}
	if res.Adapt.Count(adapt.ActionFallback) == 0 {
		t.Fatalf("fallback never engaged; decisions: %v", res.Adapt.Decisions())
	}
	if res.Adapt.Count(adapt.ActionFallbackExit) == 0 {
		t.Fatalf("fallback never exited after recovery; decisions: %v", res.Adapt.Decisions())
	}
	// During fallback no backend may be quarantined, and by run end the
	// controller must be back on the base policy with nothing drained.
	if len(res.AdaptState.Quarantined) != 0 {
		t.Fatalf("backends still quarantined at end: %v", res.AdaptState.Quarantined)
	}
	if res.AdaptState.Fallback {
		t.Fatal("still in fallback at end of run")
	}
	// Requests keep draining through the stall and after.
	if res.Responses.Total() == 0 {
		t.Fatal("no requests completed")
	}
}
