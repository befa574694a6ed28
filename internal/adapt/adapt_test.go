package adapt

import (
	"bytes"
	"reflect"
	"sync"
	"testing"
	"time"

	"millibalance/internal/obs"
)

// fakeActuator records actions; safe for concurrent use.
type fakeActuator struct {
	mu          sync.Mutex
	backends    []string
	policy      string
	mechanism   string
	quarantined map[string]bool
	probes      map[string]int
}

func newFakeActuator(backends ...string) *fakeActuator {
	return &fakeActuator{
		backends:    backends,
		quarantined: make(map[string]bool),
		probes:      make(map[string]int),
	}
}

func (f *fakeActuator) Backends() []string { return f.backends }

func (f *fakeActuator) SetPolicy(name string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.policy = name
}

func (f *fakeActuator) SetMechanism(name string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.mechanism = name
}

func (f *fakeActuator) SetQuarantine(backend string, on bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.quarantined[backend] = on
}

func (f *fakeActuator) ArmProbe(backend string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.probes[backend]++
}

func (f *fakeActuator) TightenLimit(bool) bool { return false }

func (f *fakeActuator) quarantinedCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, on := range f.quarantined {
		if on {
			n++
		}
	}
	return n
}

func testConfig() Config {
	return Config{
		BasePolicy:    "total_request",
		BaseMechanism: "original_get_endpoint",
	}
}

func onset(t time.Duration, backend string) obs.Event {
	return obs.Event{T: t, Kind: obs.KindOnset, Source: backend}
}

func TestQuarantineAndProbeReadmission(t *testing.T) {
	act := newFakeActuator("app1", "app2")
	c := NewController(testConfig(), act)

	c.OnEvent(onset(time.Second, "app1"))
	if !act.quarantined["app1"] {
		t.Fatal("app1 not quarantined after onset")
	}
	// Second onset for the same backend is idempotent.
	c.OnEvent(onset(time.Second+time.Millisecond, "app1"))
	if got := c.Log().Count(ActionQuarantine); got != 1 {
		t.Fatalf("quarantine decisions = %d, want 1", got)
	}

	// The tick after the probe interval arms a probe.
	c.Tick(1200 * time.Millisecond)
	c.Tick(1300 * time.Millisecond)
	if act.probes["app1"] == 0 {
		t.Fatal("no probe armed after the probe interval")
	}

	// A good probe while the saturation span is still open must NOT
	// re-admit: it merely landed in a gap between micro-stalls.
	c.OnProbe(1250*time.Millisecond, "app1", 50*time.Millisecond, true)
	if !act.quarantined["app1"] {
		t.Fatal("probe re-admitted while the detector span was still open")
	}

	// Span closes, then an in-budget probe re-admits.
	c.OnEvent(obs.Event{T: 1280 * time.Millisecond, Kind: obs.KindMillibottleneck, Source: "app1"})
	c.OnProbe(1300*time.Millisecond, "app1", 50*time.Millisecond, true)
	if act.quarantined["app1"] {
		t.Fatal("app1 still quarantined after a good probe")
	}
	if got := c.Log().Count(ActionReadmit); got != 1 {
		t.Fatalf("readmit decisions = %d, want 1", got)
	}
}

func TestSlowProbeDoesNotReadmit(t *testing.T) {
	act := newFakeActuator("app1", "app2")
	c := NewController(testConfig(), act)
	c.OnEvent(onset(time.Second, "app1"))
	c.OnProbe(1500*time.Millisecond, "app1", 2*time.Second, true) // over budget
	if !act.quarantined["app1"] {
		t.Fatal("over-budget probe lifted the quarantine")
	}
	c.OnProbe(1600*time.Millisecond, "app1", 0, false) // failed probe
	if !act.quarantined["app1"] {
		t.Fatal("failed probe lifted the quarantine")
	}
}

func TestMaxQuarantineParole(t *testing.T) {
	cfg := testConfig()
	cfg.MaxQuarantine = 2 * time.Second
	act := newFakeActuator("app1", "app2")
	c := NewController(cfg, act)
	c.OnEvent(onset(time.Second, "app1"))
	c.Tick(2900 * time.Millisecond)
	if !act.quarantined["app1"] {
		t.Fatal("paroled too early")
	}
	c.Tick(3100 * time.Millisecond)
	if act.quarantined["app1"] {
		t.Fatal("parole bound did not re-admit")
	}
}

func TestGuardrailNeverQuarantinesAll(t *testing.T) {
	act := newFakeActuator("app1", "app2", "app3")
	c := NewController(testConfig(), act)
	c.OnEvent(onset(time.Second, "app1"))
	c.OnEvent(onset(time.Second, "app2"))
	if got := act.quarantinedCount(); got != 2 {
		t.Fatalf("quarantined = %d, want 2", got)
	}
	// The last healthy backend looks stalled too → fallback, all lifted.
	c.OnEvent(onset(time.Second, "app3"))
	if got := act.quarantinedCount(); got != 0 {
		t.Fatalf("quarantined after fallback = %d, want 0", got)
	}
	if act.policy != "round_robin" {
		t.Fatalf("fallback policy = %q, want round_robin", act.policy)
	}
	if c.Log().Count(ActionFallback) != 1 {
		t.Fatal("no fallback decision recorded")
	}
	st := c.State()
	if !st.Fallback || st.Policy != "round_robin" {
		t.Fatalf("state = %+v, want fallback round_robin", st)
	}
}

func TestFallbackExitRestoresPolicy(t *testing.T) {
	cfg := testConfig()
	cfg.MinDwell = 500 * time.Millisecond
	cfg.ClearDwell = 500 * time.Millisecond
	act := newFakeActuator("app1", "app2")
	c := NewController(cfg, act)
	c.OnEvent(onset(time.Second, "app1"))
	c.OnEvent(onset(time.Second, "app2")) // fallback
	if act.policy != "round_robin" {
		t.Fatalf("policy = %q, want round_robin", act.policy)
	}
	// Quiet ticks: clear must hold for MinDwell past the last shift.
	for now := 1100 * time.Millisecond; now <= 3*time.Second; now += 100 * time.Millisecond {
		c.Tick(now)
	}
	if act.policy != "total_request" {
		t.Fatalf("policy after fallback exit = %q, want total_request", act.policy)
	}
	if c.Log().Count(ActionFallbackExit) != 1 {
		t.Fatal("no fallback_exit decision recorded")
	}
}

// feedBad pushes a window's worth of VLRT outcomes.
func feedBad(c *Controller, now time.Duration, n int) {
	for i := 0; i < n; i++ {
		c.OnOutcome(now, 2*time.Second, true)
	}
}

// feedGood pushes fast outcomes.
func feedGood(c *Controller, now time.Duration, n int) {
	for i := 0; i < n; i++ {
		c.OnOutcome(now, 3*time.Millisecond, true)
	}
}

func TestHotSwapEscalationAndHysteresis(t *testing.T) {
	cfg := testConfig()
	cfg.MinDwell = 400 * time.Millisecond
	act := newFakeActuator("app1", "app2")
	c := NewController(cfg, act)

	// Warm-up tick history so lastShift=0 dwell is satisfied.
	now := 500 * time.Millisecond
	feedBad(c, now, 50)
	c.Tick(now)
	if act.mechanism != "modified_get_endpoint" {
		t.Fatalf("mechanism = %q, want modified_get_endpoint after first trip", act.mechanism)
	}
	if act.policy != "" {
		t.Fatalf("policy swapped on the same tick as the mechanism (dwell violated): %q", act.policy)
	}

	// Still tripping inside the dwell window: no second swap.
	now += 100 * time.Millisecond
	feedBad(c, now, 50)
	c.Tick(now)
	if act.policy != "" {
		t.Fatal("policy swapped before MinDwell elapsed")
	}

	// Past the dwell and still tripping: escalate to the policy swap.
	now += 400 * time.Millisecond
	feedBad(c, now, 50)
	c.Tick(now)
	if act.policy != "current_load" {
		t.Fatalf("policy = %q, want current_load after second trip", act.policy)
	}
	if c.Log().Count(ActionSwapMechanism) != 1 || c.Log().Count(ActionSwapPolicy) != 1 {
		t.Fatalf("swap decisions = %d/%d, want 1/1",
			c.Log().Count(ActionSwapMechanism), c.Log().Count(ActionSwapPolicy))
	}

	// Sustained clear de-escalates one rung at a time, newest first.
	for i := 0; i < 60; i++ {
		now += 100 * time.Millisecond
		feedGood(c, now, 30)
		c.Tick(now)
	}
	if act.policy != "total_request" || act.mechanism != "original_get_endpoint" {
		t.Fatalf("after sustained clear: policy=%q mechanism=%q, want base config",
			act.policy, act.mechanism)
	}
	if c.Log().Count(ActionRevertPolicy) != 1 || c.Log().Count(ActionRevertMechanism) != 1 {
		t.Fatal("missing revert decisions")
	}
	// Revert order: policy (rung 2) before mechanism (rung 1).
	var revertOrder []string
	for _, d := range c.Log().Decisions() {
		if d.Action == ActionRevertPolicy || d.Action == ActionRevertMechanism {
			revertOrder = append(revertOrder, d.Action)
		}
	}
	if len(revertOrder) != 2 || revertOrder[0] != ActionRevertPolicy {
		t.Fatalf("revert order = %v", revertOrder)
	}
}

func TestRejectRateTrips(t *testing.T) {
	cfg := testConfig()
	cfg.MinDwell = 100 * time.Millisecond
	act := newFakeActuator("app1", "app2")
	c := NewController(cfg, act)
	for i := 0; i < 10; i++ {
		c.OnEvent(obs.Event{T: 200 * time.Millisecond, Kind: obs.KindReject, Source: "apache1"})
	}
	c.Tick(200 * time.Millisecond)
	if act.mechanism != "modified_get_endpoint" {
		t.Fatalf("reject burst did not trip the swap (mechanism=%q)", act.mechanism)
	}
}

func TestBorderlineRateHoldsState(t *testing.T) {
	// Between clear and trip: neither escalate nor de-escalate.
	cfg := testConfig()
	cfg.MinDwell = 100 * time.Millisecond
	cfg.Window = 100 * time.Millisecond // one bucket: each tick sees only its own feeds
	act := newFakeActuator("app1", "app2")
	c := NewController(cfg, act)
	now := 200 * time.Millisecond
	feedBad(c, now, 50)
	c.Tick(now)
	if act.mechanism != "modified_get_endpoint" {
		t.Fatal("setup: first trip missing")
	}
	// ~1% bad: above clear (0.5%), below trip (2%).
	for i := 0; i < 50; i++ {
		now += 100 * time.Millisecond
		feedGood(c, now, 99)
		c.OnOutcome(now, 2*time.Second, true)
		c.Tick(now)
	}
	if act.mechanism != "modified_get_endpoint" {
		t.Fatal("borderline rate reverted the swap (hysteresis violated)")
	}
	if c.Log().Count(ActionSwapPolicy) != 0 {
		t.Fatal("borderline rate escalated")
	}
}

func TestDecisionLogJSONLRoundTrip(t *testing.T) {
	log := NewDecisionLog(16)
	in := []Decision{
		{T: time.Second, Action: ActionQuarantine, Backend: "tomcat1", Reason: "mb_onset", VLRTRate: 0.031, Level: 0},
		{T: 1200 * time.Millisecond, Action: ActionProbe, Backend: "tomcat1", Reason: "interval"},
		{T: 1400 * time.Millisecond, Action: ActionReadmit, Backend: "tomcat1", Reason: "probe_ok"},
		{T: 2 * time.Second, Action: ActionSwapMechanism, Policy: "total_request",
			Mechanism: "modified_get_endpoint", Reason: "trip", VLRTRate: 0.05, RejectRate: 3.5, Level: 1},
	}
	for _, d := range in {
		log.Append(d)
	}
	var buf bytes.Buffer
	if err := log.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	out, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", in, out)
	}
}

func TestDecisionLogRingBound(t *testing.T) {
	log := NewDecisionLog(4)
	for i := 0; i < 10; i++ {
		log.Append(Decision{T: time.Duration(i), Action: ActionProbe})
	}
	if log.Len() != 4 || log.Appended() != 10 || log.Overwritten() != 6 {
		t.Fatalf("len=%d appended=%d overwrote=%d", log.Len(), log.Appended(), log.Overwritten())
	}
	ds := log.Decisions()
	if ds[0].T != 6 || ds[3].T != 9 {
		t.Fatalf("ring order wrong: %+v", ds)
	}
}
