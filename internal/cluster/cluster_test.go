package cluster

import (
	"testing"
	"time"

	"millibalance/internal/mbneck"
	"millibalance/internal/metrics"
)

func TestConfigValidate(t *testing.T) {
	good := MiniConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("MiniConfig invalid: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero duration", func(c *Config) { c.Duration = 0 }},
		{"zero clients", func(c *Config) { c.Clients = 0 }},
		{"no web servers", func(c *Config) { c.NumWeb = 0 }},
		{"no app servers", func(c *Config) { c.NumApp = 0 }},
		{"zero think", func(c *Config) { c.ThinkTime = 0 }},
		{"bad policy", func(c *Config) { c.Policy = "nope" }},
		{"bad mechanism", func(c *Config) { c.Mechanism = "nope" }},
	}
	for _, tc := range cases {
		cfg := MiniConfig()
		tc.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Fatalf("%s: Validate accepted invalid config", tc.name)
		}
	}
}

func TestPaperConfigMatchesPaperTableIII(t *testing.T) {
	cfg := PaperConfig()
	if cfg.NumWeb != 4 || cfg.NumApp != 4 {
		t.Fatalf("topology %d/%d, want 4/4", cfg.NumWeb, cfg.NumApp)
	}
	if cfg.Clients != 70000 {
		t.Fatalf("clients = %d, want 70000", cfg.Clients)
	}
	if cfg.WebWorkers != 200 {
		t.Fatalf("web workers = %d, want Apache MaxClients 200", cfg.WebWorkers)
	}
	if cfg.ConnPoolSize != 25 {
		t.Fatalf("conn pool = %d, want mod_jk 25", cfg.ConnPoolSize)
	}
	if cfg.AppWorkers != 210 {
		t.Fatalf("app workers = %d, want Tomcat maxThreads 210", cfg.AppWorkers)
	}
	if cfg.DBConns != 48 {
		t.Fatalf("db conns = %d, want 48", cfg.DBConns)
	}
}

func TestScale(t *testing.T) {
	cfg := PaperConfig().Scale(0.1, 0.5)
	if cfg.Clients != 7000 {
		t.Fatalf("Clients = %d", cfg.Clients)
	}
	if cfg.Duration != 90*time.Second {
		t.Fatalf("Duration = %v", cfg.Duration)
	}
	same := PaperConfig().Scale(0, 0)
	if same.Clients != 70000 || same.Duration != 180*time.Second {
		t.Fatalf("zero factors changed config: %d/%v", same.Clients, same.Duration)
	}
	tiny := PaperConfig().Scale(0.0000001, 1)
	if tiny.Clients != 1 {
		t.Fatalf("Clients floor = %d", tiny.Clients)
	}
}

func TestBaselineRunIsClean(t *testing.T) {
	res := Run(QuietMiniConfig())
	r := res.Responses
	if r.Total() < 5000 {
		t.Fatalf("only %d requests", r.Total())
	}
	if res.Drops != 0 || r.VLRTCount() != 0 || r.Failures() != 0 {
		t.Fatalf("baseline not clean: drops=%d vlrt=%d failures=%d", res.Drops, r.VLRTCount(), r.Failures())
	}
	if mean := r.Mean(); mean > 10*time.Millisecond {
		t.Fatalf("baseline mean RT %v", mean)
	}
	if pct := r.NormalPercent(); pct < 99 {
		t.Fatalf("baseline normal%% = %v", pct)
	}
	// Even distribution across app servers (paper Section II-B).
	a, b := res.Apps[0].Served, res.Apps[1].Served
	diff := float64(a) - float64(b)
	if diff < 0 {
		diff = -diff
	}
	if diff/float64(a+b) > 0.05 {
		t.Fatalf("uneven app distribution: %d vs %d", a, b)
	}
}

func TestMillibottlenecksCauseVLRTUnderOriginalPolicy(t *testing.T) {
	res := Run(MiniConfig())
	r := res.Responses
	if r.VLRTCount() == 0 {
		t.Fatal("no VLRT requests despite millibottlenecks")
	}
	if res.Drops == 0 {
		t.Fatal("no accept-queue drops despite millibottlenecks")
	}
	if r.VLRTPercent() < 1 {
		t.Fatalf("VLRT share %v%% too small to be the paper's phenomenon", r.VLRTPercent())
	}
	// The app tier must show flush activity.
	flushes := 0
	for _, st := range res.Apps {
		if _, peak := st.DirtyBytes.PeakWindow(); peak > 0 {
			flushes++
		}
	}
	if flushes == 0 {
		t.Fatal("no dirty-page activity recorded")
	}
}

func TestRemediesReduceVLRTAndMeanRT(t *testing.T) {
	original := Run(MiniConfig())

	modified := MiniConfig()
	modified.Mechanism = "modified_get_endpoint"
	modRes := Run(modified)

	current := MiniConfig()
	current.Policy = "current_load"
	curRes := Run(current)

	origMean := float64(original.Responses.Mean())
	for name, res := range map[string]*Results{"modified": modRes, "current_load": curRes} {
		if res.Responses.VLRTPercent() >= original.Responses.VLRTPercent()/2 {
			t.Fatalf("%s: VLRT %v%% not clearly below original %v%%",
				name, res.Responses.VLRTPercent(), original.Responses.VLRTPercent())
		}
		factor := origMean / float64(res.Responses.Mean())
		if factor < 3 {
			t.Fatalf("%s: mean RT improvement only %.1fx (%v -> %v)",
				name, factor, original.Responses.Mean(), res.Responses.Mean())
		}
	}
}

func TestCurrentLoadAvoidsStalledServer(t *testing.T) {
	cfg := QuietMiniConfig()
	cfg.Policy = "current_load"
	c := New(cfg)
	// Scripted millibottleneck: stall tomcat1 at t=3s for 300ms.
	mbneck.NewStalls(c.Eng, c.Apps[0].CPU(), mbneck.Schedule{
		Kind: mbneck.OneShot, Interval: 3 * time.Second, Duration: 300 * time.Millisecond,
	}).Start()
	res := c.Run()

	for i := range res.Dispatch {
		share := res.Dispatch[i].Share("tomcat1", 3*time.Second+50*time.Millisecond, 3*time.Second+300*time.Millisecond)
		if share > 0.05 {
			t.Fatalf("web %d sent %.0f%% of dispatches to the stalled server", i, share*100)
		}
	}
	if res.Responses.VLRTCount() != 0 {
		t.Fatalf("current_load produced %d VLRT requests from one 300ms stall", res.Responses.VLRTCount())
	}
}

func TestOriginalPolicyPilesOntoStalledServer(t *testing.T) {
	cfg := QuietMiniConfig() // no writeback noise; one scripted stall
	cfg.Policy = "total_request"
	cfg.Mechanism = "original_get_endpoint"
	c := New(cfg)
	mbneck.NewStalls(c.Eng, c.Apps[0].CPU(), mbneck.Schedule{
		Kind: mbneck.OneShot, Interval: 3 * time.Second, Duration: 300 * time.Millisecond,
	}).Start()
	res := c.Run()

	// Once tomcat1's endpoint pools exhaust, every new arrival chooses
	// it and gets stuck: during the later part of the stall the healthy
	// server receives (almost) nothing.
	window := 100 * time.Millisecond
	for i := range res.Dispatch {
		stalledShare := res.Dispatch[i].Share("tomcat1", 3*time.Second+150*time.Millisecond, 3*time.Second+150*time.Millisecond+window)
		healthyShare := res.Dispatch[i].Share("tomcat2", 3*time.Second+150*time.Millisecond, 3*time.Second+150*time.Millisecond+window)
		if healthyShare > 0.3 && stalledShare < 0.5 {
			t.Fatalf("web %d: no pile-up (stalled=%.2f healthy=%.2f)", i, stalledShare, healthyShare)
		}
	}
	// And after the stall the backlog drains into tomcat1 while the
	// other candidates compensate (recovery period exists): total
	// dispatches still roughly balance over the whole run.
	if res.Responses.Total() == 0 {
		t.Fatal("no responses")
	}
}

func TestDetectorAttributesVLRTToAppSaturations(t *testing.T) {
	res := Run(MiniConfig())
	if res.Responses.VLRTCount() == 0 {
		t.Skip("run produced no VLRT; nothing to attribute")
	}
	var spans []mbneck.Span
	for _, st := range res.Apps {
		s := mbneck.FilterMillibottlenecks(
			mbneck.DetectSaturations(st.CPU.Series(), 95),
			50*time.Millisecond, 2*time.Second)
		spans = append(spans, s...)
	}
	if len(spans) == 0 {
		t.Fatal("no millibottleneck saturations detected on the app tier")
	}
	// Allow the retransmission delay (1s schedule) plus wedge drain.
	attr := mbneck.AttributeEvents(res.Responses.VLRTWindows(), spans, 2500*time.Millisecond)
	if attr < 0.9 {
		t.Fatalf("only %.0f%% of VLRT windows attributed to millibottlenecks", attr*100)
	}
}

func TestRunConservation(t *testing.T) {
	res := Run(MiniConfig())
	completed := res.Responses.Total()
	if completed > res.Issued {
		t.Fatalf("completed %d > issued %d", completed, res.Issued)
	}
	inFlight := res.Issued - completed
	// In-flight at run end is bounded by the client population.
	if inFlight > uint64(res.Config.Clients) {
		t.Fatalf("in-flight %d exceeds client count", inFlight)
	}
	var webServed uint64
	for _, st := range res.Webs {
		webServed += st.Served
	}
	okResponses := completed - res.Responses.Failures()
	if webServed != okResponses {
		t.Fatalf("web served %d != ok responses %d", webServed, okResponses)
	}
}

func TestRunDeterminism(t *testing.T) {
	a := Run(MiniConfig())
	b := Run(MiniConfig())
	if a.Responses.Total() != b.Responses.Total() ||
		a.Responses.Mean() != b.Responses.Mean() ||
		a.Drops != b.Drops ||
		a.Responses.VLRTCount() != b.Responses.VLRTCount() {
		t.Fatalf("identical configs diverged: %v/%v vs %v/%v",
			a.Responses.Total(), a.Responses.Mean(), b.Responses.Total(), b.Responses.Mean())
	}
}

func TestSeedChangesRun(t *testing.T) {
	cfg := MiniConfig()
	cfg.Seed1 = 999
	a := Run(cfg)
	b := Run(MiniConfig())
	if a.Responses.Total() == b.Responses.Total() && a.Responses.Mean() == b.Responses.Mean() {
		t.Fatal("different seeds produced identical runs")
	}
}

func TestLBValueSeriesRecorded(t *testing.T) {
	res := Run(MiniConfig())
	if len(res.LBValues) != res.Config.NumWeb {
		t.Fatalf("LBValues for %d webs", len(res.LBValues))
	}
	for i, perApp := range res.LBValues {
		if len(perApp) != res.Config.NumApp {
			t.Fatalf("web %d has lb series for %d apps", i, len(perApp))
		}
		for name, series := range perApp {
			if series.Len() == 0 {
				t.Fatalf("web %d: empty lb_value series for %s", i, name)
			}
		}
	}
}

func TestTierQueueAggregation(t *testing.T) {
	res := Run(MiniConfig())
	if res.WebTierQueue.Len() == 0 || res.AppTierQueue.Len() == 0 || res.DBTierQueue.Len() == 0 {
		t.Fatal("tier queue series empty")
	}
	_, appPeak := res.AppTierQueue.PeakWindow()
	if appPeak == 0 {
		t.Fatal("app tier never queued despite millibottlenecks")
	}
}

func TestWebForMapping(t *testing.T) {
	cfg := QuietMiniConfig()
	cfg.Clients = 10
	cfg.Duration = time.Second
	c := New(cfg)
	if c.webFor(0) != c.Webs[0] || c.webFor(4) != c.Webs[0] {
		t.Fatal("first block not mapped to web 0")
	}
	if c.webFor(5) != c.Webs[1] || c.webFor(9) != c.Webs[1] {
		t.Fatal("second block not mapped to web 1")
	}
	if c.webFor(99) != c.Webs[1] {
		t.Fatal("out-of-range client not clamped to last web")
	}
}

func TestNewPanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted an invalid config")
		}
	}()
	cfg := MiniConfig()
	cfg.Policy = "bogus"
	New(cfg)
}

func TestIOWaitCorrelatesWithCPUSaturation(t *testing.T) {
	// Fig. 2d: iowait saturations coincide with transient CPU
	// saturations on the flushing server.
	res := Run(MiniConfig())
	for _, st := range res.Apps {
		iowaitSpans := mbneck.DetectSaturations(st.IOWait, 95)
		if len(iowaitSpans) == 0 {
			continue
		}
		cpuSpans := mbneck.DetectSaturations(st.CPU.Series(), 95)
		matched := 0
		for _, io := range iowaitSpans {
			for _, cpu := range cpuSpans {
				if cpu.Overlaps(io.Start, io.End, metrics.Window) {
					matched++
					break
				}
			}
		}
		if matched == 0 {
			t.Fatalf("%s: %d iowait spans, none matching a CPU saturation", st.Name, len(iowaitSpans))
		}
		return // one flushing server is enough
	}
	t.Fatal("no iowait activity on any app server")
}

func TestDirtyPageDropsCorrelateWithFlushes(t *testing.T) {
	res := Run(MiniConfig())
	st := res.Apps[0]
	// Dirty bytes must rise and abruptly drop (Fig. 2e): the series max
	// should greatly exceed its final value right after a flush.
	_, peak := st.DirtyBytes.PeakWindow()
	if peak <= 0 {
		t.Fatal("no dirty pages accumulated")
	}
	// Somewhere the series falls from above 60% of peak to below 25%
	// within a flush duration (≈400ms = 8 windows): the abrupt drop.
	dropped := false
	for i := 0; i < st.DirtyBytes.Len() && !dropped; i++ {
		if st.DirtyBytes.At(i).Max < 0.6*peak {
			continue
		}
		for j := i + 1; j <= i+8 && j < st.DirtyBytes.Len(); j++ {
			w := st.DirtyBytes.At(j)
			if w.Count > 0 && w.Min < 0.25*peak {
				dropped = true
				break
			}
		}
	}
	if !dropped {
		t.Fatal("no abrupt dirty-page drop observed")
	}
}
