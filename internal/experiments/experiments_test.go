package experiments

import (
	"strings"
	"testing"
	"time"

	"millibalance/internal/metrics"
)

// testOpt keeps experiment tests fast: 15 s virtual runs still contain
// three flush cycles per application server.
var testOpt = Options{DurationScale: 1.0 / 12}

func TestRenderTSV(t *testing.T) {
	a := SeriesDump{Name: "a", Window: 50 * time.Millisecond, Values: []float64{1, 2}}
	b := SeriesDump{Name: "b", Window: 50 * time.Millisecond, Values: []float64{3}}
	got := RenderTSV(a, b)
	want := "t_sec\ta\tb\n0.000\t1.000\t3.000\n0.050\t2.000\t0.000\n"
	if got != want {
		t.Fatalf("RenderTSV:\n%q\nwant\n%q", got, want)
	}
	if RenderTSV() != "" {
		t.Fatal("empty RenderTSV not empty")
	}
}

func TestReportMarkdown(t *testing.T) {
	// Assemble a report from zero-valued results: Markdown must render
	// every section without running anything.
	var r Report
	md := r.Markdown()
	for _, want := range []string{
		"# Evaluation report", "## Table I", "## Figure 4", "## Figure 8",
		"## Figures 10/11", "## Generalization",
	} {
		if !strings.Contains(md, want) {
			t.Fatalf("markdown missing %q", want)
		}
	}
}

func TestFigure1Baseline(t *testing.T) {
	res := RunFigure1(testOpt)
	if res.VLRTCount > res.TotalRequests/100000+2 {
		t.Fatalf("baseline VLRT = %d of %d", res.VLRTCount, res.TotalRequests)
	}
	if res.AvgRTMillis > 10 {
		t.Fatalf("baseline avg RT %.2fms", res.AvgRTMillis)
	}
	if res.MaxWindowRTMillis > 50 {
		t.Fatalf("baseline worst window %.2fms — not the paper's flat line", res.MaxWindowRTMillis)
	}
	if res.AppShareSpread > 0.05 {
		t.Fatalf("app share spread %.1f%% — distribution not even", res.AppShareSpread*100)
	}
	if len(res.PointInTimeRT.Values) == 0 {
		t.Fatal("empty point-in-time series")
	}
}

func TestFigure2CausalChain(t *testing.T) {
	res := RunFigure2(testOpt)
	if res.VLRTTotal == 0 {
		t.Fatal("single-chain run produced no VLRT requests")
	}
	if len(res.Saturations) == 0 {
		t.Fatal("no millibottleneck saturations detected")
	}
	if res.Attribution < 0.9 {
		t.Fatalf("VLRT attribution %.0f%%", res.Attribution*100)
	}
	if !res.IODirtyDrops {
		t.Fatal("iowait spans without dirty-page drops")
	}
	if !res.PushBackObserved {
		t.Fatal("no push-back wave: app-tier queue peaks never coincide with web-tier peaks")
	}
	for _, d := range []SeriesDump{res.VLRTPerWindow, res.WebQueue, res.AppQueue, res.AppCPU, res.AppDirty} {
		if len(d.Values) == 0 {
			t.Fatalf("series %s empty", d.Name)
		}
	}
}

func TestFigure3Fluctuations(t *testing.T) {
	if testing.Short() {
		t.Skip("two paper-scale runs")
	}
	res := RunFigure3(testOpt)
	if res.PeakWindowRTMillis < 200 {
		t.Fatalf("peak windowed RT %.0fms — no fluctuations", res.PeakWindowRTMillis)
	}
	if res.FluctuationRatio < 20 {
		t.Fatalf("peak/median ratio %.0fx — fluctuations too mild", res.FluctuationRatio)
	}
	wantLen := int(10 * time.Second / (50 * time.Millisecond))
	if len(res.TotalRequestRT.Values) != wantLen {
		t.Fatalf("series not cut to 10s: %d windows", len(res.TotalRequestRT.Values))
	}
}

func TestFigure4Clusters(t *testing.T) {
	if testing.Short() {
		t.Skip("two paper-scale runs")
	}
	res := RunFigure4(testOpt)
	if res.ClusterCounts[0] == 0 {
		t.Fatal("no VLRT cluster at ~1s")
	}
	if res.ClusterCounts[2] > res.ClusterCounts[0] {
		t.Fatalf("3s cluster (%d) larger than 1s cluster (%d)", res.ClusterCounts[2], res.ClusterCounts[0])
	}
	if len(res.TotalRequestHist) == 0 || len(res.TotalTrafficHist) == 0 {
		t.Fatal("missing histograms")
	}
	if !strings.Contains(RenderHist(res.TotalRequestHist), "lower_ms") {
		t.Fatal("RenderHist missing header")
	}
}

func TestFigure5ModerateUtilization(t *testing.T) {
	if testing.Short() {
		t.Skip("two paper-scale runs")
	}
	res := RunFigure5(testOpt)
	if res.MaxAverage >= 60 {
		t.Fatalf("busiest server averages %.1f%% — paper's point is <50%%", res.MaxAverage)
	}
	if res.MaxAverage < 10 {
		t.Fatalf("busiest server averages %.1f%% — system nearly idle", res.MaxAverage)
	}
	if len(res.TotalRequest) != 9 { // 4 web + 4 app + 1 db
		t.Fatalf("per-server map has %d entries", len(res.TotalRequest))
	}
}

func TestFigure6TotalRequestInstability(t *testing.T) {
	res := RunFigure6(testOpt)
	assertPhases(t, res, true)
}

func TestFigure7TotalTrafficInstability(t *testing.T) {
	res := RunFigure7(testOpt)
	assertPhases(t, res, true)
}

// assertPhases checks the four-phase pattern; pileUp selects the
// original-behaviour expectations versus the remedy expectations.
func assertPhases(t *testing.T, res InstabilityResult, pileUp bool) {
	t.Helper()
	if res.StalledShare[0] < 0.15 || res.StalledShare[0] > 0.35 {
		t.Fatalf("phase 1 share %.2f, want ≈0.25 (even)", res.StalledShare[0])
	}
	if pileUp {
		if res.StalledShare[1] < 0.9 {
			t.Fatalf("phase 2 share %.2f — instability did not route everything to the stalled server", res.StalledShare[1])
		}
		if res.StalledQueuePeak < 2*res.HealthyQueuePeak {
			t.Fatalf("stalled queue peak %.0f not dominating healthy %.0f", res.StalledQueuePeak, res.HealthyQueuePeak)
		}
		// Phase 3: the funneling ends right after the stall — the share
		// to the recovered candidate drops from ~100% back toward (or
		// below) its fair share while the backlog drains.
		if res.StalledShare[2] > 0.6 {
			t.Fatalf("phase 3 (recovery) share %.2f — funneling did not end", res.StalledShare[2])
		}
	} else {
		if res.StalledShare[1] > 0.2 {
			t.Fatalf("phase 2 share %.2f — remedy still routed to the stalled server", res.StalledShare[1])
		}
		// Remedies legitimately catch up into the recovered candidate
		// in phase 3 (its cumulative lb_value lags), so no phase-3
		// bound applies.
	}
	if res.StalledShare[3] < 0.15 || res.StalledShare[3] > 0.35 {
		t.Fatalf("phase 4 share %.2f, want back to ≈0.25", res.StalledShare[3])
	}
	if res.Render() == "" {
		t.Fatal("empty Render")
	}
}

func TestFigure9ModifiedMechanismAvoidsStalled(t *testing.T) {
	res := RunFigure9(testOpt)
	assertPhases(t, res, false)
	if res.VLRTTotal > 50 {
		t.Fatalf("modified mechanism still produced %d VLRT requests", res.VLRTTotal)
	}
}

func TestFigure13CurrentLoadAvoidsStalled(t *testing.T) {
	res := RunFigure13(testOpt)
	assertPhases(t, res, false)
	// Fig. 13a: the stalled server's queue spike stays small (<40 in
	// the paper); ours is bounded by the in-flight at stall onset.
	if res.StalledQueuePeak > 60 {
		t.Fatalf("current_load stalled queue peak %.0f — should stay small", res.StalledQueuePeak)
	}
}

func TestFigure10TotalRequestLBValues(t *testing.T) {
	res := RunFigure10(testOpt)
	if !res.StalledIsMinDuringStall {
		t.Fatal("stalled candidate's lb_value not the minimum during the stall")
	}
	if !res.StalledIsMaxDuringRecovery {
		t.Fatal("stalled candidate's lb_value not growing fastest during recovery")
	}
	if len(res.LBSeries) != 4 || len(res.AppQueues) != 4 {
		t.Fatalf("series counts %d/%d", len(res.LBSeries), len(res.AppQueues))
	}
}

func TestFigure11TotalTrafficLBValues(t *testing.T) {
	res := RunFigure11(testOpt)
	if !res.StalledIsMinDuringStall {
		t.Fatal("stalled candidate's lb_value not the minimum during the stall")
	}
}

func TestFigure8QueueReduction(t *testing.T) {
	if testing.Short() {
		t.Skip("two paper-scale runs")
	}
	res := RunFigure8(testOpt)
	if res.QueueReductionPct() < 50 {
		t.Fatalf("modified get_endpoint reduced queues by only %.0f%% (paper: 75%%)", res.QueueReductionPct())
	}
}

func TestFigure12CurrentLoadQueues(t *testing.T) {
	if testing.Short() {
		t.Skip("two paper-scale runs")
	}
	res := RunFigure12(testOpt)
	if res.AppTierPeak > res.OriginalAppTierPeak/2 {
		t.Fatalf("current_load app-tier queue peak %.0f vs original %.0f — spikes should disappear",
			res.AppTierPeak, res.OriginalAppTierPeak)
	}
}

// TestObservabilityZoom checks the observability layer's acceptance
// criteria on the zoom scenario: the span decomposition accounts for
// (essentially all of) every VLRT request with the retransmit wait
// dominant, the Figs. 10–11 lb_value signature is recovered from the
// decision log alone, and the online detector flags the scripted 250 ms
// stall within one window plus one sampling interval.
func TestObservabilityZoom(t *testing.T) {
	res := RunObservability(testOpt)
	if res.VLRTCount == 0 {
		t.Fatal("zoom run produced no VLRT requests")
	}
	if res.Decomposition.Count != res.VLRTCount {
		t.Fatalf("only %d/%d VLRT entries carried a breakdown", res.Decomposition.Count, res.VLRTCount)
	}
	if res.Decomposition.MinCoverage < 0.9 {
		t.Fatalf("VLRT decomposition min coverage %.3f, want ≥0.9", res.Decomposition.MinCoverage)
	}
	if res.RetransmitDominantShare < 0.9 {
		t.Fatalf("retransmit wait dominates only %.0f%% of VLRT requests", res.RetransmitDominantShare*100)
	}
	if res.DecisionCount == 0 || len(res.LBSeries) != 4 {
		t.Fatalf("decision log incomplete: %d decisions, %d lb series", res.DecisionCount, len(res.LBSeries))
	}
	if !res.StalledIsMinDuringStall {
		t.Fatal("decision log: stalled candidate's lb_value not the minimum during the stall")
	}
	if !res.StalledGrowsMostInRecovery {
		t.Fatal("decision log: stalled candidate's lb_value not growing fastest during recovery")
	}
	maxLatency := metrics.Window + 10*time.Millisecond // one window + one sampling interval
	if res.OnsetLatency < 0 || res.OnsetLatency > maxLatency {
		t.Fatalf("online onset latency %v, want within (0, %v]", res.OnsetLatency, maxLatency)
	}
	if res.DetectedEnd <= res.DetectedStart {
		t.Fatalf("no millibottleneck event overlapping the stall (span [%v, %v])", res.DetectedStart, res.DetectedEnd)
	}
	if res.Render() == "" {
		t.Fatal("empty Render")
	}
}
