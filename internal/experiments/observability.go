package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"millibalance/internal/cluster"
	"millibalance/internal/metrics"
	"millibalance/internal/obs"
	"millibalance/internal/trace"
)

// ObservabilityResult is the "Figure 14" companion experiment: the zoom
// scenario of Figs. 6/10 re-run with the observability layer enabled,
// demonstrating that the layer alone recovers the paper's three
// diagnostic findings — per-request VLRT decomposition (Section III),
// the lb_value signature (Figs. 10–11) rebuilt from the balancer
// decision log with no sampler involved, and online millibottleneck
// detection within one sampling interval of the stall.
type ObservabilityResult struct {
	Policy    string
	Mechanism string

	// --- span decomposition of VLRT requests ---
	VLRTCount int
	// Decomposition aggregates the VLRT entries' stage breakdowns.
	Decomposition trace.Decomposition
	// RetransmitDominantShare is the fraction of VLRT requests whose
	// largest timeline stage is the retransmit wait — the paper's
	// attribution of the long tail to dropped SYNs.
	RetransmitDominantShare float64

	// --- lb_value signature from decision events alone ---
	LBSeries []SeriesDump // per-candidate, rebuilt via obs.LBValueSeries
	// StalledIsMinDuringStall and StalledGrowsMostInRecovery are the
	// Figs. 10–11 findings recomputed purely from web 1's decision
	// events: the stalled candidate's lb_value frozen at the minimum
	// mid-stall, then growing fastest while the backlog drains.
	StalledIsMinDuringStall    bool
	StalledGrowsMostInRecovery bool
	DecisionCount              int
	StateTransitions           int

	// --- online detection ---
	// OnsetLatency is the delay from the scripted stall's start to the
	// online detector's mb_onset event for the stalled server (negative
	// when no onset was emitted).
	OnsetLatency time.Duration
	// DetectedStart/DetectedEnd bound the millibottleneck event
	// overlapping the stall (zero when none was emitted).
	DetectedStart, DetectedEnd time.Duration
	// QueuePeak is the correlated queue peak attached to the detection.
	QueuePeak float64
}

// RunObservability executes the zoom scenario (total_request +
// original_get_endpoint, one scripted 250 ms stall on tomcat1) with
// span tracing, the event log and the online detectors enabled.
func RunObservability(opt Options) ObservabilityResult {
	res := runStallZoom(opt, func(c *cluster.Config) {
		c.TraceCapacity, c.SpanCapacity, c.EventCapacity = 1<<20, 1<<20, 1<<20
	})
	out := ObservabilityResult{Policy: res.Config.Policy, Mechanism: res.Config.Mechanism}

	// Span decomposition of the VLRT population.
	var vlrt []trace.Entry
	for _, e := range res.Trace.Entries() {
		if e.ResponseTime >= metrics.VLRTThreshold {
			vlrt = append(vlrt, e)
		}
	}
	out.VLRTCount = len(vlrt)
	out.Decomposition = trace.Decompose(vlrt)
	out.RetransmitDominantShare = out.Decomposition.DominantShare(obs.StageRetransmitWait)

	// The Figs. 10–11 signature from web 1's decision log alone. During
	// phase 2 every web worker is stuck inside get_endpoint and decisions
	// cease, so the table is reconstructed as "last value seen at or
	// before t" — exactly the frozen lb_value the paper's red line shows.
	events := res.Events.Events()
	web1 := res.Webs[0].Name
	var decisions []obs.Event
	for _, ev := range events {
		switch ev.Kind {
		case obs.KindDecision:
			out.DecisionCount++
			if ev.Source == web1 {
				decisions = append(decisions, ev)
			}
		case obs.KindState:
			out.StateTransitions++
		}
	}
	lbSeries := obs.LBValueSeries(decisions, 50*time.Millisecond)
	lbNames := make([]string, 0, len(lbSeries))
	for name := range lbSeries {
		lbNames = append(lbNames, name)
	}
	sort.Strings(lbNames)
	for _, name := range lbNames {
		out.LBSeries = append(out.LBSeries, dumpMeans("lb_"+name, lbSeries[name]))
	}
	stalled := res.Apps[0].Name
	valueAt := func(name string, t time.Duration) float64 {
		last := 0.0
		for _, ev := range decisions {
			if ev.T > t {
				break
			}
			for _, cand := range ev.Candidates {
				if cand.Name == name {
					last = cand.LBValue
				}
			}
		}
		return last
	}
	names := make([]string, 0, len(res.Apps))
	for _, a := range res.Apps {
		names = append(names, a.Name)
	}
	midStall := zoomStallAt + 150*time.Millisecond
	out.StalledIsMinDuringStall = true
	for _, name := range names[1:] {
		if valueAt(stalled, midStall) > valueAt(name, midStall) {
			out.StalledIsMinDuringStall = false
		}
	}
	recoverFrom, recoverTo := zoomStallAt+zoomStallDur, zoomStallAt+zoomStallDur+time.Second
	growth := func(name string) float64 { return valueAt(name, recoverTo) - valueAt(name, recoverFrom) }
	out.StalledGrowsMostInRecovery = true
	for _, name := range names[1:] {
		if growth(stalled) <= growth(name) {
			out.StalledGrowsMostInRecovery = false
		}
	}

	// Online detection of the scripted stall.
	out.OnsetLatency = -1
	for _, ev := range events {
		if ev.Source != stalled {
			continue
		}
		switch ev.Kind {
		case obs.KindOnset:
			if out.OnsetLatency < 0 && ev.T >= zoomStallAt {
				out.OnsetLatency = ev.T - zoomStallAt
			}
		case obs.KindMillibottleneck:
			if ev.SpanStart < zoomStallAt+zoomStallDur && ev.SpanEnd > zoomStallAt {
				out.DetectedStart, out.DetectedEnd = ev.SpanStart, ev.SpanEnd
				out.QueuePeak = ev.QueuePeak
			}
		}
	}
	return out
}

// Render summarizes the observability findings.
func (r ObservabilityResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Observability close-up — policy=%s mechanism=%s (stall on tomcat1 at %.2fs for %v)\n",
		r.Policy, r.Mechanism, zoomStallAt.Seconds(), zoomStallDur)
	fmt.Fprintf(&b, "VLRT requests: %d; decomposition coverage mean=%.3f min=%.3f; retransmit-dominant share=%.0f%%\n",
		r.VLRTCount, r.Decomposition.MeanCoverage, r.Decomposition.MinCoverage, r.RetransmitDominantShare*100)
	fmt.Fprintf(&b, "decision events: %d (web1 lb_value table per dispatch); state transitions: %d\n",
		r.DecisionCount, r.StateTransitions)
	fmt.Fprintf(&b, "from decision log alone: stalled lowest during stall: %v; stalled grows most during recovery: %v\n",
		r.StalledIsMinDuringStall, r.StalledGrowsMostInRecovery)
	fmt.Fprintf(&b, "online detection: onset latency=%v; span=[%.3fs–%.3fs]; queue peak=%.0f\n",
		r.OnsetLatency, r.DetectedStart.Seconds(), r.DetectedEnd.Seconds(), r.QueuePeak)
	return b.String()
}
