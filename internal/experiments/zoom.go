package experiments

import (
	"fmt"
	"strings"
	"time"

	"millibalance/internal/cluster"
	"millibalance/internal/stats"
)

// The zoom experiments reproduce the paper's controlled close-ups of one
// millibottleneck (Fig. 6, 7, 9, 10, 11, 13): the run disables the
// background writeback noise and injects a single scripted stall on
// tomcat1 at a known instant, so the four phases of the instability are
// exactly measurable.
const (
	zoomStallAt  = 5300 * time.Millisecond
	zoomStallDur = 250 * time.Millisecond
)

// zoomPhases are the analysis windows around the stall, mirroring the
// paper's phase decomposition of Fig. 6c:
//
//	phase 1 — before the millibottleneck (even distribution)
//	phase 2 — early in the stall, once the stalled candidate's frozen
//	          lb_value captures every routing decision (under the
//	          original policies all choices land on it; shortly after,
//	          every web worker is stuck inside get_endpoint and routing
//	          decisions cease entirely until the timeout)
//	phase 3 — the recovering period right after the stall (originals
//	          compensate away from the stalled candidate)
//	phase 4 — back to normal
func zoomPhases() [4]window {
	return [4]window{
		{from: zoomStallAt - 500*time.Millisecond, to: zoomStallAt},
		{from: zoomStallAt + 50*time.Millisecond, to: zoomStallAt + 100*time.Millisecond},
		{from: zoomStallAt + zoomStallDur + 50*time.Millisecond, to: zoomStallAt + zoomStallDur + 150*time.Millisecond},
		{from: zoomStallAt + 2*time.Second, to: zoomStallAt + 4*time.Second},
	}
}

// runStallZoom executes the controlled scenario under an arm's edit.
func runStallZoom(opt Options, edit func(*cluster.Config)) *cluster.Results {
	res, _ := scriptedStall(zoomStallAt, zoomStallDur).run(opt, edit)
	return res
}

// InstabilityResult is the Fig. 6/7 (and 9b/13b) close-up: VLRT windows,
// the stalled server's fine-grained CPU, and web server 1's
// routing-decision distribution with per-phase shares to the stalled
// candidate.
type InstabilityResult struct {
	Policy    string
	Mechanism string

	VLRTPerWindow SeriesDump   // (a)
	StalledAppCPU SeriesDump   // (b)
	Web1Assign    []SeriesDump // (c) per-candidate routing decisions

	Phases [4]window
	// StalledShare is web1's routing share to tomcat1 in each phase.
	StalledShare [4]float64
	// StalledQueuePeak and HealthyQueuePeak are the app-tier per-server
	// queue peaks during the stall window.
	StalledQueuePeak float64
	HealthyQueuePeak float64
	// VLRTTotal counts VLRT requests over the whole zoom run.
	VLRTTotal uint64
}

func runInstability(opt Options, policy, mechanism string) InstabilityResult {
	res := runStallZoom(opt, pair(policy, mechanism))
	phases := zoomPhases()

	// Phase 2 is adaptive: the last 50 ms window inside the stall that
	// still contains routing decisions. total_traffic freezes the
	// stalled candidate at the minimum instantly, total_request after
	// one spreading round; shortly after either, every worker is stuck
	// inside get_endpoint and decisions cease, so the last active
	// window is the converged regime the paper's phase 2 shows.
	width := 50 * time.Millisecond
	for from := zoomStallAt + zoomStallDur - width; from >= zoomStallAt; from -= width {
		total := 0.0
		for _, name := range res.Assign[0].Keys() {
			s := res.Assign[0].Series(name)
			total += float64(s.At(int(from / s.Width())).Count)
		}
		if total > 0 {
			phases[1] = window{from: from, to: from + width}
			break
		}
	}

	var shares [4]float64
	for i, ph := range phases {
		shares[i] = res.Assign[0].Share("tomcat1", ph.from, ph.to)
	}
	var assigns []SeriesDump
	for _, name := range res.Assign[0].Keys() {
		assigns = append(assigns, dumpCounts("assign_"+name, res.Assign[0].Series(name)))
	}
	stallWin := window{from: zoomStallAt, to: zoomStallAt + zoomStallDur}
	peakIn := func(s *stats.Series) float64 {
		peak := 0.0
		lo, hi := int(stallWin.from/s.Width()), int(stallWin.to/s.Width())
		for i := lo; i < hi; i++ {
			if v := s.At(i).Max; v > peak {
				peak = v
			}
		}
		return peak
	}
	healthyPeak := 0.0
	for _, st := range res.Apps[1:] {
		if p := peakIn(st.Queue); p > healthyPeak {
			healthyPeak = p
		}
	}
	return InstabilityResult{
		Policy:           policy,
		Mechanism:        mechanism,
		VLRTPerWindow:    dumpCounts("vlrt_per_50ms", res.Responses.VLRTWindows()),
		StalledAppCPU:    dumpMeans("tomcat1_cpu_pct", res.Apps[0].CPU.Series()),
		Web1Assign:       assigns,
		Phases:           phases,
		StalledShare:     shares,
		StalledQueuePeak: peakIn(res.Apps[0].Queue),
		HealthyQueuePeak: healthyPeak,
		VLRTTotal:        res.Responses.VLRTCount(),
	}
}

// RunFigure6 is the total_request instability close-up.
func RunFigure6(opt Options) InstabilityResult {
	return runInstability(opt, "total_request", "original_get_endpoint")
}

// RunFigure7 is the total_traffic instability close-up.
func RunFigure7(opt Options) InstabilityResult {
	return runInstability(opt, "total_traffic", "original_get_endpoint")
}

// RunFigure9 is the modified-get_endpoint close-up: the stalled
// candidate is skipped as soon as its pool exhausts.
func RunFigure9(opt Options) InstabilityResult {
	return runInstability(opt, "total_request", "modified_get_endpoint")
}

// RunFigure13 is the current_load close-up: the stalled candidate is
// avoided by rank alone.
func RunFigure13(opt Options) InstabilityResult {
	return runInstability(opt, "current_load", "original_get_endpoint")
}

// Render summarizes the phase shares.
func (r InstabilityResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Zoom close-up — policy=%s mechanism=%s (stall on tomcat1 at %.2fs for %v)\n",
		r.Policy, r.Mechanism, zoomStallAt.Seconds(), zoomStallDur)
	names := [4]string{"phase1 pre", "phase2 stall", "phase3 recovery", "phase4 normal"}
	for i := range r.Phases {
		fmt.Fprintf(&b, "%-16s %v share-to-stalled=%.0f%%\n", names[i], r.Phases[i], r.StalledShare[i]*100)
	}
	fmt.Fprintf(&b, "queue peaks during stall: stalled=%.0f healthy(max)=%.0f; VLRT total=%d\n",
		r.StalledQueuePeak, r.HealthyQueuePeak, r.VLRTTotal)
	return b.String()
}

// LBValueResult is the Fig. 10/11 close-up: the per-candidate lb_value
// series of web server 1 around the stall, showing the stalled
// candidate's value frozen at the minimum during the stall and spiking
// to the maximum during recovery (for cumulative policies).
type LBValueResult struct {
	Policy string

	AppQueues []SeriesDump // (a) per-app queue series
	LBSeries  []SeriesDump // (b) per-candidate lb_value (web 1)

	// StalledIsMinDuringStall reports whether tomcat1 held the minimum
	// lb_value among candidates mid-stall (ties count: under
	// total_request the frozen values sit within one lb_mult — the
	// paper's "one lower" red line).
	StalledIsMinDuringStall bool
	// StalledIsMaxDuringRecovery reports whether, in some window within
	// a second of the stall ending, tomcat1's lb_value grows faster
	// than every other candidate's — the backlog and catch-up
	// dispatches draining into it (the paper's red peak in phase 3).
	StalledIsMaxDuringRecovery bool
}

func runLBValues(opt Options, policy string) LBValueResult {
	res := runStallZoom(opt, pair(policy, "original_get_endpoint"))
	perApp := res.LBValues[0]

	var queues, lbs []SeriesDump
	for _, st := range res.Apps {
		queues = append(queues, dumpMaxes("queue_"+st.Name, st.Queue))
	}
	appNames := make([]string, 0, len(res.Apps))
	for _, st := range res.Apps {
		appNames = append(appNames, st.Name)
		lbs = append(lbs, dumpMeans("lb_"+st.Name, perApp[st.Name]))
	}

	// Mid-stall comparison: the stalled candidate's lb_value must be the
	// minimum (ties included — under total_request the values freeze
	// within one lb_mult of each other, the paper's "one lower" line).
	midStall := int((zoomStallAt + 150*time.Millisecond) / perApp["tomcat1"].Width())
	isMin := true
	for _, name := range appNames[1:] {
		if perApp["tomcat1"].At(midStall).Mean() > perApp[name].At(midStall).Mean() {
			isMin = false
		}
	}
	// Recovery spike: somewhere within a second of the stall ending,
	// the stalled candidate's per-window lb_value growth is the
	// largest — the backlog draining into it (the paper's red peak).
	isMax := false
	w := perApp["tomcat1"].Width()
	lo := int((zoomStallAt + zoomStallDur) / w)
	hi := int((zoomStallAt + zoomStallDur + time.Second) / w)
	growthAt := func(s *stats.Series, i int) float64 {
		return s.At(i).Max - s.At(i-1).Max
	}
	for i := lo + 1; i <= hi; i++ {
		best := true
		for _, name := range appNames[1:] {
			if growthAt(perApp["tomcat1"], i) <= growthAt(perApp[name], i) {
				best = false
				break
			}
		}
		if best {
			isMax = true
			break
		}
	}
	return LBValueResult{
		Policy:                     policy,
		AppQueues:                  queues,
		LBSeries:                   lbs,
		StalledIsMinDuringStall:    isMin,
		StalledIsMaxDuringRecovery: isMax,
	}
}

// RunFigure10 is the total_request lb_value close-up.
func RunFigure10(opt Options) LBValueResult { return runLBValues(opt, "total_request") }

// RunFigure11 is the total_traffic lb_value close-up.
func RunFigure11(opt Options) LBValueResult { return runLBValues(opt, "total_traffic") }

// Render summarizes the lb_value findings.
func (r LBValueResult) Render() string {
	return fmt.Sprintf("lb_value close-up — policy=%s\nstalled lowest during stall: %v; stalled grows most during recovery: %v\n",
		r.Policy, r.StalledIsMinDuringStall, r.StalledIsMaxDuringRecovery)
}
