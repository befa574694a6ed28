package experiments

import (
	"fmt"
	"strings"
)

// Report bundles every experiment's result from one complete evaluation
// pass — the programmatic form of EXPERIMENTS.md.
type Report struct {
	Options Options

	TableI         TableIResult
	Fig1           Figure1Result
	Fig2           Figure2Result
	Fig3           Figure3Result
	Fig4           Figure4Result
	Fig5           Figure5Result
	Fig6           InstabilityResult
	Fig7           InstabilityResult
	Fig8           QueueComparisonResult
	Fig9           InstabilityResult
	Fig10          LBValueResult
	Fig11          LBValueResult
	Fig12          QueueComparisonResult
	Fig13          InstabilityResult
	Generalization GeneralizationResult
	TableIV        TableIVResult
}

// RunAll executes the complete evaluation. Table I, the generalization
// table and Table IV share one grid run, so each of their 17 distinct
// cells runs once; with the figures that is 35 runs (a few minutes of
// wall time at the default options).
func RunAll(opt Options) Report {
	g := runGrids(opt, tableICells, generalizationCells, tableIVCells)
	return Report{
		Options:        opt,
		TableI:         TableIResult{g[0]},
		Fig1:           RunFigure1(opt),
		Fig2:           RunFigure2(opt),
		Fig3:           RunFigure3(opt),
		Fig4:           RunFigure4(opt),
		Fig5:           RunFigure5(opt),
		Fig6:           RunFigure6(opt),
		Fig7:           RunFigure7(opt),
		Fig8:           RunFigure8(opt),
		Fig9:           RunFigure9(opt),
		Fig10:          RunFigure10(opt),
		Fig11:          RunFigure11(opt),
		Fig12:          RunFigure12(opt),
		Fig13:          RunFigure13(opt),
		Generalization: GeneralizationResult{g[1]},
		TableIV:        TableIVResult{g[2]},
	}
}

// Markdown renders the report for humans — the measured side of
// EXPERIMENTS.md, regenerated from scratch.
func (r Report) Markdown() string {
	var b strings.Builder
	scale := r.Options.DurationScale
	if scale <= 0 {
		scale = 1.0 / 6
	}
	fmt.Fprintf(&b, "# Evaluation report (duration scale %.3f of the paper's 180 s)\n\n", scale)

	fmt.Fprintf(&b, "## Table I\n\n```\n%s```\n\n", r.TableI.Render())

	fmt.Fprintf(&b, "## Figure 1 — baseline\n\n")
	fmt.Fprintf(&b, "- total requests: %d, mean RT %.2f ms, VLRT %d, worst window %.2f ms, app spread %.1f%%\n\n",
		r.Fig1.TotalRequests, r.Fig1.AvgRTMillis, r.Fig1.VLRTCount,
		r.Fig1.MaxWindowRTMillis, r.Fig1.AppShareSpread*100)

	fmt.Fprintf(&b, "## Figure 2 — causal chain\n\n")
	fmt.Fprintf(&b, "- VLRT %d; %d millibottlenecks detected; %.0f%% of VLRT windows attributed; queue↔CPU r=%.2f; dirty-page drops on every iowait span: %v\n\n",
		r.Fig2.VLRTTotal, len(r.Fig2.Saturations), r.Fig2.Attribution*100,
		r.Fig2.QueueCPUPearson, r.Fig2.IODirtyDrops)

	fmt.Fprintf(&b, "## Figure 3 — fluctuations\n\n")
	fmt.Fprintf(&b, "- peak windowed RT %.0f ms (%.0f× the median window)\n\n",
		r.Fig3.PeakWindowRTMillis, r.Fig3.FluctuationRatio)

	fmt.Fprintf(&b, "## Figure 4 — RT distribution\n\n")
	fmt.Fprintf(&b, "- VLRT clusters: ~1 s: %d, ~2 s: %d, ~3 s: %d\n\n",
		r.Fig4.ClusterCounts[0], r.Fig4.ClusterCounts[1], r.Fig4.ClusterCounts[2])

	fmt.Fprintf(&b, "## Figure 5 — average CPU\n\n")
	fmt.Fprintf(&b, "- busiest server averages %.1f%% (moderate utilization throughout)\n\n", r.Fig5.MaxAverage)

	writePhases := func(title string, res InstabilityResult) {
		fmt.Fprintf(&b, "## %s (%s + %s)\n\n", title, res.Policy, res.Mechanism)
		fmt.Fprintf(&b, "- share to the stalled server by phase: pre %.0f%%, stall %.0f%%, recovery %.0f%%, normal %.0f%%\n",
			res.StalledShare[0]*100, res.StalledShare[1]*100, res.StalledShare[2]*100, res.StalledShare[3]*100)
		fmt.Fprintf(&b, "- queue peaks during the stall: stalled %.0f vs healthy %.0f; VLRT %d\n\n",
			res.StalledQueuePeak, res.HealthyQueuePeak, res.VLRTTotal)
	}
	writePhases("Figure 6 — instability close-up", r.Fig6)
	writePhases("Figure 7 — instability close-up", r.Fig7)

	fmt.Fprintf(&b, "## Figure 8 — queue reduction (modified get_endpoint)\n\n")
	fmt.Fprintf(&b, "- web+app tier queue peaks: original %.0f/%.0f → remedy %.0f/%.0f (−%.0f%%)\n\n",
		r.Fig8.OriginalWebTierPeak, r.Fig8.OriginalAppTierPeak,
		r.Fig8.WebTierPeak, r.Fig8.AppTierPeak, r.Fig8.QueueReductionPct())

	writePhases("Figure 9 — remedy close-up", r.Fig9)

	fmt.Fprintf(&b, "## Figures 10/11 — lb_value signature\n\n")
	fmt.Fprintf(&b, "- total_request: stalled lowest during stall %v, recovery spike %v\n",
		r.Fig10.StalledIsMinDuringStall, r.Fig10.StalledIsMaxDuringRecovery)
	fmt.Fprintf(&b, "- total_traffic: stalled lowest during stall %v, recovery spike %v\n\n",
		r.Fig11.StalledIsMinDuringStall, r.Fig11.StalledIsMaxDuringRecovery)

	fmt.Fprintf(&b, "## Figure 12 — queue reduction (current_load)\n\n")
	fmt.Fprintf(&b, "- web+app tier queue peaks: original %.0f/%.0f → remedy %.0f/%.0f (−%.0f%%)\n\n",
		r.Fig12.OriginalWebTierPeak, r.Fig12.OriginalAppTierPeak,
		r.Fig12.WebTierPeak, r.Fig12.AppTierPeak, r.Fig12.QueueReductionPct())

	writePhases("Figure 13 — remedy close-up", r.Fig13)

	fmt.Fprintf(&b, "## Generalization across millibottleneck causes\n\n```\n%s```\n\n", r.Generalization.Render())

	fmt.Fprintf(&b, "## Table IV — adaptive control plane\n\n```\n%s```\n", r.TableIV.Render())
	return b.String()
}
