package experiments

import (
	"fmt"
	"strings"
)

// The grid's tables. Each is a list of cells, the type that renders its
// rows in the layout the tables have always printed, and the predicates
// its acceptance test and its Render state.

// TableIResult reproduces Table I: the six policy/mechanism combinations
// compared on total requests, average response time, %VLRT and %normal
// under the paper's dirty-page flushes.
type TableIResult struct{ Grid }

// tableIArms lists the paper's six rows in order.
var tableIArms = labels{
	{"total_request", "Original total_request"},
	{"total_traffic", "Original total_traffic"},
	{"current_load", "Current_load"},
	{"total_request+modified", "Total_request with modified get_endpoint"},
	{"total_traffic+modified", "Total_traffic with modified get_endpoint"},
	{"current_load+modified", "Current_load with modified get_endpoint"},
}

var tableICells = cross([]string{"dirty_page_flush"}, tableIArms.keys())

// RunTableI executes all six Table I configurations.
func RunTableI(opt Options) TableIResult {
	return TableIResult{runGrids(opt, tableICells)[0]}
}

// Arm returns the row of a Table I arm, or nil.
func (t TableIResult) Arm(arm string) *Row { return t.Row("dirty_page_flush", arm) }

// ImprovementFactor returns the mean-response-time ratio of the original
// total_request policy over the current_load remedy — the paper's
// headline "factor of 12".
func (t TableIResult) ImprovementFactor() float64 {
	orig, cur := t.Arm("total_request"), t.Arm("current_load")
	if orig == nil || cur == nil || cur.AvgRTMillis == 0 {
		return 0
	}
	return orig.AvgRTMillis / cur.AvgRTMillis
}

// Render prints the table in the paper's layout.
func (t TableIResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-44s %14s %12s %10s %10s\n",
		"Policy", "#Total Req", "Avg RT (ms)", "%VLRT", "%<10ms")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-44s %14d %12.2f %9.2f%% %9.2f%%\n",
			tableIArms.of(r.Arm), r.TotalRequests, r.AvgRTMillis, r.VLRTPct, r.NormalPct)
	}
	fmt.Fprintf(&b, "\nimprovement factor (original total_request / current_load): %.1fx\n",
		t.ImprovementFactor())
	return b.String()
}

// GeneralizationResult backs the paper's concluding claim that other
// balancers can take advantage of its remedies "when facing
// millibottlenecks caused by other resource shortage": every cause the
// paper catalogs under the stock balancer (total_request + original
// get_endpoint) and under the full remedy (current_load + modified
// get_endpoint).
type GeneralizationResult struct{ Grid }

// generalizationCauses lists the exercised causes.
var generalizationCauses = []string{"dirty_page_flush", "gc_pause", "vm_colocation", "bursty_workload"}

var generalizationCells = cross(generalizationCauses, []string{"total_request", "current_load+modified"})

// RunGeneralization runs every cause under the stock configuration and
// the full remedy.
func RunGeneralization(opt Options) GeneralizationResult {
	return GeneralizationResult{runGrids(opt, generalizationCells)[0]}
}

// Cause returns a cause's stock and remedy rows, or nils.
func (g GeneralizationResult) Cause(name string) (orig, remedy *Row) {
	return g.Row(name, "total_request"), g.Row(name, "current_load+modified")
}

// Render prints the comparison table.
func (g GeneralizationResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Generalization — remedies vs. millibottleneck causes\n")
	fmt.Fprintf(&b, "%-18s %12s %12s %10s %10s %8s\n",
		"cause", "orig mean", "remedy mean", "orig VLRT", "rem VLRT", "improve")
	for _, cause := range generalizationCauses {
		orig, remedy := g.Cause(cause)
		if orig == nil || remedy == nil {
			continue
		}
		improve := 0.0
		if remedy.AvgRTMillis > 0 {
			improve = orig.AvgRTMillis / remedy.AvgRTMillis
		}
		fmt.Fprintf(&b, "%-18s %10.2fms %10.2fms %9.2f%% %9.2f%% %7.1fx\n",
			cause, orig.AvgRTMillis, remedy.AvgRTMillis, orig.VLRTPct, remedy.VLRTPct, improve)
	}
	return b.String()
}

// TableIVResult is the adaptive control plane's report card: can a
// system that STARTS in the worst static configuration (total_request +
// original get_endpoint) and adapts online approach the best static one
// (current_load)? Each injector runs three ways: the two static anchors
// and adaptive-from-worst.
type TableIVResult struct{ Grid }

// tableIVInjectors lists the exercised millibottleneck causes: the
// paper's dirty-page flushes plus the two injected causes the adaptive
// controller has no special knowledge of.
var tableIVInjectors = []string{"dirty_page_flush", "gc_pause", "bursty_workload"}

// tableIVModes are the column groups: the worst static anchor, the best
// static anchor, and the worst one with the adaptive controller armed.
var tableIVModes = labels{
	{"total_request", "static_total_request"},
	{"current_load", "static_current_load"},
	{"adaptive", "adaptive"},
}

var tableIVCells = cross(tableIVInjectors, tableIVModes.keys())

// RunTableIV executes the grid.
func RunTableIV(opt Options) TableIVResult {
	return TableIVResult{runGrids(opt, tableIVCells)[0]}
}

// AdaptiveWithinFactor reports whether the adaptive run's average RT
// and %VLRT both land within the given factor of the static
// current_load anchor for the injector — the Table IV acceptance
// criterion (factor 2 under dirty_page_flush).
func (t TableIVResult) AdaptiveWithinFactor(injector string, factor float64) bool {
	ad, cl := t.Row(injector, "adaptive"), t.Row(injector, "current_load")
	if ad == nil || cl == nil {
		return false
	}
	return ad.AvgRTMillis <= cl.AvgRTMillis*factor &&
		withinFactor(ad.VLRTPct, cl.VLRTPct, factor, ad.VLRTPct)
}

// AdaptiveImproves reports whether adaptation beat the static
// total_request configuration it started from, on both average RT and
// %VLRT, for the injector.
func (t TableIVResult) AdaptiveImproves(injector string) bool {
	ad, tr := t.Row(injector, "adaptive"), t.Row(injector, "total_request")
	if ad == nil || tr == nil {
		return false
	}
	return ad.AvgRTMillis < tr.AvgRTMillis && ad.VLRTPct <= tr.VLRTPct
}

// Render prints the grid.
func (t TableIVResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table IV — static anchors vs adaptive-from-worst, per millibottleneck cause\n")
	fmt.Fprintf(&b, "%-18s %-22s %10s %12s %9s %8s %22s\n",
		"injector", "mode", "#req", "avg RT (ms)", "%VLRT", "rejects", "controller activity")
	for _, r := range t.Rows {
		activity := "-"
		if r.Arm == "adaptive" {
			activity = fmt.Sprintf("q=%d r=%d s=%d f=%d",
				r.Quarantines, r.Readmits, r.Swaps, r.Fallbacks)
		}
		fmt.Fprintf(&b, "%-18s %-22s %10d %12.2f %8.2f%% %8d %22s\n",
			r.Shape, tableIVModes.of(r.Arm), r.TotalRequests, r.AvgRTMillis,
			r.VLRTPct, r.Rejects, activity)
	}
	for _, injector := range tableIVInjectors {
		fmt.Fprintf(&b, "\n%s: adaptive within 2x of current_load: %v; improves on total_request: %v",
			injector, t.AdaptiveWithinFactor(injector, 2), t.AdaptiveImproves(injector))
	}
	b.WriteString("\n")
	return b.String()
}

// Fig17Result is the probing subsystem's report card. The counter
// policies fail because a stalled backend stops generating the events
// they count; prequal's asynchronous probes decouple evidence from
// dispatch, so a stalled backend ages out of the probe pools instead.
// Can that signal-side fix alone, still on the ORIGINAL blocking
// get_endpoint, match the full remedy? Each fault shape runs the worst
// static arm, the full remedy, and prequal on the original mechanism.
type Fig17Result struct{ Grid }

// faultShapes are the sim analogues of the wall-clock chaos suite's five
// shapes: the native dirty-page freeze, clocked GC pauses, sustained slow
// response, crash-length outages and lossy-network retransmission storms
// (modelled as frequent brief stalls, the queue signature loss produces
// upstream). Figures 17 and 18 print the paper's cause as "freeze".
var faultShapes = labels{
	{"dirty_page_flush", "freeze"},
	{"gc_pause", "gc_pause"},
	{"slow", "slow"},
	{"crash", "crash"},
	{"netloss", "netloss"},
}

var fig17Arms = labels{
	{"total_request", "original_total_request"},
	{"current_load+modified", "remedy_current_load"},
	{"prequal", "prequal_original_mech"},
}

var fig17Cells = cross(faultShapes.keys(), fig17Arms.keys())

// RunFig17 executes the grid.
func RunFig17(opt Options) Fig17Result {
	return Fig17Result{runGrids(opt, fig17Cells)[0]}
}

// PrequalWithinFactor reports whether the prequal arm's %VLRT lands
// within the given factor of the full remedy's for the shape — the
// Figure 17 acceptance criterion (factor 2).
func (f Fig17Result) PrequalWithinFactor(shape string, factor float64) bool {
	pq, rm := f.Row(shape, "prequal"), f.Row(shape, "current_load+modified")
	if pq == nil || rm == nil {
		return false
	}
	return withinFactor(pq.VLRTPct, rm.VLRTPct, factor, pq.VLRTPct)
}

// PrequalImproves reports whether prequal beat the original arm it
// shares a mechanism with, on both average RT and %VLRT.
func (f Fig17Result) PrequalImproves(shape string) bool {
	pq, or := f.Row(shape, "prequal"), f.Row(shape, "total_request")
	if pq == nil || or == nil {
		return false
	}
	return pq.AvgRTMillis <= or.AvgRTMillis && pq.VLRTPct <= or.VLRTPct
}

// Render prints the grid.
func (f Fig17Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 17 — prequal (probing, original mechanism) vs the paper's arms, per fault shape\n")
	fmt.Fprintf(&b, "%-10s %-24s %-14s %-22s %10s %12s %9s %8s %7s\n",
		"shape", "arm", "policy", "mechanism", "#req", "avg RT (ms)", "%VLRT", "rejects", "stalls")
	for _, r := range f.Rows {
		fmt.Fprintf(&b, "%-10s %-24s %-14s %-22s %10d %12.2f %8.2f%% %8d %7d\n",
			faultShapes.of(r.Shape), fig17Arms.of(r.Arm), r.Policy, r.Mechanism,
			r.TotalRequests, r.AvgRTMillis, r.VLRTPct, r.Rejects, r.InjectedStalls)
	}
	for _, shape := range faultShapes {
		fmt.Fprintf(&b, "\n%s: prequal within 2x of remedy VLRT: %v; improves on original: %v",
			shape.label, f.PrequalWithinFactor(shape.key, 2), f.PrequalImproves(shape.key))
	}
	b.WriteString("\n")
	return b.String()
}

// Fig18Result is overload control as the complement of load balancing:
// the admission plane (internal/admission) attacks queue amplification
// itself. On the paper's WORST pair, how much of the full remedy's VLRT
// reduction does admission control alone recover, across Figure 17's
// fault shapes plus a fault-free one that prices the plane's goodput?
type Fig18Result struct{ Grid }

var fig18Shapes = append(labels{{"none", "none"}}, faultShapes...)

// fig18Arms are the unprotected worst arm, the fixed bounded-wait shed,
// the full admission plane, and the paper's full remedy with no
// admission control as the bar the codel arm is judged against.
var fig18Arms = labels{
	{"total_request", "no_admission"},
	{"fixed_shed", "fixed_shed"},
	{"codel_gradient", "codel_gradient"},
	{"current_load+modified", "remedy_reference"},
}

// fig18Admission is the admission column of each arm.
var fig18Admission = map[string]string{
	"total_request":         "off",
	"fixed_shed":            "static+maxwait",
	"codel_gradient":        "codel+gradient+lifo",
	"current_load+modified": "off",
}

var fig18Cells = cross(fig18Shapes.keys(), fig18Arms.keys())

// RunFig18 executes the grid.
func RunFig18(opt Options) Fig18Result {
	return Fig18Result{runGrids(opt, fig18Cells)[0]}
}

// CoDelWithinFactor reports whether the codel+gradient arm bounds its
// VLRT count within factor× the full remedy's for the shape — the
// Figure 18 acceptance criterion (factor 2).
func (f Fig18Result) CoDelWithinFactor(shape string, factor float64) bool {
	cd, rm := f.Row(shape, "codel_gradient"), f.Row(shape, "current_load+modified")
	if cd == nil || rm == nil {
		return false
	}
	return withinFactor(float64(cd.VLRTCount), float64(rm.VLRTCount), factor, cd.VLRTPct)
}

// CoDelImproves reports whether the codel arm beat the unprotected
// baseline it shares a policy and mechanism with, on %VLRT.
func (f Fig18Result) CoDelImproves(shape string) bool {
	cd, no := f.Row(shape, "codel_gradient"), f.Row(shape, "total_request")
	if cd == nil || no == nil {
		return false
	}
	return cd.VLRTPct <= no.VLRTPct
}

// GoodputWithin reports whether the codel arm's fault-free goodput
// stays within lossFrac of the no-admission baseline — the price of
// running the plane when nothing is wrong.
func (f Fig18Result) GoodputWithin(lossFrac float64) bool {
	cd, no := f.Row("none", "codel_gradient"), f.Row("none", "total_request")
	if cd == nil || no == nil || no.Goodput == 0 {
		return false
	}
	return float64(cd.Goodput) >= float64(no.Goodput)*(1-lossFrac)
}

// Render prints the grid.
func (f Fig18Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 18 — admission control on the paper's worst arm vs the full remedy, per fault shape\n")
	fmt.Fprintf(&b, "%-9s %-17s %-14s %-22s %-20s %9s %9s %12s %7s %9s %7s %7s\n",
		"shape", "arm", "policy", "mechanism", "admission",
		"#req", "goodput", "avg RT (ms)", "#VLRT", "%VLRT", "sheds", "stalls")
	for _, r := range f.Rows {
		fmt.Fprintf(&b, "%-9s %-17s %-14s %-22s %-20s %9d %9d %12.2f %7d %8.2f%% %7d %7d\n",
			fig18Shapes.of(r.Shape), fig18Arms.of(r.Arm), r.Policy, r.Mechanism, fig18Admission[r.Arm],
			r.TotalRequests, r.Goodput, r.AvgRTMillis, r.VLRTCount, r.VLRTPct,
			r.Sheds, r.InjectedStalls)
	}
	for _, shape := range faultShapes {
		fmt.Fprintf(&b, "\n%s: codel+gradient within 2x of remedy VLRT: %v; improves on no_admission: %v",
			shape.label, f.CoDelWithinFactor(shape.key, 2), f.CoDelImproves(shape.key))
	}
	fmt.Fprintf(&b, "\nfault-free goodput within 5%% of no_admission: %v\n", f.GoodputWithin(0.05))
	return b.String()
}

// AblationResult varies one design choice of the paper's worst pair at
// a time — the accept backlog, the sweep budget, the arrival model,
// session affinity — plus one scripted stall of two lengths on the quiet
// baseline. Each finding EXPERIMENTS.md states about them is a Claim.
type AblationResult struct{ Grid }

var ablationCells = []cell{
	{"dirty_page_flush", "total_request"}, // backlog 256, 3 sweeps, closed loop
	{"dirty_page_flush", "backlog_64"},
	{"dirty_page_flush", "backlog_512"},
	{"dirty_page_flush", "sweeps_1"},
	{"dirty_page_flush", "open_loop"},
	{"stall_50ms", "total_request"},
	{"stall_200ms", "total_request"},
	{"dirty_page_flush", "unpinned_total_request"},
	{"dirty_page_flush", "sticky_total_request"},
	{"dirty_page_flush", "unpinned_current_load"},
	{"dirty_page_flush", "sticky_current_load"},
}

// RunAblations executes the ablation cells.
func RunAblations(opt Options) AblationResult {
	return AblationResult{runGrids(opt, ablationCells)[0]}
}

// Claim is one ablation finding and whether the rows bear it out.
type Claim struct {
	Name  string
	Text  string
	Holds bool
}

// Claims evaluates every ablation finding.
func (a AblationResult) Claims() []Claim {
	flush := func(arm string) *Row { return a.Row("dirty_page_flush", arm) }
	closed, sweep1 := flush("total_request"), flush("sweeps_1")
	s50, s200 := a.Row("stall_50ms", "total_request"), a.Row("stall_200ms", "total_request")
	freeTR, freeCL := flush("unpinned_total_request"), flush("unpinned_current_load")
	stickTR, stickCL := flush("sticky_total_request"), flush("sticky_current_load")
	return []Claim{
		{"backlog", "a 64-connection accept backlog has a higher %VLRT than a 512 one",
			flush("backlog_64").VLRTPct > flush("backlog_512").VLRTPct},
		{"stall", "a 50 ms stall produces no VLRT, a 200 ms stall some",
			s50.VLRTCount == 0 && s200.VLRTCount > 0},
		{"sweeps", "the sweep budget never engages: one sweep and three give the same run, without error responses",
			sweep1.TotalRequests == closed.TotalRequests && sweep1.AvgRTMillis == closed.AvgRTMillis &&
				sweep1.VLRTCount == closed.VLRTCount && sweep1.Goodput == sweep1.TotalRequests},
		{"arrivals", "an open loop at the closed loop's rate is at least as bad on mean RT and %VLRT",
			flush("open_loop").AvgRTMillis >= closed.AvgRTMillis && flush("open_loop").VLRTPct >= closed.VLRTPct},
		{"sticky", "affinity cuts session moves and shrinks current_load's mean-RT advantage over total_request",
			stickTR.SessionMoves < freeTR.SessionMoves && stickCL.SessionMoves < freeCL.SessionMoves &&
				stickTR.AvgRTMillis-stickCL.AvgRTMillis < freeTR.AvgRTMillis-freeCL.AvgRTMillis},
	}
}

// Render prints every cell and the verdict on each claim.
func (a AblationResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablations — one design choice of the worst pair at a time\n")
	fmt.Fprintf(&b, "%-16s %-22s %9s %12s %7s %9s %7s %9s\n",
		"shape", "arm", "#req", "avg RT (ms)", "#VLRT", "%VLRT", "errors", "moves")
	for _, r := range a.Rows {
		fmt.Fprintf(&b, "%-16s %-22s %9d %12.2f %7d %8.2f%% %7d %9d\n",
			r.Shape, r.Arm, r.TotalRequests, r.AvgRTMillis, r.VLRTCount, r.VLRTPct,
			r.TotalRequests-r.Goodput, r.SessionMoves)
	}
	b.WriteString("\n")
	for _, c := range a.Claims() {
		fmt.Fprintf(&b, "%s: %s: %v\n", c.Name, c.Text, c.Holds)
	}
	return b.String()
}
