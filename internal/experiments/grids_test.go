package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"millibalance/internal/adapt"
)

// The grid tables (Table I, the generalization table, Table IV, Figures
// 17/18 and the ablations) run once for the whole package: their union
// goes through one runCells call at testOpt on the parallel harness, and
// every acceptance test reads its rows from that run. The golden pins the
// five evaluation tables as the sequential harness printed them, so it
// guards both the grid runner and the parallel fan-out.

var updateGrids = flag.Bool("update-grids", false, "rewrite testdata/grids.golden from the shared grid run")

const gridsGolden = "testdata/grids.golden"

// evaluation is every grid table from the shared run.
type evaluation struct {
	tableI    TableIResult
	gen       GeneralizationResult
	tableIV   TableIVResult
	fig17     Fig17Result
	fig18     Fig18Result
	ablations AblationResult
}

var (
	sharedOnce sync.Once
	shared     evaluation
)

// grids returns the shared run, running it on first use.
func grids(t *testing.T) evaluation {
	t.Helper()
	if testing.Short() {
		t.Skip("the shared grid run is ~50 paper-scale runs")
	}
	sharedOnce.Do(func() {
		opt := testOpt
		opt.Parallel = 4
		g := runGrids(opt, tableICells, generalizationCells, tableIVCells, fig17Cells, fig18Cells, ablationCells)
		shared = evaluation{
			TableIResult{g[0]}, GeneralizationResult{g[1]}, TableIVResult{g[2]},
			Fig17Result{g[3]}, Fig18Result{g[4]}, AblationResult{g[5]},
		}
	})
	return shared
}

// goldenText renders the five evaluation tables in the golden's layout:
// one "=== name ===" section each, Table IV followed by its adaptive
// rows' decision logs.
func goldenText(t *testing.T, e evaluation) string {
	t.Helper()
	var iv strings.Builder
	iv.WriteString(e.tableIV.Render())
	for _, r := range e.tableIV.Rows {
		if r.Decisions != nil {
			fmt.Fprintf(&iv, "decisions %s:\n", r.Shape)
			if err := r.Decisions.WriteJSONL(&iv); err != nil {
				t.Fatal(err)
			}
		}
	}
	var b strings.Builder
	for _, s := range []struct{ name, text string }{
		{"TableI", e.tableI.Render()},
		{"Generalization", e.gen.Render()},
		{"TableIV", iv.String()},
		{"Fig17", e.fig17.Render()},
		{"Fig18", e.fig18.Render()},
	} {
		fmt.Fprintf(&b, "=== %s ===\n%s", s.name, s.text)
	}
	return b.String()
}

// sections splits a golden-layout text into its "=== name ===" sections.
func sections(text string) map[string]string {
	out := map[string]string{}
	for _, part := range strings.Split(text, "=== ")[1:] {
		name, body, _ := strings.Cut(part, " ===\n")
		out[name] = body
	}
	return out
}

// checkGolden compares one table of the shared parallel run against the
// sequential golden.
func checkGolden(t *testing.T, name string) {
	t.Helper()
	got := goldenText(t, grids(t))
	if *updateGrids {
		if err := os.WriteFile(gridsGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(gridsGolden)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := sections(got)[name], sections(string(want))[name]; g != w {
		t.Fatalf("%s moved from %s (rerun with -update-grids only for a change that means to move it):\ngot:\n%s\nwant:\n%s",
			name, gridsGolden, g, w)
	}
}

func TestTableIDeterministicUnderParallelism(t *testing.T) { checkGolden(t, "TableI") }

func TestGeneralizationDeterministicUnderParallelism(t *testing.T) {
	checkGolden(t, "Generalization")
}

func TestTableIVDeterministicUnderParallelism(t *testing.T) { checkGolden(t, "TableIV") }

func TestFig17DeterministicUnderParallelism(t *testing.T) { checkGolden(t, "Fig17") }

func TestFig18DeterministicUnderParallelism(t *testing.T) { checkGolden(t, "Fig18") }

// TestGridUnionSharesRuns pins the sharing: the five evaluation tables
// list 62 cells but only 42 distinct runs, and every cell of every table
// names a shape and an arm the grid knows.
func TestGridUnionSharesRuns(t *testing.T) {
	union := slices.Concat(tableICells, generalizationCells, tableIVCells, fig17Cells, fig18Cells)
	distinct := map[cell]bool{}
	for _, c := range union {
		distinct[c] = true
	}
	if len(union) != 62 || len(distinct) != 42 {
		t.Fatalf("union of the five tables: %d cells, %d distinct runs; want 62 and 42", len(union), len(distinct))
	}
	for _, c := range append(union, ablationCells...) {
		if _, ok := shapes[c.shape]; !ok {
			t.Errorf("cell %v: unknown shape", c)
		}
		if _, ok := arms[c.arm]; !ok {
			t.Errorf("cell %v: unknown arm", c)
		}
	}
}

// TestRunCellsDedupes checks that a repeated cell comes back as the row
// of its first occurrence, in input order.
func TestRunCellsDedupes(t *testing.T) {
	cells := []cell{{"none", "total_request"}, {"none", "current_load"}, {"none", "total_request"}}
	rows := runCells(Options{DurationScale: 1.0 / 600, Parallel: 2}, cells)
	if len(rows) != 3 || rows[0].Arm != "total_request" || rows[1].Arm != "current_load" {
		t.Fatalf("rows out of input order: %+v", rows)
	}
	if !reflect.DeepEqual(rows[0], rows[2]) || rows[0].TotalRequests == 0 {
		t.Fatalf("repeated cell differs or ran empty: %+v vs %+v", rows[0], rows[2])
	}
}

func TestTableIShape(t *testing.T) {
	res := grids(t).tableI
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	origTR, origTT, cur := res.Arm("total_request"), res.Arm("total_traffic"), res.Arm("current_load")
	modTR, modTT, curMod := res.Arm("total_request+modified"), res.Arm("total_traffic+modified"), res.Arm("current_load+modified")
	for _, row := range res.Rows {
		if row.TotalRequests < 100000 {
			t.Fatalf("%s: only %d requests", row.Arm, row.TotalRequests)
		}
	}

	// The paper's ordering: original policies suffer heavy VLRT shares
	// and inflated means; every remedy collapses both.
	for _, orig := range []*Row{origTR, origTT} {
		if orig.VLRTPct < 2 {
			t.Fatalf("original %s VLRT %.2f%% — instability did not reproduce", orig.Policy, orig.VLRTPct)
		}
		for _, remedy := range []*Row{cur, modTR, modTT, curMod} {
			if remedy.AvgRTMillis*3 > orig.AvgRTMillis || remedy.VLRTPct > orig.VLRTPct/4 {
				t.Fatalf("remedy %s %.2fms/%.2f%% not well below original %s %.2fms/%.2f%%",
					remedy.Arm, remedy.AvgRTMillis, remedy.VLRTPct, orig.Arm, orig.AvgRTMillis, orig.VLRTPct)
			}
		}
	}
	// Headline factor: paper reports 12x; require at least 5x and allow
	// the simulator to exceed it.
	if f := res.ImprovementFactor(); f < 5 {
		t.Fatalf("improvement factor %.1fx, want ≥5x", f)
	}
	// current_load with the modified mechanism gains nothing further
	// over plain current_load (both remedies achieve the same goal).
	if curMod.AvgRTMillis > 2*cur.AvgRTMillis {
		t.Fatalf("current_load+modified %.2fms much worse than current_load %.2fms",
			curMod.AvgRTMillis, cur.AvgRTMillis)
	}
	if !strings.Contains(res.Render(), "improvement factor") {
		t.Fatal("Render missing summary")
	}
}

func TestGeneralizationRemediesHelpEveryCause(t *testing.T) {
	res := grids(t).gen
	for _, cause := range generalizationCauses {
		orig, remedy := res.Cause(cause)
		if orig == nil || remedy == nil {
			t.Fatalf("%s: missing rows", cause)
		}
		if orig.VLRTPct == 0 && orig.Drops == 0 {
			t.Fatalf("%s: original run shows no disturbance at all", cause)
		}
		if remedy.AvgRTMillis >= orig.AvgRTMillis || remedy.VLRTPct > orig.VLRTPct {
			t.Fatalf("%s: remedy %.2fms/%.2f%% does not beat original %.2fms/%.2f%%",
				cause, remedy.AvgRTMillis, remedy.VLRTPct, orig.AvgRTMillis, orig.VLRTPct)
		}
	}
	// The injected causes actually injected something.
	for _, name := range []string{"gc_pause", "vm_colocation"} {
		if orig, _ := res.Cause(name); orig.InjectedStalls == 0 {
			t.Fatalf("%s: no stalls injected", name)
		}
	}
	if orig, _ := res.Cause("nonexistent"); orig != nil {
		t.Fatal("unknown cause resolved")
	}
}

func TestTableIVAdaptiveAcceptance(t *testing.T) {
	res := grids(t).tableIV
	if len(res.Rows) != 9 {
		t.Fatalf("rows = %d, want 3 injectors x 3 modes", len(res.Rows))
	}

	// The headline criterion: starting from the worst static
	// configuration, the controller recovers to within 2x of the best
	// static anchor under the paper's own millibottleneck cause.
	ad := res.Row("dirty_page_flush", "adaptive")
	if !res.AdaptiveWithinFactor("dirty_page_flush", 2) {
		cl := res.Row("dirty_page_flush", "current_load")
		t.Fatalf("adaptive %.2fms/%.2f%% not within 2x of current_load %.2fms/%.2f%%",
			ad.AvgRTMillis, ad.VLRTPct, cl.AvgRTMillis, cl.VLRTPct)
	}
	// And it must improve on the configuration it started from, for
	// every cause — including the two it has no special knowledge of.
	for _, injector := range tableIVInjectors {
		if !res.AdaptiveImproves(injector) {
			a, tr := res.Row(injector, "adaptive"), res.Row(injector, "total_request")
			t.Fatalf("%s: adaptive %.2fms/%.2f%% does not improve on total_request %.2fms/%.2f%%",
				injector, a.AvgRTMillis, a.VLRTPct, tr.AvgRTMillis, tr.VLRTPct)
		}
	}

	// The adaptive flush run must actually have adapted: quarantines
	// fired and the ladder reached the policy swap.
	if ad.Quarantines == 0 || ad.Swaps == 0 || ad.Policy != "current_load" {
		t.Fatalf("flush adaptation inactive: q=%d s=%d, ended on policy %q", ad.Quarantines, ad.Swaps, ad.Policy)
	}

	// Controller decisions round-trip through the JSONL export.
	if ad.Decisions == nil || ad.Decisions.Len() == 0 {
		t.Fatal("adaptive row carries no decision log")
	}
	var buf bytes.Buffer
	if err := ad.Decisions.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	out, err := adapt.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ad.Decisions.Decisions(), out) {
		t.Fatal("decision log JSONL round trip mismatch")
	}
}

// TestFig17PrequalMatchesRemedy is Figure 17's acceptance criterion:
// across all five fault shapes, the prequal arm — probing policy over
// the ORIGINAL blocking get_endpoint — must keep its %VLRT within 2x of
// the full remedy arm (current_load + modified get_endpoint). Probing
// alone closes most of the gap the mechanism remedy exists to close.
func TestFig17PrequalMatchesRemedy(t *testing.T) {
	res := grids(t).fig17
	if len(res.Rows) != 15 {
		t.Fatalf("got %d rows, want 15", len(res.Rows))
	}
	for _, shape := range faultShapes.keys() {
		pq, rm := res.Row(shape, "prequal"), res.Row(shape, "current_load+modified")
		if pq.TotalRequests == 0 {
			t.Fatalf("%s: prequal arm completed no requests", shape)
		}
		if !res.PrequalWithinFactor(shape, 2) {
			t.Errorf("%s: prequal VLRT %.2f%% not within 2x of remedy %.2f%%\n%s",
				shape, pq.VLRTPct, rm.VLRTPct, res.Render())
		}
	}
	// The injected shapes must actually fire (the paper's freeze relies
	// on the native writeback daemons instead of an injector).
	for _, shape := range []string{"gc_pause", "slow", "crash", "netloss"} {
		if row := res.Row(shape, "prequal"); row.InjectedStalls == 0 {
			t.Errorf("%s: injector never fired", shape)
		}
	}
}

// TestFig18AdmissionBoundsVLRT is Figure 18's acceptance criterion:
// across all five fault shapes, the codel+gradient arm — admission
// control on the paper's WORST policy/mechanism pair — must bound its
// VLRT count within 2x of the full remedy arm, and must not cost more
// than 5% of goodput on the fault-free shape.
func TestFig18AdmissionBoundsVLRT(t *testing.T) {
	res := grids(t).fig18
	if len(res.Rows) != 24 {
		t.Fatalf("got %d rows, want 24", len(res.Rows))
	}
	engaged := false
	for _, shape := range faultShapes.keys() {
		cd, rm := res.Row(shape, "codel_gradient"), res.Row(shape, "current_load+modified")
		if cd.TotalRequests == 0 {
			t.Fatalf("%s: codel arm completed no requests", shape)
		}
		if !res.CoDelWithinFactor(shape, 2) {
			t.Errorf("%s: codel VLRT count %d (%.2f%%) not within 2x of remedy %d\n%s",
				shape, cd.VLRTCount, cd.VLRTPct, rm.VLRTCount, res.Render())
		}
		if !res.CoDelImproves(shape) {
			t.Errorf("%s: codel arm did not improve on the unprotected baseline\n%s",
				shape, res.Render())
		}
		// The plane must actually have worked for a living on the stall
		// shapes — zero sheds would mean the arm never engaged.
		engaged = engaged || cd.Sheds > 0
	}
	if !res.GoodputWithin(0.05) {
		t.Errorf("fault-free goodput fell more than 5%% under admission\n%s", res.Render())
	}
	if !engaged {
		t.Error("codel arm recorded no sheds on any fault shape")
	}
}

// TestAblationFindings asserts each of EXPERIMENTS.md's ablation
// findings, one subtest per claim.
func TestAblationFindings(t *testing.T) {
	res := grids(t).ablations
	for _, c := range res.Claims() {
		t.Run(c.Name, func(t *testing.T) {
			if !c.Holds {
				t.Fatalf("%s does not hold:\n%s", c.Text, res.Render())
			}
		})
	}
}
