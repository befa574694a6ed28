package experiments

import (
	"crypto/sha256"
	"strings"
	"testing"

	"millibalance/internal/cluster"
	"millibalance/internal/parallel"
)

// The parallel harness must be invisible in the results: every multi-run
// experiment fans independent engines out across goroutines and collects
// rows by configuration index, so the rendered output — response-time
// series, drop counts, controller activity, all of it — has to be
// byte-identical between Parallel=1 (the sequential path) and any
// worker count. These tests digest both renderings of the multi-run
// figures and compare hashes; the grid tables are pinned against
// testdata/grids.golden instead (grids_test.go).

// detOpt trades phenomenon fidelity for speed: determinism does not
// care whether a flush cycle completes, only that the event order
// replays exactly, so these runs are much shorter than testOpt.
var detOpt = Options{DurationScale: 1.0 / 60}

func seqAndPar(t *testing.T, name string, run func(Options) []string) {
	t.Helper()
	seq := detOpt
	seq.Parallel = 1
	par := detOpt
	par.Parallel = 4
	// Digest the full rendered output, including the raw windowed series
	// where the result type exposes them.
	a := sha256.Sum256([]byte(strings.Join(run(seq), "")))
	b := sha256.Sum256([]byte(strings.Join(run(par), "")))
	if a != b {
		t.Fatalf("%s: parallel harness changed the results: sequential digest %x, parallel digest %x", name, a, b)
	}
}

func TestFiguresDeterministicUnderParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run determinism digests are slow")
	}
	seqAndPar(t, "Figure3", func(o Options) []string {
		res := RunFigure3(o)
		return []string{res.Render(), RenderTSV(res.TotalRequestRT, res.TotalTrafficRT)}
	})
	seqAndPar(t, "Figure4", func(o Options) []string {
		res := RunFigure4(o)
		return []string{res.Render(), RenderHist(res.TotalRequestHist), RenderHist(res.TotalTrafficHist)}
	})
	seqAndPar(t, "Figure5", func(o Options) []string {
		return []string{RunFigure5(o).Render()}
	})
	seqAndPar(t, "Figure8", func(o Options) []string {
		res := RunFigure8(o)
		return []string{res.Render(), RenderTSV(res.WebTier, res.AppTier, res.DBTier)}
	})
	seqAndPar(t, "Figure12", func(o Options) []string {
		res := RunFigure12(o)
		return []string{res.Render(), RenderTSV(res.WebTier, res.AppTier, res.DBTier)}
	})
}

// TestParallelHarnessRaceSmoke runs concurrent mini-cluster simulations
// through the harness. It stays enabled under -short so the CI race
// step always exercises cross-goroutine engine execution.
func TestParallelHarnessRaceSmoke(t *testing.T) {
	totals := parallel.Map(4, 4, func(i int) uint64 {
		cfg := cluster.MiniConfig()
		cfg.Duration = 2 * cfg.SampleInterval * 100
		cfg.Seed1 = uint64(i + 1)
		return cluster.Run(cfg).Responses.Total()
	})
	for i, n := range totals {
		if n == 0 {
			t.Fatalf("mini run %d completed no requests", i)
		}
	}
}
