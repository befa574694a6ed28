// Command figures regenerates the data behind each figure of the
// paper's evaluation section. Every figure prints a findings summary; -tsv
// additionally emits the raw windowed series as tab-separated values for
// plotting.
//
//	figures -fig 4                # findings for Figure 4
//	figures -fig 2 -tsv           # Figure 2 series as TSV
//	figures -all                  # findings for every figure
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"millibalance/internal/experiments"
)

// figure describes one reproducible figure.
type figure struct {
	id    int
	title string
	run   func(experiments.Options, io.Writer, bool)
}

func figureTable() []figure {
	return []figure{
		{1, "point-in-time RT without millibottlenecks", func(o experiments.Options, w io.Writer, tsv bool) {
			res := experiments.RunFigure1(o)
			fmt.Fprint(w, res.Render())
			if tsv {
				fmt.Fprint(w, experiments.RenderTSV(res.PointInTimeRT))
			}
		}},
		{2, "millibottleneck causal chain (1 web / 1 app / 1 db)", func(o experiments.Options, w io.Writer, tsv bool) {
			res := experiments.RunFigure2(o)
			fmt.Fprint(w, res.Render())
			if tsv {
				fmt.Fprint(w, experiments.RenderTSV(
					res.VLRTPerWindow, res.WebQueue, res.AppQueue, res.DBQueue,
					res.WebCPU, res.WebIOWait, res.WebDirty,
					res.AppCPU, res.AppIOWait, res.AppDirty))
			}
		}},
		{3, "point-in-time RT fluctuations, first 10 s", func(o experiments.Options, w io.Writer, tsv bool) {
			res := experiments.RunFigure3(o)
			fmt.Fprint(w, res.Render())
			if tsv {
				fmt.Fprint(w, experiments.RenderTSV(res.TotalRequestRT, res.TotalTrafficRT))
			}
		}},
		{4, "response-time distribution with 1/2/3 s clusters", func(o experiments.Options, w io.Writer, tsv bool) {
			res := experiments.RunFigure4(o)
			fmt.Fprint(w, res.Render())
			if tsv {
				fmt.Fprintln(w, "# total_request")
				fmt.Fprint(w, experiments.RenderHist(res.TotalRequestHist))
				fmt.Fprintln(w, "# total_traffic")
				fmt.Fprint(w, experiments.RenderHist(res.TotalTrafficHist))
			}
		}},
		{5, "average CPU per server", func(o experiments.Options, w io.Writer, _ bool) {
			fmt.Fprint(w, experiments.RunFigure5(o).Render())
		}},
		{6, "total_request instability close-up", runInstability(experiments.RunFigure6)},
		{7, "total_traffic instability close-up", runInstability(experiments.RunFigure7)},
		{8, "tier queues with modified get_endpoint", runQueues(experiments.RunFigure8)},
		{9, "modified get_endpoint close-up", runInstability(experiments.RunFigure9)},
		{10, "total_request lb_values close-up", runLBValues(experiments.RunFigure10)},
		{11, "total_traffic lb_values close-up", runLBValues(experiments.RunFigure11)},
		{12, "tier queues with current_load", runQueues(experiments.RunFigure12)},
		{13, "current_load close-up", runInstability(experiments.RunFigure13)},
		{14, "observability layer on the zoom scenario", func(o experiments.Options, w io.Writer, tsv bool) {
			res := experiments.RunObservability(o)
			fmt.Fprint(w, res.Render())
			if tsv {
				fmt.Fprint(w, experiments.RenderTSV(res.LBSeries...))
			}
		}},
		{15, "Table IV: adaptive control plane vs static anchors", func(o experiments.Options, w io.Writer, _ bool) {
			fmt.Fprint(w, experiments.RunTableIV(o).Render())
		}},
		{16, "telemetry causal chains under scripted freezes", func(o experiments.Options, w io.Writer, _ bool) {
			fmt.Fprint(w, experiments.RunFigure16(o).Render())
		}},
		{17, "prequal probing vs the paper's arms across fault shapes", func(o experiments.Options, w io.Writer, _ bool) {
			fmt.Fprint(w, experiments.RunFig17(o).Render())
		}},
		{18, "admission control (codel+gradient) vs the full remedy across fault shapes", func(o experiments.Options, w io.Writer, _ bool) {
			fmt.Fprint(w, experiments.RunFig18(o).Render())
		}},
	}
}

func runInstability(f func(experiments.Options) experiments.InstabilityResult) func(experiments.Options, io.Writer, bool) {
	return func(o experiments.Options, w io.Writer, tsv bool) {
		res := f(o)
		fmt.Fprint(w, res.Render())
		if tsv {
			series := append([]experiments.SeriesDump{res.VLRTPerWindow, res.StalledAppCPU}, res.Web1Assign...)
			fmt.Fprint(w, experiments.RenderTSV(series...))
		}
	}
}

func runLBValues(f func(experiments.Options) experiments.LBValueResult) func(experiments.Options, io.Writer, bool) {
	return func(o experiments.Options, w io.Writer, tsv bool) {
		res := f(o)
		fmt.Fprint(w, res.Render())
		if tsv {
			series := append(append([]experiments.SeriesDump{}, res.AppQueues...), res.LBSeries...)
			fmt.Fprint(w, experiments.RenderTSV(series...))
		}
	}
}

func runQueues(f func(experiments.Options) experiments.QueueComparisonResult) func(experiments.Options, io.Writer, bool) {
	return func(o experiments.Options, w io.Writer, tsv bool) {
		res := f(o)
		fmt.Fprint(w, res.Render())
		if tsv {
			fmt.Fprint(w, experiments.RenderTSV(res.WebTier, res.AppTier, res.DBTier))
		}
	}
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fig := fs.Int("fig", 0, "figure number to regenerate (see -list)")
	all := fs.Bool("all", false, "regenerate every figure")
	list := fs.Bool("list", false, "list figure ids with one-line descriptions")
	report := fs.Bool("report", false, "run the complete evaluation and emit a markdown report")
	tsv := fs.Bool("tsv", false, "emit raw windowed series as TSV")
	outDir := fs.String("out", "", "write each figure's output to <dir>/figNN.txt instead of stdout")
	scale := fs.Float64("scale", 1.0/6, "fraction of the paper's duration for full-run figures")
	seed := fs.Uint64("seed", 0, "override random seed")
	par := fs.Int("parallel", 0, "max concurrent simulation runs per figure (0 = GOMAXPROCS, 1 = sequential)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	opt := experiments.Options{DurationScale: *scale, Seed: *seed, Parallel: *par}
	if *report {
		fmt.Fprint(out, experiments.RunAll(opt).Markdown())
		return nil
	}
	figs := figureTable()
	sort.Slice(figs, func(i, j int) bool { return figs[i].id < figs[j].id })

	if *list {
		fmt.Fprint(out, renderFigureList(figs))
		return nil
	}

	emit := func(f figure) error {
		if *outDir == "" {
			f.run(opt, out, *tsv)
			return nil
		}
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(*outDir, fmt.Sprintf("fig%02d.txt", f.id))
		file, err := os.Create(path)
		if err != nil {
			return err
		}
		f.run(opt, file, *tsv)
		if err := file.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "figure %d -> %s\n", f.id, path)
		return nil
	}

	if *all {
		for _, f := range figs {
			fmt.Fprintf(out, "=== Figure %d: %s ===\n", f.id, f.title)
			if err := emit(f); err != nil {
				return err
			}
			fmt.Fprintln(out)
		}
		return nil
	}
	for _, f := range figs {
		if f.id == *fig {
			return emit(f)
		}
	}
	return fmt.Errorf("unknown figure %d; available figures:\n%s", *fig, renderFigureList(figs))
}

// renderFigureList prints each figure id with its one-line description —
// the -list output and the body of the unknown-figure error.
func renderFigureList(figs []figure) string {
	var b strings.Builder
	for _, f := range figs {
		fmt.Fprintf(&b, "  %2d  %s\n", f.id, f.title)
	}
	return b.String()
}
