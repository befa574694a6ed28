// Command figures regenerates the data behind each table and figure of
// the paper's evaluation. Every entry prints a findings summary; -tsv
// additionally emits the raw windowed series as tab-separated values for
// plotting.
//
//	figures -fig 4                # findings for Figure 4
//	figures -fig 2 -tsv           # Figure 2 series as TSV
//	figures -fig table1           # the paper's Table I
//	figures -fig ablations        # the design-choice ablations and their claims
//	figures -all                  # every entry
//	figures -config               # the testbed configuration (Tables II/III)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"millibalance/internal/cluster"
	"millibalance/internal/experiments"
)

// figure describes one reproducible entry: a paper figure by number,
// or a table by name.
type figure struct {
	id    string
	title string
	run   func(experiments.Options, io.Writer, bool)
}

// names returns the entry's -all section heading and its -out file name
// (figNN.txt for a figure).
func (f figure) names() (heading, file string) {
	if n, err := strconv.Atoi(f.id); err == nil {
		return fmt.Sprintf("Figure %d", n), fmt.Sprintf("fig%02d.txt", n)
	}
	return f.id, f.id + ".txt"
}

func figureTable() []figure {
	return []figure{
		{"1", "point-in-time RT without millibottlenecks", withTSV(experiments.RunFigure1,
			func(r experiments.Figure1Result) []experiments.SeriesDump {
				return []experiments.SeriesDump{r.PointInTimeRT}
			})},
		{"2", "millibottleneck causal chain (1 web / 1 app / 1 db)", withTSV(experiments.RunFigure2,
			func(r experiments.Figure2Result) []experiments.SeriesDump {
				return []experiments.SeriesDump{r.VLRTPerWindow, r.WebQueue, r.AppQueue, r.DBQueue,
					r.WebCPU, r.WebIOWait, r.WebDirty, r.AppCPU, r.AppIOWait, r.AppDirty}
			})},
		{"3", "point-in-time RT fluctuations, first 10 s", withTSV(experiments.RunFigure3,
			func(r experiments.Figure3Result) []experiments.SeriesDump {
				return []experiments.SeriesDump{r.TotalRequestRT, r.TotalTrafficRT}
			})},
		{"4", "response-time distribution with 1/2/3 s clusters", func(o experiments.Options, w io.Writer, tsv bool) {
			res := experiments.RunFigure4(o)
			fmt.Fprint(w, res.Render())
			if tsv {
				fmt.Fprintln(w, "# total_request")
				fmt.Fprint(w, experiments.RenderHist(res.TotalRequestHist))
				fmt.Fprintln(w, "# total_traffic")
				fmt.Fprint(w, experiments.RenderHist(res.TotalTrafficHist))
			}
		}},
		{"5", "average CPU per server", renders(experiments.RunFigure5)},
		{"6", "total_request instability close-up", withTSV(experiments.RunFigure6, instabilitySeries)},
		{"7", "total_traffic instability close-up", withTSV(experiments.RunFigure7, instabilitySeries)},
		{"8", "tier queues with modified get_endpoint", withTSV(experiments.RunFigure8, queueSeries)},
		{"9", "modified get_endpoint close-up", withTSV(experiments.RunFigure9, instabilitySeries)},
		{"10", "total_request lb_values close-up", withTSV(experiments.RunFigure10, lbValueSeries)},
		{"11", "total_traffic lb_values close-up", withTSV(experiments.RunFigure11, lbValueSeries)},
		{"12", "tier queues with current_load", withTSV(experiments.RunFigure12, queueSeries)},
		{"13", "current_load close-up", withTSV(experiments.RunFigure13, instabilitySeries)},
		{"14", "observability layer on the zoom scenario", withTSV(experiments.RunObservability,
			func(r experiments.ObservabilityResult) []experiments.SeriesDump { return r.LBSeries })},
		{"15", "Table IV: adaptive control plane vs static anchors", renders(experiments.RunTableIV)},
		{"16", "telemetry causal chains under scripted freezes", renders(experiments.RunFigure16)},
		{"17", "prequal probing vs the paper's arms across fault shapes", renders(experiments.RunFig17)},
		{"18", "admission control (codel+gradient) vs the full remedy across fault shapes", renders(experiments.RunFig18)},
		{"table1", "Table I: policy/mechanism comparison under millibottlenecks", renders(experiments.RunTableI)},
		{"ablations", "design-choice ablations of the worst pair, with their claims", renders(experiments.RunAblations)},
	}
}

// withTSV prints an experiment's findings, then, under -tsv, the series
// it plots.
func withTSV[R interface{ Render() string }](run func(experiments.Options) R, series func(R) []experiments.SeriesDump) func(experiments.Options, io.Writer, bool) {
	return func(o experiments.Options, w io.Writer, tsv bool) {
		res := run(o)
		fmt.Fprint(w, res.Render())
		if tsv && series != nil {
			fmt.Fprint(w, experiments.RenderTSV(series(res)...))
		}
	}
}

// renders prints an experiment's findings; it has no series for -tsv.
func renders[R interface{ Render() string }](run func(experiments.Options) R) func(experiments.Options, io.Writer, bool) {
	return withTSV(run, nil)
}

func instabilitySeries(r experiments.InstabilityResult) []experiments.SeriesDump {
	return append([]experiments.SeriesDump{r.VLRTPerWindow, r.StalledAppCPU}, r.Web1Assign...)
}

func lbValueSeries(r experiments.LBValueResult) []experiments.SeriesDump {
	return append(append([]experiments.SeriesDump{}, r.AppQueues...), r.LBSeries...)
}

func queueSeries(r experiments.QueueComparisonResult) []experiments.SeriesDump {
	return []experiments.SeriesDump{r.WebTier, r.AppTier, r.DBTier}
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fig := fs.String("fig", "", "figure number or table name to regenerate (see -list)")
	all := fs.Bool("all", false, "regenerate every figure and table")
	list := fs.Bool("list", false, "list entries with one-line descriptions")
	report := fs.Bool("report", false, "run the complete evaluation and emit a markdown report")
	showConfig := fs.Bool("config", false, "print the testbed configuration (Tables II/III) and exit")
	tsv := fs.Bool("tsv", false, "emit raw windowed series as TSV")
	outDir := fs.String("out", "", "write each entry's output to <dir>/figNN.txt (or <dir>/<name>.txt) instead of stdout")
	scale := fs.Float64("scale", 1.0/6, "fraction of the paper's duration for full-run figures")
	seed := fs.Uint64("seed", 0, "override random seed")
	par := fs.Int("parallel", 0, "max concurrent simulation runs per figure (0 = GOMAXPROCS, 1 = sequential)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *showConfig {
		printConfig(out)
		return nil
	}
	opt := experiments.Options{DurationScale: *scale, Seed: *seed, Parallel: *par}
	if *report {
		fmt.Fprint(out, experiments.RunAll(opt).Markdown())
		return nil
	}
	figs := figureTable()

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
		heading, name := f.names()
		path := filepath.Join(*outDir, name)
		file, err := os.Create(path)
		if err != nil {
			return err
		}
		f.run(opt, file, *tsv)
		if err := file.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "%s -> %s\n", strings.ToLower(heading), path)
		return nil
	}

	if *all {
		for _, f := range figs {
			heading, _ := f.names()
			fmt.Fprintf(out, "=== %s: %s ===\n", heading, f.title)
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
	return fmt.Errorf("unknown figure %q; available entries:\n%s", *fig, renderFigureList(figs))
}

// renderFigureList prints each entry's id with its one-line description —
// the -list output and the body of the unknown-figure error.
func renderFigureList(figs []figure) string {
	var b strings.Builder
	for _, f := range figs {
		fmt.Fprintf(&b, "  %2s  %s\n", f.id, f.title)
	}
	return b.String()
}

// printConfig prints the paper testbed the simulator encodes — the
// equivalents of the paper's Tables II and III.
func printConfig(w io.Writer) {
	cfg := cluster.PaperConfig()
	fmt.Fprintln(w, "Testbed configuration (paper Tables II/III equivalents)")
	fmt.Fprintf(w, "topology:        %d web, %d app, 1 db; %d closed-loop clients\n",
		cfg.NumWeb, cfg.NumApp, cfg.Clients)
	fmt.Fprintf(w, "think time:      %v (exponential)\n", cfg.ThinkTime)
	fmt.Fprintf(w, "web tier:        %d cores, MaxClients %d, backlog %d, mod_jk pool %d\n",
		cfg.WebCores, cfg.WebWorkers, cfg.WebBacklog, cfg.ConnPoolSize)
	fmt.Fprintf(w, "app tier:        %d cores, maxThreads %d, db connections %d\n",
		cfg.AppCores, cfg.AppWorkers, cfg.DBConns)
	fmt.Fprintf(w, "db tier:         %d cores, %d workers\n", cfg.DBCores, cfg.DBWorkers)
	fmt.Fprintf(w, "writeback:       every %v, disk %.0f MiB/s, stall cap %v, slow-flush p=%.2f ×%.0f\n",
		cfg.AppWriteback.Interval, cfg.AppWriteback.Disk.WriteRate/(1<<20),
		cfg.AppWriteback.MaxStall, cfg.AppWriteback.SlowFlushProb, cfg.AppWriteback.SlowFlushFactor)
	fmt.Fprintf(w, "link latency:    %v one-way\n", cfg.LinkLatency)
	fmt.Fprintf(w, "retransmission:  1s schedule ×3 (TCP drop retry)\n")
}
