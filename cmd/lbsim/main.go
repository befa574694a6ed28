// Command lbsim runs one n-tier load-balancing experiment and prints a
// summary: throughput, response-time statistics, VLRT/normal shares,
// drop counts and per-server load. It is the generic driver; use
// cmd/figures for the paper's tables and figures (-fig table1 for
// Table I).
//
// Examples:
//
//	lbsim -policy total_request -mechanism original -duration 30s
//	lbsim -policy current_load -scale 0.2 -quiet
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"millibalance/internal/adapt"
	"millibalance/internal/admission"
	"millibalance/internal/cluster"
	"millibalance/internal/config"
	"millibalance/internal/lb"
	"millibalance/internal/parallel"
	"millibalance/internal/resource"
	"millibalance/internal/stats"
	"millibalance/internal/telemetry"
)

// runReplicas executes n copies of the config differing only in seed,
// fanned out across the parallel harness, and prints one line per seed
// (in seed order, regardless of completion order) plus the cross-seed
// mean and standard deviation of the headline metrics.
func runReplicas(out io.Writer, cfg cluster.Config, n, workers int) error {
	base := cfg.Seed1
	start := time.Now()
	results := parallel.Map(workers, n, func(i int) *cluster.Results {
		c := cfg
		c.Seed1 = base + uint64(i)
		return cluster.Run(c)
	})
	elapsed := time.Since(start)

	fmt.Fprintf(out, "policy=%s mechanism=%s clients=%d duration=%v seeds=%d parallel=%d (wall %v)\n",
		cfg.Policy, cfg.Mechanism, cfg.Clients, cfg.Duration, n,
		parallel.Workers(workers), elapsed.Round(time.Millisecond))
	var meanMs, vlrtPct stats.Online
	for i, res := range results {
		r := res.Responses
		ms := float64(r.Mean().Microseconds()) / 1000
		meanMs.Add(ms)
		vlrtPct.Add(r.VLRTPercent())
		fmt.Fprintf(out, "seed=%-8d requests=%-8d meanRT=%9.2fms VLRT=%5.2f%% drops=%d\n",
			base+uint64(i), r.Total(), ms, r.VLRTPercent(), res.Drops)
	}
	fmt.Fprintf(out, "across seeds: meanRT=%.2fms (sd %.2f) VLRT=%.2f%% (sd %.2f)\n",
		meanMs.Mean(), meanMs.StdDev(), vlrtPct.Mean(), vlrtPct.StdDev())
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lbsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("lbsim", flag.ContinueOnError)
	policy := fs.String("policy", "total_request",
		"load balancing policy: "+strings.Join(lb.PolicyNames(), ", "))
	mechanism := fs.String("mechanism", "original",
		"get_endpoint mechanism: original or modified")
	duration := fs.Duration("duration", 30*time.Second, "virtual run duration")
	clients := fs.Int("clients", 0, "override client count (0 = config default)")
	scale := fs.Float64("scale", 1.0, "client-count scale factor")
	seed := fs.Uint64("seed", 0, "override random seed (0 = config default)")
	quiet := fs.Bool("quiet", false, "disable millibottlenecks (baseline environment)")
	mini := fs.Bool("mini", false, "use the small test topology instead of the paper topology")
	browse := fs.Bool("browse-only", false, "use the browse-only mix")
	configFile := fs.String("config-file", "", "load the experiment from a JSON config file")
	dumpConfig := fs.Bool("dump-config", false, "print the effective config as JSON and exit")
	traceFile := fs.String("trace", "", "write the per-request access log as CSV to this file")
	spansFile := fs.String("spans", "", "write request-lifecycle spans as JSONL to this file (enables span tracing)")
	decisionsFile := fs.String("decisions", "", "write balancer decision/state/detector events as JSONL to this file (enables the event log and online detectors)")
	timelineFile := fs.String("timeline", "", "write the 50 ms per-tier resource timeline as JSONL to this file (enables the telemetry sampler)")
	adaptive := fs.Bool("adaptive", false, "arm the millibottleneck-aware adaptive control plane")
	admSpec := fs.String("admission", "", "arm the web-tier admission plane: + joined tokens from static[:n], aimd, gradient, codel, lifo (e.g. gradient+codel+lifo)")
	adaptLog := fs.String("adapt-log", "", "write controller decisions as JSONL to this file (implies -adaptive)")
	sticky := fs.Bool("sticky", false, "enable mod_jk sticky sessions")
	openLoop := fs.Float64("open-loop-rate", 0, "use Poisson arrivals at this rate (req/s) instead of closed-loop clients")
	seeds := fs.Int("seeds", 1, "run this many seed replicas (seed, seed+1, ...) and aggregate")
	par := fs.Int("parallel", 0, "max concurrent runs for -seeds (0 = GOMAXPROCS, 1 = sequential)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := cluster.PaperConfig()
	if *mini {
		cfg = cluster.MiniConfig()
	}
	if *configFile != "" {
		f, err := os.Open(*configFile)
		if err != nil {
			return err
		}
		cfg, err = config.Load(f)
		closeErr := f.Close()
		if err != nil {
			return err
		}
		if closeErr != nil {
			return closeErr
		}
	}
	cfg.Policy = *policy
	cfg.Mechanism = *mechanism
	cfg.Duration = *duration
	cfg.BrowseOnly = *browse
	if *clients > 0 {
		cfg.Clients = *clients
	}
	if *scale != 1.0 {
		cfg = cfg.Scale(*scale, 1)
	}
	if *seed != 0 {
		cfg.Seed1 = *seed
	}
	if *quiet {
		cfg.AppWriteback = resource.DisabledWritebackConfig()
		cfg.WebWriteback = resource.DisabledWritebackConfig()
	}
	if *sticky {
		cfg.LB.StickySessions = true
	}
	if *openLoop > 0 {
		cfg.OpenLoopRate = *openLoop
	}
	if *adaptive || *adaptLog != "" {
		if cfg.Adaptive == nil {
			cfg.Adaptive = &adapt.Config{}
		}
	}
	if *admSpec != "" {
		acfg, err := admission.ParseSpec(*admSpec)
		if err != nil {
			return err
		}
		cfg.Admission = acfg
	}
	if *traceFile != "" && cfg.TraceCapacity == 0 {
		cfg.TraceCapacity = 4 << 20 // plenty for any run this CLI drives
	}
	if *spansFile != "" && cfg.SpanCapacity == 0 {
		cfg.SpanCapacity = 4 << 20
	}
	if *decisionsFile != "" && cfg.EventCapacity == 0 {
		cfg.EventCapacity = 4 << 20
	}
	if *timelineFile != "" && cfg.Telemetry == nil {
		cfg.Telemetry = &telemetry.Config{}
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	if *dumpConfig {
		return config.Save(out, cfg)
	}
	if *seeds > 1 {
		if *traceFile != "" || *spansFile != "" || *decisionsFile != "" || *adaptLog != "" || *timelineFile != "" {
			return fmt.Errorf("-seeds does not combine with trace/span/decision/timeline export")
		}
		return runReplicas(out, cfg, *seeds, *par)
	}

	// Create the export files before the run: a typo'd path should fail
	// immediately, not after a possibly minutes-long simulation.
	var traceOut, spansOut, decisionsOut, adaptOut, timelineOut *os.File
	for _, e := range []struct {
		path string
		dst  **os.File
	}{{*traceFile, &traceOut}, {*spansFile, &spansOut}, {*decisionsFile, &decisionsOut}, {*adaptLog, &adaptOut}, {*timelineFile, &timelineOut}} {
		if e.path == "" {
			continue
		}
		f, err := os.Create(e.path)
		if err != nil {
			return err
		}
		*e.dst = f
	}

	start := time.Now()
	res := cluster.Run(cfg)
	elapsed := time.Since(start)

	if traceOut != nil {
		if err := res.Trace.WriteCSV(traceOut); err != nil {
			_ = traceOut.Close()
			return err
		}
		if err := traceOut.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "access log: %d entries written to %s (%d truncated)\n",
			res.Trace.Len(), *traceFile, res.Trace.Truncated())
	}
	if spansOut != nil {
		if err := res.Spans.WriteJSONL(spansOut); err != nil {
			_ = spansOut.Close()
			return err
		}
		if err := spansOut.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "spans: %d written to %s (%d overwritten)\n",
			res.Spans.Len(), *spansFile, res.Spans.Overwritten())
	}
	if decisionsOut != nil {
		if err := res.Events.WriteJSONL(decisionsOut); err != nil {
			_ = decisionsOut.Close()
			return err
		}
		if err := decisionsOut.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "events: %d written to %s (%d overwritten)\n",
			res.Events.Len(), *decisionsFile, res.Events.Overwritten())
	}
	if adaptOut != nil {
		if err := res.Adapt.WriteJSONL(adaptOut); err != nil {
			_ = adaptOut.Close()
			return err
		}
		if err := adaptOut.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "adapt decisions: %d written to %s (%d overwritten)\n",
			res.Adapt.Len(), *adaptLog, res.Adapt.Overwritten())
	}
	if timelineOut != nil {
		if err := res.Timeline.WriteJSONL(timelineOut); err != nil {
			_ = timelineOut.Close()
			return err
		}
		if err := timelineOut.Close(); err != nil {
			return err
		}
		points := 0
		for _, tr := range res.Timeline.Tracks() {
			points += tr.Len()
		}
		fmt.Fprintf(out, "timeline: %d tracks (%d points) written to %s\n",
			len(res.Timeline.Tracks()), points, *timelineFile)
	}

	r := res.Responses
	fmt.Fprintf(out, "policy=%s mechanism=%s clients=%d duration=%v (wall %v)\n",
		cfg.Policy, cfg.Mechanism, cfg.Clients, cfg.Duration, elapsed.Round(time.Millisecond))
	fmt.Fprintf(out, "requests: issued=%d completed=%d failed=%d drops=%d retransmits=%d give-ups=%d rejects=%d\n",
		res.Issued, r.Total(), r.Failures(), res.Drops, res.Retransmits, res.GiveUps, res.Rejects)
	fmt.Fprintf(out, "response time: mean=%v p50=%v p99=%v p99.9=%v max=%v\n",
		r.Mean().Round(10*time.Microsecond), r.Quantile(0.5).Round(10*time.Microsecond),
		r.Quantile(0.99).Round(10*time.Microsecond), r.Quantile(0.999).Round(10*time.Microsecond),
		r.Histogram().Max().Round(time.Millisecond))
	fmt.Fprintf(out, "shares: VLRT(>1s)=%.2f%% normal(<10ms)=%.2f%%\n", r.VLRTPercent(), r.NormalPercent())
	if cfg.Admission != nil {
		fmt.Fprintf(out, "admission: sheds=%d", res.AdmissionSheds)
		for _, st := range res.Admission {
			fmt.Fprintf(out, " [%s limit=%d admitted=%d dropped=%d]", st.Limiter, st.Limit, st.Admitted, st.Dropped)
		}
		fmt.Fprintln(out)
	}
	if cfg.Adaptive != nil {
		st := res.AdaptState
		fmt.Fprintf(out, "adaptive: decisions=%d quarantines=%d readmits=%d swaps=%d fallbacks=%d final policy=%s mechanism=%s quarantined=%d\n",
			st.Decisions,
			res.Adapt.Count(adapt.ActionQuarantine), res.Adapt.Count(adapt.ActionReadmit),
			res.Adapt.Count(adapt.ActionSwapMechanism)+res.Adapt.Count(adapt.ActionSwapPolicy),
			res.Adapt.Count(adapt.ActionFallback),
			st.Policy, st.Mechanism, len(st.Quarantined))
	}
	for _, st := range res.Webs {
		_, peak := st.Queue.PeakWindow()
		fmt.Fprintf(out, "web %-9s served=%-8d avgCPU=%5.1f%% queuePeak=%.0f\n", st.Name, st.Served, st.CPU.Average(), peak)
	}
	for _, st := range res.Apps {
		_, peak := st.Queue.PeakWindow()
		fmt.Fprintf(out, "app %-9s served=%-8d avgCPU=%5.1f%% queuePeak=%.0f\n", st.Name, st.Served, st.CPU.Average(), peak)
	}
	fmt.Fprintf(out, "db  %-9s served=%-8d avgCPU=%5.1f%%\n", res.DB.Name, res.DB.Served, res.DB.CPU.Average())
	return nil
}
