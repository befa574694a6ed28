package experiments

import (
	"fmt"
	"strings"
	"time"

	"millibalance/internal/cluster"
	"millibalance/internal/telemetry"
)

// The causal-chain experiment ("Figure 16") exercises the telemetry
// layer end to end: the writeback-freeze scenario — recurring scripted
// CPU stalls on tomcat1, the simulator's equivalent of the PR 4 freeze
// fault shape — runs with the 50 ms timeline sampler and the event log
// armed, then the correlation engine explains every VLRT cluster the
// run produced. The paper does this by eyeballing Figs. 6–7; here it is
// a ranked table, and the acceptance bar is that the injected tier is
// the #1 causal chain for at least 90 % of clusters.
const (
	chainStallFirst    = 4 * time.Second
	chainStallEvery    = 3 * time.Second
	chainStallCount    = 8
	chainStallDuration = 250 * time.Millisecond
	// chainClusterGap joins VLRT windows into clusters; one retransmit
	// schedule step apart still counts as the same incident.
	chainClusterGap = 500 * time.Millisecond
)

// chainDuration covers every stall plus drain time.
const chainDuration = chainStallFirst + time.Duration(chainStallCount)*chainStallEvery

// ChainReport is one cluster's verdict in exportable form.
type ChainReport struct {
	Cluster telemetry.VLRTCluster `json:"cluster"`
	Root    telemetry.Link        `json:"root"`
	// Hit reports whether the top-ranked link names the injected tier.
	Hit bool `json:"hit"`
}

// CausalChainResult is the Figure 16 output.
type CausalChainResult struct {
	Policy    string
	Mechanism string
	// Injected names the server the stalls were scripted on.
	Injected string
	// Clusters is how many VLRT clusters the run produced.
	Clusters int
	// Reports holds one ranked verdict per cluster.
	Reports []ChainReport
	// TopShare is the fraction of clusters whose #1 causal chain names
	// the injected tier — the acceptance metric (≥ 0.9).
	TopShare float64
	// OnlineChains is how many causal chains the online correlator
	// emitted during the run (one per detector confirmation).
	OnlineChains int
	// OnlineTopShare is TopShare for the online chains.
	OnlineTopShare float64
	// VLRTTotal counts VLRT requests over the run.
	VLRTTotal uint64
}

// RunFigure16 executes the causal-chain experiment.
func RunFigure16(opt Options) CausalChainResult {
	cfg := cluster.BaselineConfig() // writeback noise off: stalls are scripted
	cfg.Policy = "total_request"
	cfg.Mechanism = "original_get_endpoint"
	cfg.Duration = chainDuration
	cfg.EventCapacity = 1 << 20
	cfg.Telemetry = &telemetry.Config{}
	if opt.Seed != 0 {
		cfg.Seed1 = opt.Seed
	}
	c := cluster.New(cfg)
	injected := c.Apps[0].Name()
	stalls := make([]string, chainStallCount)
	for i := range stalls {
		stalls[i] = fmt.Sprintf("freeze:oneshot:interval=%v:duration=%v",
			chainStallFirst+time.Duration(i)*chainStallEvery, chainStallDuration)
	}
	if _, err := inject(c, strings.Join(stalls, ",")); err != nil {
		panic(err)
	}
	res := c.Run()

	out := CausalChainResult{
		Policy:    cfg.Policy,
		Mechanism: cfg.Mechanism,
		Injected:  injected,
		VLRTTotal: res.Responses.VLRTCount(),
	}

	clusters := telemetry.ClustersFromSeries(res.Responses.VLRTWindows(), chainClusterGap)
	chains := telemetry.Correlate(res.Timeline.Tracks(), clusters, telemetry.CorrelateConfig{})
	out.Clusters = len(clusters)
	hits := 0
	for _, ch := range chains {
		rep := ChainReport{Cluster: ch.Cluster}
		if root, ok := ch.Root(); ok {
			rep.Root = root
			rep.Hit = root.Source == injected
		}
		if rep.Hit {
			hits++
		}
		out.Reports = append(out.Reports, rep)
	}
	if out.Clusters > 0 {
		out.TopShare = float64(hits) / float64(out.Clusters)
	}

	out.OnlineChains = len(res.Chains)
	onlineHits := 0
	for _, ch := range res.Chains {
		if root, ok := ch.Root(); ok && root.Source == injected {
			onlineHits++
		}
	}
	if out.OnlineChains > 0 {
		out.OnlineTopShare = float64(onlineHits) / float64(out.OnlineChains)
	}
	return out
}

// Render prints the ranked causal-chain table.
func (r CausalChainResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Causal chains — policy=%s mechanism=%s (%d scripted %v stalls on %s every %v)\n",
		r.Policy, r.Mechanism, chainStallCount, chainStallDuration, r.Injected, chainStallEvery)
	fmt.Fprintf(&b, "%-20s %-8s %-26s %8s %8s %8s  %s\n",
		"cluster", "vlrt", "#1 causal chain", "onset", "z", "lag", "verdict")
	for _, rep := range r.Reports {
		verdict := "MISS"
		if rep.Hit {
			verdict = "hit"
		}
		span := fmt.Sprintf("%.2fs-%.2fs", rep.Cluster.Start.Seconds(), rep.Cluster.End.Seconds())
		root := rep.Root.Source + "/" + rep.Root.Signal
		if rep.Root.Source == "" {
			root, verdict = "(none)", "MISS"
		}
		fmt.Fprintf(&b, "%-20s %-8d %-26s %7.2fs %8.1f %7.2fs  %s\n",
			span, rep.Cluster.Count, root, rep.Root.Onset.Seconds(), rep.Root.Z, rep.Root.Lag.Seconds(), verdict)
	}
	fmt.Fprintf(&b, "offline: %d clusters, injected-tier-first share=%.0f%% (acceptance: >=90%%)\n",
		r.Clusters, r.TopShare*100)
	fmt.Fprintf(&b, "online: %d detector-triggered chains, injected-tier-first share=%.0f%%; VLRT total=%d\n",
		r.OnlineChains, r.OnlineTopShare*100, r.VLRTTotal)
	return b.String()
}
