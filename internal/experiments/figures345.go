package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"millibalance/internal/cluster"
	"millibalance/internal/parallel"
	"millibalance/internal/stats"
)

// runPaperWith runs the paper topology with the given policy/mechanism.
func runPaperWith(opt Options, policy, mechanism string) *cluster.Results {
	res, _ := shapes["dirty_page_flush"].run(opt, pair(policy, mechanism))
	return res
}

// Figure3Result is the point-in-time response time of the first ten
// seconds under total_request and total_traffic with millibottlenecks
// present: large fluctuations instead of the baseline's flat line.
type Figure3Result struct {
	TotalRequestRT SeriesDump
	TotalTrafficRT SeriesDump
	// PeakWindowRTMillis is the worst windowed mean across both runs.
	PeakWindowRTMillis float64
	// BaselinePeakMillis is Figure 1's equivalent for contrast.
	FluctuationRatio float64
}

// runPaperPair runs both original policies side by side on the harness.
func runPaperPair(opt Options) (tr, tt *cluster.Results) {
	parallel.All(opt.workers(),
		func() { tr = runPaperWith(opt, "total_request", "original_get_endpoint") },
		func() { tt = runPaperWith(opt, "total_traffic", "original_get_endpoint") },
	)
	return tr, tt
}

// RunFigure3 executes both policy runs and extracts the first 10 s.
func RunFigure3(opt Options) Figure3Result {
	tr, tt := runPaperPair(opt)

	cut := func(s *stats.Series) SeriesDump {
		d := dumpMeans("rt_ms", s)
		maxWin := int(10 * time.Second / s.Width())
		if len(d.Values) > maxWin {
			d.Values = d.Values[:maxWin]
		}
		return d
	}
	a := cut(tr.Responses.PointInTime())
	a.Name = "total_request_rt_ms"
	b := cut(tt.Responses.PointInTime())
	b.Name = "total_traffic_rt_ms"

	peak, median := 0.0, []float64{}
	for _, d := range []SeriesDump{a, b} {
		for _, v := range d.Values {
			if v > peak {
				peak = v
			}
			if v > 0 {
				median = append(median, v)
			}
		}
	}
	ratio := 0.0
	if m := stats.ExactQuantile(median, 0.5); m > 0 {
		ratio = peak / m
	}
	return Figure3Result{
		TotalRequestRT:     a,
		TotalTrafficRT:     b,
		PeakWindowRTMillis: peak,
		FluctuationRatio:   ratio,
	}
}

// Render summarizes the fluctuation findings.
func (f Figure3Result) Render() string {
	return fmt.Sprintf("Figure 3 — point-in-time RT, first 10s\npeakWindowRT=%.0fms peak/median=%.0fx\n",
		f.PeakWindowRTMillis, f.FluctuationRatio)
}

// Figure4Result is the response-time frequency distribution under both
// original policies, exhibiting VLRT clusters near 1 s, 2 s and 3 s.
type Figure4Result struct {
	// Buckets maps policy name to (lower-bound-ms, count) pairs.
	TotalRequestHist []HistBucket
	TotalTrafficHist []HistBucket
	// ClusterCounts counts requests within ±200 ms of 1 s, 2 s, 3 s for
	// the total_request run.
	ClusterCounts [3]uint64
}

// HistBucket is one response-time histogram bucket.
type HistBucket struct {
	LowerMillis float64
	UpperMillis float64
	Count       uint64
}

// RunFigure4 executes both policy runs and extracts the distributions.
func RunFigure4(opt Options) Figure4Result {
	tr, tt := runPaperPair(opt)

	collect := func(res *cluster.Results) []HistBucket {
		var out []HistBucket
		for _, b := range res.Responses.Histogram().Buckets() {
			out = append(out, HistBucket{
				LowerMillis: float64(b.Lower.Microseconds()) / 1000,
				UpperMillis: float64(b.Upper.Microseconds()) / 1000,
				Count:       b.Count,
			})
		}
		return out
	}
	var clusters [3]uint64
	hist := tr.Responses.Histogram()
	for i, center := range []time.Duration{time.Second, 2 * time.Second, 3 * time.Second} {
		clusters[i] = hist.CountAtOrAbove(center-200*time.Millisecond) -
			hist.CountAtOrAbove(center+200*time.Millisecond)
	}
	return Figure4Result{
		TotalRequestHist: collect(tr),
		TotalTrafficHist: collect(tt),
		ClusterCounts:    clusters,
	}
}

// Render summarizes the cluster findings.
func (f Figure4Result) Render() string {
	return fmt.Sprintf("Figure 4 — RT distribution\nVLRT clusters: ~1s:%d ~2s:%d ~3s:%d\n",
		f.ClusterCounts[0], f.ClusterCounts[1], f.ClusterCounts[2])
}

// RenderHist renders a histogram as TSV.
func RenderHist(buckets []HistBucket) string {
	var b strings.Builder
	b.WriteString("lower_ms\tupper_ms\tcount\n")
	for _, h := range buckets {
		fmt.Fprintf(&b, "%.3f\t%.3f\t%d\n", h.LowerMillis, h.UpperMillis, h.Count)
	}
	return b.String()
}

// Figure5Result is the average CPU utilization per component server
// under both original policies: every server stays at moderate (<50%)
// utilization even though VLRT requests abound.
type Figure5Result struct {
	// PerServer maps server name to average CPU percent, per policy.
	TotalRequest map[string]float64
	TotalTraffic map[string]float64
	// MaxAverage is the busiest server's average across both policies.
	MaxAverage float64
}

// RunFigure5 executes both policy runs and collects per-server averages.
func RunFigure5(opt Options) Figure5Result {
	collect := func(res *cluster.Results) map[string]float64 {
		out := map[string]float64{}
		for _, st := range res.Webs {
			out[st.Name] = st.CPU.Average()
		}
		for _, st := range res.Apps {
			out[st.Name] = st.CPU.Average()
		}
		out[res.DB.Name] = res.DB.CPU.Average()
		return out
	}
	trRes, ttRes := runPaperPair(opt)
	tr, tt := collect(trRes), collect(ttRes)
	maxAvg := 0.0
	for _, m := range []map[string]float64{tr, tt} {
		for _, v := range m {
			if v > maxAvg {
				maxAvg = v
			}
		}
	}
	return Figure5Result{TotalRequest: tr, TotalTraffic: tt, MaxAverage: maxAvg}
}

// Render prints the per-server averages.
func (f Figure5Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5 — average CPU per server (max %.1f%%)\n", f.MaxAverage)
	fmt.Fprintf(&b, "%-10s %14s %14s\n", "server", "total_request", "total_traffic")
	// Sorted: the rows must not come out in map order, which differs
	// from one process to the next.
	names := make([]string, 0, len(f.TotalRequest))
	for name := range f.TotalRequest {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "%-10s %13.1f%% %13.1f%%\n", name, f.TotalRequest[name], f.TotalTraffic[name])
	}
	return b.String()
}
