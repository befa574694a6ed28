// Millibottleneck demo: reproduce the paper's Section III causal chain
// on the single-chain topology (1 web / 1 app / 1 db) and walk through
// the diagnosis: dirty pages accumulate → a flush saturates the disk
// (iowait) → the CPU stalls for ~200 ms → queues spike → the accept
// queue overflows → dropped connections retransmit after 1 s → VLRT
// requests appear — all while average utilization stays moderate.
//
//	go run ./examples/millibottleneck-demo
package main

import (
	"fmt"
	"time"

	"millibalance/internal/cluster"
	"millibalance/internal/mbneck"
)

func main() {
	cfg := cluster.SingleChainConfig()
	cfg.Duration = 30 * time.Second
	fmt.Printf("running %d clients against 1 web / 1 app / 1 db for %v (virtual)...\n\n",
		cfg.Clients, cfg.Duration)
	res := cluster.Run(cfg)

	r := res.Responses
	fmt.Printf("requests: %d total, mean RT %v, %d VLRT (>1s), %d dropped connections\n",
		r.Total(), r.Mean().Round(10*time.Microsecond), r.VLRTCount(), res.Drops)

	// Step 1: dirty pages and flushes on the app server.
	app := res.Apps[0]
	wbPeakIdx, wbPeak := app.DirtyBytes.PeakWindow()
	fmt.Printf("\n[1] dirty pages peak at %.1f MiB (t=%v) before each flush\n",
		wbPeak/(1<<20), app.DirtyBytes.Start(wbPeakIdx))

	// Step 2: iowait saturation windows.
	ioSpans := mbneck.DetectSaturations(app.IOWait, 95)
	fmt.Printf("[2] %d iowait saturation windows (flushes writing to disk)\n", len(ioSpans))

	// Step 3: transient CPU saturations — the millibottlenecks — at the
	// paper's operating points: ≥95% busy for 50 ms to 2 s, VLRT windows
	// matched within 2.5 s (one TCP retransmission plus drain).
	const tolerance = 2500 * time.Millisecond
	var all []mbneck.Span
	for _, srv := range []*cluster.ServerStats{app, res.Webs[0]} {
		rep := mbneck.Analyze(srv.CPU.Series(), srv.Queue, r.VLRTWindows(),
			95, 50*time.Millisecond, 2*time.Second, tolerance)
		all = append(all, rep.Saturations...)
		fmt.Printf("[3] %s: %d millibottlenecks", srv.Name, len(rep.Saturations))
		for i, s := range rep.Saturations {
			if i >= 4 {
				fmt.Printf(" …")
				break
			}
			fmt.Printf(" [%.1fs, %v]", s.Start.Seconds(), s.Duration())
		}
		fmt.Println()
	}

	// Step 4: queue spikes correlate with the saturations.
	fmt.Printf("[4] web-queue ↔ web-CPU peak correlation: r=%.2f\n",
		mbneck.CorrelatePeaks(res.Webs[0].Queue, res.Webs[0].CPU.Series()))

	// Step 5: attribution of VLRT windows to the millibottlenecks.
	attr := mbneck.AttributeEvents(r.VLRTWindows(), all, tolerance)
	fmt.Printf("[5] %.0f%% of VLRT windows attributed to millibottlenecks\n", attr*100)

	// Step 6: yet the averages look healthy.
	fmt.Printf("[6] average CPU: web %.1f%%, app %.1f%%, db %.1f%% — the paradox the\n",
		res.Webs[0].CPU.Average(), app.CPU.Average(), res.DB.CPU.Average())
	fmt.Println("    paper highlights: second-level monitoring would see nothing wrong.")

	// Bonus: the response-time distribution's retransmission clusters.
	hist := r.Histogram()
	fmt.Println("\nresponse-time clusters (dropped connections retransmit after 1s):")
	for _, center := range []time.Duration{time.Second, 2 * time.Second, 3 * time.Second} {
		n := hist.CountAtOrAbove(center-200*time.Millisecond) - hist.CountAtOrAbove(center+200*time.Millisecond)
		fmt.Printf("  ~%v: %d requests\n", center, n)
	}
}
