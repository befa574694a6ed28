package telemetry

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"millibalance/internal/obs"
	"millibalance/internal/stats"
)

func TestClustersFromSeries(t *testing.T) {
	s := stats.NewSeries(50 * time.Millisecond)
	// Two bursts: windows 10–11 and window 40.
	s.Incr(500 * time.Millisecond)
	s.Incr(510 * time.Millisecond)
	s.Incr(560 * time.Millisecond)
	s.Incr(2 * time.Second)
	got := ClustersFromSeries(s, 100*time.Millisecond)
	if len(got) != 2 {
		t.Fatalf("clusters = %+v, want 2", got)
	}
	if got[0].Start != 500*time.Millisecond || got[0].End != 600*time.Millisecond || got[0].Count != 3 {
		t.Fatalf("cluster 0 = %+v", got[0])
	}
	if got[1].Start != 2*time.Second || got[1].Count != 1 {
		t.Fatalf("cluster 1 = %+v", got[1])
	}
	// A generous gap joins them.
	if joined := ClustersFromSeries(s, 2*time.Second); len(joined) != 1 || joined[0].Count != 4 {
		t.Fatalf("joined = %+v, want one cluster of 4", joined)
	}
}

func TestClusterSpans(t *testing.T) {
	spans := []obs.Span{
		{StartAt: 0, EndAt: 1200 * time.Millisecond},                      // VLRT
		{StartAt: 100 * time.Millisecond, EndAt: 150 * time.Millisecond},  // fast
		{StartAt: 200 * time.Millisecond, EndAt: 1300 * time.Millisecond}, // VLRT
		{StartAt: 4 * time.Second, EndAt: 5500 * time.Millisecond},        // VLRT, far away
	}
	got := ClusterSpans(spans, time.Second, 500*time.Millisecond)
	if len(got) != 2 {
		t.Fatalf("clusters = %+v, want 2", got)
	}
	if got[0].Count != 2 || got[0].Start != 1200*time.Millisecond || got[0].End != 1300*time.Millisecond {
		t.Fatalf("cluster 0 = %+v", got[0])
	}
}

// synthetic two-tier scenario: the "app" queue spikes 1 s before the
// VLRT cluster, the "web" queue spikes mildly after the cluster began.
func syntheticTracks() []*Track {
	tl := NewTimeline(Config{Interval: 50 * time.Millisecond, Capacity: 512})
	app := tl.AddTrack("tomcat1", SignalQueueDepth)
	frozen := tl.AddTrack("tomcat1", SignalFrozen)
	web := tl.AddTrack("apache1", SignalQueueDepth)
	flat := tl.AddTrack("mysql1", SignalQueueDepth)
	for i := 0; i < 200; i++ {
		at := time.Duration(i) * 50 * time.Millisecond
		appQ, fr, webQ := 3.0, 0.0, 2.0
		// Stall on the app server between 4.0 s and 4.3 s.
		if at >= 4*time.Second && at < 4300*time.Millisecond {
			appQ, fr = 180, 1
		}
		// The web tier feels it after the cluster starts (damage).
		if at >= 5200*time.Millisecond && at < 5500*time.Millisecond {
			webQ = 40
		}
		app.Append(at, appQ)
		frozen.Append(at, fr)
		web.Append(at, webQ)
		flat.Append(at, 1)
	}
	return tl.Tracks()
}

func TestCorrelateRanksPrecedingSpikeFirst(t *testing.T) {
	tracks := syntheticTracks()
	clusters := []VLRTCluster{{Start: 5100 * time.Millisecond, End: 5300 * time.Millisecond, Count: 12}}
	chains := Correlate(tracks, clusters, CorrelateConfig{})
	if len(chains) != 1 {
		t.Fatalf("chains = %d, want 1", len(chains))
	}
	root, ok := chains[0].Root()
	if !ok {
		t.Fatal("no links in chain")
	}
	if root.Source != "tomcat1" {
		t.Fatalf("root = %s/%s (score %.1f), want tomcat1", root.Source, root.Signal, root.Score)
	}
	if root.Lag <= 0 {
		t.Fatalf("root lag = %v, want positive (spike precedes cluster)", root.Lag)
	}
	// The flat mysql track must not appear at all.
	for _, l := range chains[0].Links {
		if l.Source == "mysql1" {
			t.Fatalf("flat track reported as a cause: %+v", l)
		}
	}
	// The web spike is damage after onset: present but ranked below both
	// tomcat1 signals.
	if len(chains[0].Links) >= 2 && chains[0].Links[1].Source == "apache1" {
		t.Fatalf("apache1 outranked a tomcat1 signal: %+v", chains[0].Links)
	}
}

func TestCorrelateMinZFiltersQuietTracks(t *testing.T) {
	tracks := syntheticTracks()
	clusters := []VLRTCluster{{Start: 15 * time.Second, End: 15100 * time.Millisecond, Count: 1}}
	// Window far from any spike: the lookback holds only baseline, so no
	// link should clear MinZ.
	chains := Correlate(tracks, clusters, CorrelateConfig{Window: 500 * time.Millisecond})
	if len(chains) != 1 {
		t.Fatalf("chains = %d, want 1", len(chains))
	}
	if len(chains[0].Links) != 0 {
		t.Fatalf("quiet window produced links: %+v", chains[0].Links)
	}
}

func TestCorrelatorOnEvent(t *testing.T) {
	tl := NewTimeline(Config{Interval: 50 * time.Millisecond, Capacity: 512})
	tr := tl.AddTrack("tomcat1", SignalQueueDepth)
	for i := 0; i < 100; i++ {
		at := time.Duration(i) * 50 * time.Millisecond
		v := 2.0
		if at >= 2*time.Second && at < 2200*time.Millisecond {
			v = 90
		}
		tr.Append(at, v)
	}
	c := NewCorrelator(tl, CorrelateConfig{})
	c.OnEvent(obs.Event{Kind: obs.KindDecision}) // ignored
	c.OnEvent(obs.Event{
		Kind:      obs.KindMillibottleneck,
		Source:    "tomcat1",
		SpanStart: 2 * time.Second,
		SpanEnd:   2200 * time.Millisecond,
	})
	chains := c.Chains()
	if len(chains) != 1 {
		t.Fatalf("chains = %d, want 1", len(chains))
	}
	if root, ok := chains[0].Root(); !ok || root.Source != "tomcat1" {
		t.Fatalf("root = %+v ok=%v", chains[0].Links, ok)
	}
	// Nil-safety.
	var nilC *Correlator
	nilC.OnEvent(obs.Event{Kind: obs.KindMillibottleneck})
	if nilC.Chains() != nil {
		t.Fatal("nil correlator returned chains")
	}
}

func TestTimelineWriteJSONLAndProm(t *testing.T) {
	tl := NewTimeline(Config{Capacity: 8})
	q := tl.AddTrack("tomcat1", SignalQueueDepth)
	done := tl.AddTrack("tomcat1", SignalCompleted)
	q.Append(50*time.Millisecond, 7)
	done.Append(50*time.Millisecond, 41)

	var jb strings.Builder
	if err := tl.WriteJSONL(&jb); err != nil {
		t.Fatal(err)
	}
	wantLine := `{"source":"tomcat1","signal":"queue_depth","t":50000000,"v":7}`
	if !strings.Contains(jb.String(), wantLine) {
		t.Fatalf("JSONL missing %s:\n%s", wantLine, jb.String())
	}

	var pb strings.Builder
	if err := tl.WriteProm(&pb, "millibalance"); err != nil {
		t.Fatal(err)
	}
	out := pb.String()
	for _, want := range []string{
		"# TYPE millibalance_queue_depth gauge",
		`millibalance_queue_depth{source="tomcat1"} 7`,
		"# TYPE millibalance_completed_total counter",
		`millibalance_completed_total{source="tomcat1"} 41`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prom output missing %q:\n%s", want, out)
		}
	}
	// Nil-safety of the export surfaces.
	var nilTL *Timeline
	if err := nilTL.WriteJSONL(&jb); err != nil {
		t.Fatal(err)
	}
	if err := nilTL.WriteProm(&pb, "x"); err != nil {
		t.Fatal(err)
	}
}

func TestWallSamplerRuntimeSignals(t *testing.T) {
	start := time.Now()
	w := NewWallSampler("proxy", Config{Interval: 5 * time.Millisecond, Capacity: 128}, func() time.Duration { return time.Since(start) })
	var inFlight atomic.Int64
	w.Register("backend1", SignalInFlight, func() float64 { return float64(inFlight.Load()) })
	// Pin a visible amount of live heap: right after a collection the
	// heap-objects gauge can read ~0, so give it something it must see.
	ballast := make([]byte, 1<<20)
	defer runtime.KeepAlive(ballast)
	w.Start()
	time.Sleep(30 * time.Millisecond)
	inFlight.Store(3)
	time.Sleep(30 * time.Millisecond)
	w.Stop()

	tl := w.Timeline()
	gr := tl.Lookup("proxy", SignalGoroutines)
	if gr == nil || gr.Len() == 0 {
		t.Fatal("no goroutine samples recorded")
	}
	if p, ok := gr.Latest(); !ok || p.V < 1 {
		t.Fatalf("goroutines latest = %+v ok=%v", p, ok)
	}
	// The heap-objects gauge can legitimately dip on a sample that
	// lands mid-GC, so require a positive reading somewhere in the run
	// rather than on the final point; the ballast guarantees one exists.
	heap := tl.Lookup("proxy", SignalHeapBytes)
	heapSeen := false
	for _, p := range heap.Snapshot(nil) {
		if p.V >= float64(len(ballast)) {
			heapSeen = true
			break
		}
	}
	if !heapSeen {
		t.Fatalf("no heap sample saw the %d-byte ballast in %d points", len(ballast), heap.Len())
	}
	bi := tl.Lookup("backend1", SignalInFlight)
	if p, ok := bi.Latest(); !ok || p.V != 3 {
		t.Fatalf("backend in_flight latest = %+v ok=%v, want 3", p, ok)
	}
	// Stop again is a no-op; nil-safety.
	w.Stop()
	var nilW *WallSampler
	nilW.Start()
	nilW.Stop()
	nilW.Register("x", "y", func() float64 { return 0 })
}
