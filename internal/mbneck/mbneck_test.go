package mbneck

import (
	"testing"
	"time"

	"millibalance/internal/sim"
	"millibalance/internal/stats"
)

// stall is one window a recorder saw open.
type stall struct{ At, Duration sim.Time }

// recorder implements Stallable and logs stall calls.
type recorder struct {
	eng    *sim.Engine
	stalls []stall
}

func (r *recorder) Stall(d sim.Time) {
	r.stalls = append(r.stalls, stall{At: r.eng.Now(), Duration: d})
}

func startStalls(eng *sim.Engine, sched Schedule) (*recorder, *Stalls) {
	rec := &recorder{eng: eng}
	s := NewStalls(eng, rec, sched)
	s.Start()
	return rec, s
}

func TestPeriodicStallsFireOnInterval(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	rec, inj := startStalls(eng, Schedule{Kind: Periodic, Interval: time.Second, Duration: 100 * time.Millisecond})
	eng.Run(3500 * time.Millisecond)
	if len(rec.stalls) != 3 {
		t.Fatalf("stalls = %v, want 3", rec.stalls)
	}
	for i, s := range rec.stalls {
		if s.At != sim.Time(i+1)*time.Second || s.Duration != 100*time.Millisecond {
			t.Fatalf("stall %d = %+v", i, s)
		}
	}
	if inj.Fired() != 3 {
		t.Fatalf("Fired=%d", inj.Fired())
	}
}

func TestPeriodicStallsStop(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	rec, inj := startStalls(eng, Schedule{Kind: Periodic, Interval: time.Second, Duration: 50 * time.Millisecond})
	eng.Run(1500 * time.Millisecond)
	inj.Stop()
	eng.Run(10 * time.Second)
	if len(rec.stalls) != 1 {
		t.Fatalf("stalls after Stop = %d", len(rec.stalls))
	}
}

func TestPeriodicStallsJitterBounds(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	rec, _ := startStalls(eng, Schedule{Kind: Periodic, Interval: time.Second, Duration: 100 * time.Millisecond, Jitter: 0.2})
	eng.Run(30 * time.Second)
	if len(rec.stalls) < 20 {
		t.Fatalf("only %d stalls", len(rec.stalls))
	}
	for _, s := range rec.stalls {
		if s.Duration < 80*time.Millisecond || s.Duration > 120*time.Millisecond {
			t.Fatalf("jittered duration %v out of ±20%%", s.Duration)
		}
	}
}

func TestPeriodicStallsValidation(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	periodic := Schedule{Kind: Periodic, Interval: 1, Duration: 1}
	mustPanic("nil target", func() { NewStalls(eng, nil, periodic) })
	mustPanic("zero interval", func() { NewStalls(eng, &recorder{eng: eng}, Schedule{Kind: Periodic, Duration: 1}) })
	mustPanic("zero random duration", func() { NewStalls(eng, &recorder{eng: eng}, Schedule{Kind: Random, Interval: 1}) })
	mustPanic("double start", func() {
		i := NewStalls(eng, &recorder{eng: eng}, periodic)
		i.Start()
		i.Start()
	})
}

func TestRandomStallsStatistics(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	rec, inj := startStalls(eng, Schedule{Kind: Random, Interval: time.Second, Duration: 100 * time.Millisecond})
	eng.Run(200 * time.Second)
	n := len(rec.stalls)
	if n < 150 || n > 260 {
		t.Fatalf("stall count %d for mean interval 1s over 200s", n)
	}
	var sum time.Duration
	for _, s := range rec.stalls {
		sum += s.Duration
	}
	mean := sum / time.Duration(n)
	if mean < 80*time.Millisecond || mean > 125*time.Millisecond {
		t.Fatalf("mean stall duration %v, want ~100ms", mean)
	}
	inj.Stop()
}

// A script is a list of one-shot schedules, each opening once at its
// Interval after the start.
func TestScriptedStallsExactPlayback(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	rec := &recorder{eng: eng}
	script := []stall{
		{At: 500 * time.Millisecond, Duration: 120 * time.Millisecond},
		{At: 2 * time.Second, Duration: 80 * time.Millisecond},
	}
	var injs []*Stalls
	for _, s := range script {
		inj := NewStalls(eng, rec, Schedule{Kind: OneShot, Interval: s.At, Duration: s.Duration, Count: 5})
		inj.Start()
		injs = append(injs, inj)
	}
	eng.Run(5 * time.Second)
	if len(rec.stalls) != 2 {
		t.Fatalf("stalls = %v", rec.stalls)
	}
	for i := range script {
		if rec.stalls[i] != script[i] {
			t.Fatalf("stall %d = %+v, want %+v", i, rec.stalls[i], script[i])
		}
		if injs[i].Fired() != 1 {
			t.Fatalf("one-shot %d fired %d times", i, injs[i].Fired())
		}
	}
}

func TestScriptedStallsStopCancelsRemaining(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	rec := &recorder{eng: eng}
	var injs []*Stalls
	for _, at := range []sim.Time{time.Second, 10 * time.Second} {
		inj := NewStalls(eng, rec, Schedule{Kind: OneShot, Interval: at, Duration: time.Millisecond})
		inj.Start()
		injs = append(injs, inj)
	}
	eng.Run(2 * time.Second)
	for _, inj := range injs {
		inj.Stop()
	}
	eng.Run(20 * time.Second)
	if len(rec.stalls) != 1 {
		t.Fatalf("stalls = %d after Stop", len(rec.stalls))
	}
}

func TestStallsCountStopsSchedule(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	rec, inj := startStalls(eng, Schedule{Kind: Random, Interval: time.Second, Duration: time.Millisecond, Count: 4})
	eng.Run(time.Minute)
	if len(rec.stalls) != 4 || inj.Fired() != 4 || eng.Pending() != 0 {
		t.Fatalf("stalls=%d fired=%d pending=%d, want 4, 4, 0", len(rec.stalls), inj.Fired(), eng.Pending())
	}
}

// TestStallsDrawOrder pins the engine driver's draws apart from the
// goldens: for a fixed seed, each window's (gap, length) pair is what
// eng.Jitter or eng.Exponential draws on a twin engine, the gap when
// the window is armed and the length when it opens, window after
// window. A zero jitter draws nothing.
func TestStallsDrawOrder(t *testing.T) {
	const windows = 6
	cases := []struct {
		name  string
		sched Schedule
		draw  func(ref *sim.Engine, d sim.Time) sim.Time
	}{
		{"periodic", Schedule{Kind: Periodic, Interval: time.Second, Duration: 100 * time.Millisecond},
			func(ref *sim.Engine, d sim.Time) sim.Time { return ref.Jitter(d, 0) }},
		{"periodic_jitter", Schedule{Kind: Periodic, Interval: time.Second, Duration: 100 * time.Millisecond, Jitter: 0.3},
			func(ref *sim.Engine, d sim.Time) sim.Time { return ref.Jitter(d, 0.3) }},
		{"random", Schedule{Kind: Random, Interval: time.Second, Duration: 100 * time.Millisecond},
			func(ref *sim.Engine, d sim.Time) sim.Time { return ref.Exponential(d) }},
		{"oneshot", Schedule{Kind: OneShot, Interval: 3 * time.Second, Duration: 250 * time.Millisecond},
			func(ref *sim.Engine, d sim.Time) sim.Time { return d }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, ref := sim.NewEngine(7, 11), sim.NewEngine(7, 11)
			rec, _ := startStalls(eng, tc.sched)
			var want []stall
			var at sim.Time
			for i := 0; i < windows && !tc.sched.Done(i); i++ {
				at += tc.draw(ref, tc.sched.Interval)
				want = append(want, stall{At: at, Duration: tc.draw(ref, tc.sched.Duration)})
			}
			eng.Run(at) // the next window's gap is drawn when this one opens
			if tc.sched.Kind != OneShot {
				tc.draw(ref, tc.sched.Interval)
			}
			if len(rec.stalls) != len(want) {
				t.Fatalf("%d windows, want %d: %v", len(rec.stalls), len(want), rec.stalls)
			}
			for i := range want {
				if rec.stalls[i] != want[i] {
					t.Fatalf("window %d = %+v, want %+v", i, rec.stalls[i], want[i])
				}
			}
			next := eng.Rand().Uint64()
			if next != ref.Rand().Uint64() {
				t.Fatal("the driver drew more or fewer values than the reference")
			}
			if tc.sched.Jitter == 0 && tc.sched.Kind != Random && next != sim.NewEngine(7, 11).Rand().Uint64() {
				t.Fatal("a zero jitter drew from the engine's source")
			}
		})
	}
}

func satSeries(values []float64) *stats.Series {
	s := stats.NewSeries(50 * time.Millisecond)
	for i, v := range values {
		s.Add(time.Duration(i)*50*time.Millisecond, v)
	}
	return s
}

func TestDetectSaturations(t *testing.T) {
	// Windows: 40,50,100,100,60,100,40
	s := satSeries([]float64{40, 50, 100, 100, 60, 100, 40})
	spans := DetectSaturations(s, 95)
	if len(spans) != 2 {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0].Start != 100*time.Millisecond || spans[0].End != 200*time.Millisecond {
		t.Fatalf("span 0 = %+v", spans[0])
	}
	if spans[1].Start != 250*time.Millisecond || spans[1].End != 300*time.Millisecond {
		t.Fatalf("span 1 = %+v", spans[1])
	}
}

func TestDetectSaturationsOpenEnded(t *testing.T) {
	s := satSeries([]float64{40, 100, 100})
	spans := DetectSaturations(s, 95)
	if len(spans) != 1 || spans[0].End != 150*time.Millisecond {
		t.Fatalf("spans = %+v", spans)
	}
}

func TestFilterMillibottlenecks(t *testing.T) {
	spans := []Span{
		{Start: 0, End: 50 * time.Millisecond},               // exactly min
		{Start: 0, End: 500 * time.Millisecond},              // in range
		{Start: 0, End: 5 * time.Second},                     // too long: conventional bottleneck
		{Start: 0, End: 10 * time.Millisecond},               // too short
		{Start: time.Second, End: time.Second + time.Second}, // exactly max
	}
	got := FilterMillibottlenecks(spans, 50*time.Millisecond, time.Second)
	if len(got) != 3 {
		t.Fatalf("filtered = %+v", got)
	}
}

func TestFindQueuePeaks(t *testing.T) {
	// Mostly small queues with one huge spike.
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = 5
	}
	vals[40] = 800
	peaks := FindQueuePeaks(satSeries(vals), 3, 10)
	if len(peaks) != 1 {
		t.Fatalf("peaks = %+v", peaks)
	}
	if peaks[0].Start != 2*time.Second || peaks[0].Len != 800 {
		t.Fatalf("peak = %+v", peaks[0])
	}
}

func TestFindQueuePeaksFloorSuppressesNoise(t *testing.T) {
	// Tiny values with tiny variance must not produce peaks below the
	// absolute floor.
	vals := []float64{0, 1, 0, 1, 2, 0, 1}
	if peaks := FindQueuePeaks(satSeries(vals), 1, 10); len(peaks) != 0 {
		t.Fatalf("noise produced peaks: %+v", peaks)
	}
}

func TestFindQueuePeaksEmpty(t *testing.T) {
	if peaks := FindQueuePeaks(stats.NewSeries(time.Millisecond), 3, 10); peaks != nil {
		t.Fatalf("empty series peaks = %v", peaks)
	}
}

func TestAttributeEvents(t *testing.T) {
	vlrt := stats.NewSeries(50 * time.Millisecond)
	vlrt.Incr(120 * time.Millisecond) // overlaps the span below
	vlrt.Incr(900 * time.Millisecond) // does not
	spans := []Span{{Start: 100 * time.Millisecond, End: 200 * time.Millisecond}}
	if got := AttributeEvents(vlrt, spans, 0); got != 0.5 {
		t.Fatalf("attribution = %v, want 0.5", got)
	}
	// With a generous tolerance both windows attribute.
	if got := AttributeEvents(vlrt, spans, time.Second); got != 1 {
		t.Fatalf("attribution with tolerance = %v, want 1", got)
	}
	if got := AttributeEvents(stats.NewSeries(vlrt.Width()), spans, 0); got != 0 {
		t.Fatalf("empty attribution = %v", got)
	}
}

func TestSpanOverlaps(t *testing.T) {
	s := Span{Start: 100 * time.Millisecond, End: 200 * time.Millisecond}
	if !s.Overlaps(150*time.Millisecond, 160*time.Millisecond, 0) {
		t.Fatal("contained interval does not overlap")
	}
	if s.Overlaps(300*time.Millisecond, 400*time.Millisecond, 0) {
		t.Fatal("disjoint interval overlaps")
	}
	if !s.Overlaps(300*time.Millisecond, 400*time.Millisecond, 150*time.Millisecond) {
		t.Fatal("tolerance not applied")
	}
	if s.Duration() != 100*time.Millisecond {
		t.Fatalf("Duration = %v", s.Duration())
	}
}

func TestCorrelatePeaks(t *testing.T) {
	a := satSeries([]float64{1, 1, 50, 1, 1, 40, 1})
	b := satSeries([]float64{2, 2, 60, 2, 2, 55, 2})
	if r := CorrelatePeaks(a, b); r < 0.9 {
		t.Fatalf("correlation = %v for co-moving peaks", r)
	}
	c := satSeries([]float64{50, 1, 1, 1, 50, 1, 1})
	if r := CorrelatePeaks(a, c); r > 0.5 {
		t.Fatalf("correlation = %v for unrelated peaks", r)
	}
}

func TestAnalyzeEndToEnd(t *testing.T) {
	utilVals := make([]float64, 40)
	queueVals := make([]float64, 40)
	for i := range utilVals {
		utilVals[i] = 40
		queueVals[i] = 5
	}
	utilVals[1], utilVals[2] = 100, 100
	queueVals[1], queueVals[2] = 400, 500
	util := satSeries(utilVals)
	queue := satSeries(queueVals)
	vlrt := stats.NewSeries(50 * time.Millisecond)
	vlrt.Incr(80 * time.Millisecond)
	rep := Analyze(util, queue, vlrt, 95, 50*time.Millisecond, time.Second, 50*time.Millisecond)
	if len(rep.Saturations) != 1 {
		t.Fatalf("saturations = %+v", rep.Saturations)
	}
	if len(rep.QueuePeaks) == 0 {
		t.Fatalf("no queue peaks found")
	}
	if rep.VLRTAttribution != 1 {
		t.Fatalf("attribution = %v", rep.VLRTAttribution)
	}
}

func TestMergeSpans(t *testing.T) {
	spans := []Span{
		{Start: 500 * time.Millisecond, End: 600 * time.Millisecond},
		{Start: 100 * time.Millisecond, End: 200 * time.Millisecond},
		{Start: 180 * time.Millisecond, End: 250 * time.Millisecond}, // overlaps first
		{Start: 260 * time.Millisecond, End: 300 * time.Millisecond}, // within slack
	}
	got := MergeSpans(spans, 20*time.Millisecond)
	if len(got) != 2 {
		t.Fatalf("merged = %+v", got)
	}
	if got[0].Start != 100*time.Millisecond || got[0].End != 300*time.Millisecond {
		t.Fatalf("merged[0] = %+v", got[0])
	}
	if got[1].Start != 500*time.Millisecond {
		t.Fatalf("merged[1] = %+v", got[1])
	}
	if MergeSpans(nil, 0) != nil {
		t.Fatal("nil input not nil output")
	}
	// Input untouched.
	if spans[0].Start != 500*time.Millisecond {
		t.Fatal("input mutated")
	}
}
