package metrics

import (
	"testing"
	"time"

	"millibalance/internal/resource"
	"millibalance/internal/sim"
	"millibalance/internal/workload"
)

func TestResponseRecorderCounters(t *testing.T) {
	r := NewResponseRecorder()
	// 90 fast, 5 medium, 5 VLRT.
	for i := 0; i < 90; i++ {
		r.Record(0, workload.Outcome{OK: true, ResponseTime: 3 * time.Millisecond})
	}
	for i := 0; i < 5; i++ {
		r.Record(0, workload.Outcome{OK: true, ResponseTime: 100 * time.Millisecond})
	}
	for i := 0; i < 5; i++ {
		r.Record(0, workload.Outcome{OK: true, ResponseTime: 1100 * time.Millisecond, Retransmits: 1})
	}
	if r.Total() != 100 {
		t.Fatalf("Total = %d", r.Total())
	}
	if r.VLRTCount() != 5 || r.VLRTPercent() != 5 {
		t.Fatalf("VLRT = %d (%v%%)", r.VLRTCount(), r.VLRTPercent())
	}
	if r.NormalPercent() != 90 {
		t.Fatalf("NormalPercent = %v", r.NormalPercent())
	}
	if r.Retransmits() != 5 {
		t.Fatalf("Retransmits = %d", r.Retransmits())
	}
	wantMean := (90*3 + 5*100 + 5*1100) * time.Millisecond / 100
	if r.Mean() != wantMean {
		t.Fatalf("Mean = %v, want %v", r.Mean(), wantMean)
	}
}

func TestResponseRecorderExactThresholds(t *testing.T) {
	r := NewResponseRecorder()
	r.Record(0, workload.Outcome{OK: true, ResponseTime: time.Second})             // exactly 1s → VLRT
	r.Record(0, workload.Outcome{OK: true, ResponseTime: 10 * time.Millisecond})   // exactly 10ms → not normal
	r.Record(0, workload.Outcome{OK: true, ResponseTime: 10*time.Millisecond - 1}) // just under → normal
	if r.VLRTCount() != 1 {
		t.Fatalf("VLRTCount = %d", r.VLRTCount())
	}
	if got := r.NormalPercent(); got < 33.3 || got > 33.4 {
		t.Fatalf("NormalPercent = %v", got)
	}
}

func TestResponseRecorderFailures(t *testing.T) {
	r := NewResponseRecorder()
	r.Record(0, workload.Outcome{OK: false, ResponseTime: 5 * time.Millisecond})
	if r.Failures() != 1 || r.Total() != 1 {
		t.Fatalf("Failures=%d Total=%d", r.Failures(), r.Total())
	}
}

func TestResponseRecorderSeries(t *testing.T) {
	r := NewResponseRecorder()
	r.Record(20*time.Millisecond, workload.Outcome{OK: true, ResponseTime: 2 * time.Millisecond})
	r.Record(70*time.Millisecond, workload.Outcome{OK: true, ResponseTime: 2 * time.Second})
	pit := r.PointInTime()
	if pit.At(0).Count != 1 || pit.At(0).Mean() != 2 {
		t.Fatalf("window 0 = %+v", pit.At(0))
	}
	if pit.At(1).Mean() != 2000 {
		t.Fatalf("window 1 mean = %v ms", pit.At(1).Mean())
	}
	vlrt := r.VLRTWindows()
	if vlrt.At(0).Count != 0 || vlrt.At(1).Count != 1 {
		t.Fatalf("vlrt windows = %v", vlrt.Counts())
	}
}

func TestPollerTicks(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	p := NewPoller(eng, 10*time.Millisecond)
	var at []sim.Time
	p.Add(func(now sim.Time) { at = append(at, now) })
	p.Start()
	eng.Run(35 * time.Millisecond)
	if len(at) != 3 {
		t.Fatalf("ticks at %v, want 3", at)
	}
	if at[0] != 10*time.Millisecond || at[2] != 30*time.Millisecond {
		t.Fatalf("ticks at %v", at)
	}
}

func TestPollerStop(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	p := NewPoller(eng, 10*time.Millisecond)
	n := 0
	p.Add(func(sim.Time) { n++ })
	p.Start()
	eng.Run(25 * time.Millisecond)
	p.Stop()
	eng.Run(100 * time.Millisecond)
	if n != 2 {
		t.Fatalf("ticks after Stop: %d", n)
	}
}

func TestPollerValidations(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("zero interval did not panic")
			}
		}()
		NewPoller(eng, 0)
	}()
	p := NewPoller(eng, time.Millisecond)
	p.Start()
	defer func() {
		if recover() == nil {
			t.Fatal("double Start did not panic")
		}
	}()
	p.Start()
}

func TestCPUUtilSampler(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	cpu := resource.NewCPU(eng, 2)
	s := NewCPUUtilSampler(cpu)
	// One core busy for the whole first 50ms window → 50% on 2 cores.
	cpu.Submit(50*time.Millisecond, func() {})
	p := NewPoller(eng, Window)
	p.Add(s.Sample)
	p.Start()
	eng.Run(100 * time.Millisecond)
	if got := s.Series().At(0).Mean(); got != 50 {
		t.Fatalf("window 0 util = %v%%, want 50", got)
	}
	if got := s.Series().At(1).Mean(); got != 0 {
		t.Fatalf("window 1 util = %v%%, want 0", got)
	}
	if avg := s.Average(); avg != 25 {
		t.Fatalf("Average = %v, want 25", avg)
	}
}

func TestCPUUtilSamplerSaturationDuringStall(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	cpu := resource.NewCPU(eng, 4)
	s := NewCPUUtilSampler(cpu)
	eng.Schedule(0, func() { cpu.Stall(50 * time.Millisecond) })
	p := NewPoller(eng, Window)
	p.Add(s.Sample)
	p.Start()
	eng.Run(50 * time.Millisecond)
	if got := s.Series().At(0).Mean(); got != 100 {
		t.Fatalf("stalled window util = %v%%, want 100", got)
	}
}

func TestGaugeSampler(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	v := 0.0
	g := NewGaugeSampler(func() float64 { return v })
	p := NewPoller(eng, 10*time.Millisecond)
	p.Add(g.Sample)
	p.Start()
	eng.Schedule(25*time.Millisecond, func() { v = 42 })
	eng.Run(60 * time.Millisecond)
	w := g.Series().At(0)
	if w.Max != 42 || w.Min != 0 {
		t.Fatalf("window = %+v", w)
	}
}

func TestGaugeSamplerNilReadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewGaugeSampler(nil)
}

func TestDistributionRecorder(t *testing.T) {
	d := NewDistributionRecorder([]string{"app0", "app1", "app2"}, 0)
	for i := 0; i < 8; i++ {
		d.Incr(1, 10*time.Millisecond)
	}
	d.Incr(2, 10*time.Millisecond)
	d.Incr(2, 60*time.Millisecond)
	keys := d.Keys()
	if len(keys) != 2 || keys[0] != "app1" || keys[1] != "app2" {
		t.Fatalf("Keys = %v", keys)
	}
	// A key joins Keys when its first event arrives, wherever it sits in
	// the constructor's list: the distribution figures print in this
	// order.
	d.Incr(0, 70*time.Millisecond)
	if keys = d.Keys(); len(keys) != 3 || keys[2] != "app0" {
		t.Fatalf("Keys after a late first event = %v", keys)
	}
	if d.Series("app1").At(0).Count != 8 {
		t.Fatalf("app1 window 0 = %d", d.Series("app1").At(0).Count)
	}
	if d.Series("missing") != nil {
		t.Fatal("missing key returned a series")
	}
}

func TestDistributionShare(t *testing.T) {
	d := NewDistributionRecorder([]string{"app1", "app2"}, 0)
	for i := 0; i < 9; i++ {
		d.Incr(0, 10*time.Millisecond)
	}
	d.Incr(1, 10*time.Millisecond)
	if got := d.Share("app1", 0, 50*time.Millisecond); got != 0.9 {
		t.Fatalf("Share = %v, want 0.9", got)
	}
	if got := d.Share("app1", 100*time.Millisecond, 200*time.Millisecond); got != 0 {
		t.Fatalf("Share in empty range = %v", got)
	}
}
