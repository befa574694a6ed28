package queueing

import (
	"math"
	"testing"
	"time"

	"millibalance/internal/resource"
	"millibalance/internal/sim"
)

func approx(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*math.Abs(want)
}

func TestErlangCKnownValues(t *testing.T) {
	// Textbook values: c=1 reduces to rho; c=2, a=1 → 1/3.
	if got := ErlangC(1, 0.5); !approx(got, 0.5, 1e-9) {
		t.Fatalf("ErlangC(1, 0.5) = %v", got)
	}
	if got := ErlangC(2, 1); !approx(got, 1.0/3, 1e-9) {
		t.Fatalf("ErlangC(2, 1) = %v", got)
	}
	// Heavier system: c=5, a=4 (rho=0.8): known ≈ 0.5541.
	if got := ErlangC(5, 4); !approx(got, 0.5541, 1e-3) {
		t.Fatalf("ErlangC(5, 4) = %v", got)
	}
}

func TestErlangCEdges(t *testing.T) {
	if got := ErlangC(2, 0); got != 0 {
		t.Fatalf("no load = %v", got)
	}
	if got := ErlangC(2, 2); got != 1 {
		t.Fatalf("saturated = %v", got)
	}
	if got := ErlangC(0, 1); !math.IsNaN(got) {
		t.Fatalf("invalid servers = %v", got)
	}
}

func TestMeanWaitAndResponse(t *testing.T) {
	// M/M/1 with λ=0.5, μ=1: W = ρ/(μ−λ) = 1, response 2.
	if got := MeanWait(1, 0.5, 1); !approx(got, 1, 1e-9) {
		t.Fatalf("MeanWait = %v", got)
	}
	if got := MeanResponse(1, 0.5, 1); !approx(got, 2, 1e-9) {
		t.Fatalf("MeanResponse = %v", got)
	}
	if got := MM1MeanResponse(0.5, 1); !approx(got, 2, 1e-9) {
		t.Fatalf("MM1MeanResponse = %v", got)
	}
	if got := MM1MeanQueueLength(0.5, 1); !approx(got, 1, 1e-9) {
		t.Fatalf("MM1MeanQueueLength = %v", got)
	}
	if !math.IsInf(MeanWait(1, 2, 1), 1) {
		t.Fatal("overload not infinite")
	}
}

// TestSimulatorMatchesMM1 validates the discrete-event engine and the
// CPU model against theory: Poisson arrivals into a single-core CPU
// with exponential service must reproduce the M/M/1 mean response time
// within sampling error.
func TestSimulatorMatchesMM1(t *testing.T) {
	eng := sim.NewEngine(11, 13)
	cpu := resource.NewCPU(eng, 1)

	const (
		mu     = 1000.0 // services per second → mean service 1ms
		lambda = 600.0  // arrivals per second → rho = 0.6
		n      = 60000
	)
	meanService := sim.Seconds(1 / mu)
	meanGap := sim.Seconds(1 / lambda)

	var total time.Duration
	completed := 0
	var arrive func(i int)
	arrive = func(i int) {
		if i >= n {
			return
		}
		start := eng.Now()
		cpu.Submit(eng.Exponential(meanService), func() {
			total += eng.Now() - start
			completed++
		})
		eng.Schedule(eng.Exponential(meanGap), func() { arrive(i + 1) })
	}
	eng.Schedule(0, func() { arrive(0) })
	eng.Run(10 * time.Hour)

	if completed != n {
		t.Fatalf("completed %d of %d", completed, n)
	}
	got := (total / time.Duration(n)).Seconds()
	want := MM1MeanResponse(lambda, mu) // 1/(1000-600) = 2.5ms
	if !approx(got, want, 0.05) {
		t.Fatalf("simulated M/M/1 mean response %.4fs, theory %.4fs", got, want)
	}
}

// TestSimulatorMatchesMMc repeats the validation for a 4-core CPU
// (M/M/4).
func TestSimulatorMatchesMMc(t *testing.T) {
	eng := sim.NewEngine(17, 19)
	const c = 4
	cpu := resource.NewCPU(eng, c)

	const (
		mu     = 500.0  // per-server service rate (2ms mean service)
		lambda = 1600.0 // rho = 0.8
		n      = 80000
	)
	meanService := sim.Seconds(1 / mu)
	meanGap := sim.Seconds(1 / lambda)

	var total time.Duration
	completed := 0
	var arrive func(i int)
	arrive = func(i int) {
		if i >= n {
			return
		}
		start := eng.Now()
		cpu.Submit(eng.Exponential(meanService), func() {
			total += eng.Now() - start
			completed++
		})
		eng.Schedule(eng.Exponential(meanGap), func() { arrive(i + 1) })
	}
	eng.Schedule(0, func() { arrive(0) })
	eng.Run(10 * time.Hour)

	if completed != n {
		t.Fatalf("completed %d of %d", completed, n)
	}
	got := (total / time.Duration(n)).Seconds()
	want := MeanResponse(c, lambda, mu)
	if !approx(got, want, 0.05) {
		t.Fatalf("simulated M/M/%d mean response %.5fs, theory %.5fs", c, got, want)
	}
}

// TestSimulatorMatchesTheoryUnderPoolLimit validates the worker-pool
// path too: a sim.Pool of c tokens in front of an infinite-core CPU is
// the same M/M/c station.
func TestSimulatorMatchesTheoryUnderPoolLimit(t *testing.T) {
	eng := sim.NewEngine(23, 29)
	const c = 2
	pool := sim.NewPool(c)

	const (
		mu     = 200.0 // 5ms mean service
		lambda = 280.0 // rho = 0.7
		n      = 50000
	)
	meanService := sim.Seconds(1 / mu)
	meanGap := sim.Seconds(1 / lambda)

	var total time.Duration
	completed := 0
	var arrive func(i int)
	arrive = func(i int) {
		if i >= n {
			return
		}
		start := eng.Now()
		pool.Acquire(sim.Func(func() {
			eng.Schedule(eng.Exponential(meanService), func() {
				total += eng.Now() - start
				completed++
				pool.Release()
			})
		}))
		eng.Schedule(eng.Exponential(meanGap), func() { arrive(i + 1) })
	}
	eng.Schedule(0, func() { arrive(0) })
	eng.Run(10 * time.Hour)

	if completed != n {
		t.Fatalf("completed %d of %d", completed, n)
	}
	got := (total / time.Duration(n)).Seconds()
	want := MeanResponse(c, lambda, mu)
	if !approx(got, want, 0.05) {
		t.Fatalf("pool-limited station mean response %.5fs, theory %.5fs", got, want)
	}
}
