package resource

import (
	"math"
	"testing"
	"time"

	"millibalance/internal/sim"
)

// The simulator's queueing must reproduce M/M/c theory before any of the
// paper's conclusions drawn from it can be trusted: a station with
// Poisson arrivals and exponential service has closed-form waiting
// times. The closed forms below are test helpers; the last three tests
// drive a CPU and a worker pool with one arrival loop and compare.

// erlangC returns the probability that an arriving customer must wait in
// an M/M/c system with offered load a = λ/μ (in Erlangs) and c servers:
// 1 for an overloaded system (a >= c), NaN for invalid inputs.
func erlangC(c int, a float64) float64 {
	if c < 1 || a < 0 {
		return math.NaN()
	}
	if a == 0 {
		return 0
	}
	if a >= float64(c) {
		return 1
	}
	b := 1.0 // Erlang B with 0 servers, then the Erlang-B recursion
	for k := 1; k <= c; k++ {
		b = a * b / (float64(k) + a*b)
	}
	rho := a / float64(c)
	return b / (1 - rho + rho*b)
}

// mmcWait returns the expected queueing delay (excluding service) in an
// M/M/c system with arrival rate lambda and per-server service rate mu,
// both in the same time unit; +Inf when overloaded.
func mmcWait(c int, lambda, mu float64) float64 {
	if c < 1 || lambda < 0 || mu <= 0 {
		return math.NaN()
	}
	a := lambda / mu
	if a >= float64(c) {
		return math.Inf(1)
	}
	return erlangC(c, a) / (float64(c)*mu - lambda)
}

// mmcResponse returns the expected response time (wait plus service).
func mmcResponse(c int, lambda, mu float64) float64 {
	return mmcWait(c, lambda, mu) + 1/mu
}

// mm1Response is the single-server special case: 1/(μ−λ).
func mm1Response(lambda, mu float64) float64 {
	if mu <= lambda {
		return math.Inf(1)
	}
	return 1 / (mu - lambda)
}

// mm1QueueLength is the expected number in an M/M/1 system: ρ/(1−ρ).
func mm1QueueLength(lambda, mu float64) float64 {
	if mu <= lambda {
		return math.Inf(1)
	}
	rho := lambda / mu
	return rho / (1 - rho)
}

func approx(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*math.Abs(want)
}

func TestErlangCKnownValues(t *testing.T) {
	// Textbook values: c=1 reduces to rho; c=2, a=1 → 1/3; c=5, a=4
	// (rho=0.8) ≈ 0.5541.
	for _, k := range []struct {
		c            int
		a, want, tol float64
	}{
		{1, 0.5, 0.5, 1e-9}, {2, 1, 1.0 / 3, 1e-9}, {5, 4, 0.5541, 1e-3},
	} {
		if got := erlangC(k.c, k.a); !approx(got, k.want, k.tol) {
			t.Fatalf("erlangC(%d, %v) = %v, want %v", k.c, k.a, got, k.want)
		}
	}
}

func TestErlangCEdges(t *testing.T) {
	if noLoad, saturated := erlangC(2, 0), erlangC(2, 2); noLoad != 0 || saturated != 1 {
		t.Fatalf("no load = %v, saturated = %v", noLoad, saturated)
	}
	if got := erlangC(0, 1); !math.IsNaN(got) {
		t.Fatalf("invalid servers = %v", got)
	}
}

func TestMeanWaitAndResponse(t *testing.T) {
	// M/M/1 with λ=0.5, μ=1: W = ρ/(μ−λ) = 1, response 2, one in system.
	for name, k := range map[string]struct{ got, want float64 }{
		"mmcWait":        {mmcWait(1, 0.5, 1), 1},
		"mmcResponse":    {mmcResponse(1, 0.5, 1), 2},
		"mm1Response":    {mm1Response(0.5, 1), 2},
		"mm1QueueLength": {mm1QueueLength(0.5, 1), 1},
	} {
		if !approx(k.got, k.want, 1e-9) {
			t.Fatalf("%s = %v, want %v", name, k.got, k.want)
		}
	}
	if !math.IsInf(mmcWait(1, 2, 1), 1) {
		t.Fatal("overload not infinite")
	}
}

// poissonStation feeds n Poisson arrivals at rate lambda (per second)
// into serve, which calls done when its request leaves, and returns the
// mean response time in seconds.
func poissonStation(t *testing.T, eng *sim.Engine, n int, lambda float64, serve func(done func())) float64 {
	t.Helper()
	meanGap := sim.Seconds(1 / lambda)
	var total time.Duration
	completed := 0
	var arrive func(i int)
	arrive = func(i int) {
		if i >= n {
			return
		}
		start := eng.Now()
		serve(func() {
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
	return (total / time.Duration(n)).Seconds()
}

// TestSimulatorMatchesMM1 validates the discrete-event engine and the
// CPU model against theory: Poisson arrivals into a single-core CPU
// with exponential service must reproduce the M/M/1 mean response time
// within sampling error.
func TestSimulatorMatchesMM1(t *testing.T) {
	eng := sim.NewEngine(11, 13)
	cpu := NewCPU(eng, 1)
	const mu, lambda = 1000.0, 600.0 // 1 ms mean service, rho = 0.6
	got := poissonStation(t, eng, 60000, lambda, func(done func()) {
		cpu.Submit(eng.Exponential(sim.Seconds(1/mu)), done)
	})
	if want := mm1Response(lambda, mu); !approx(got, want, 0.05) {
		t.Fatalf("simulated M/M/1 mean response %.4fs, theory %.4fs", got, want)
	}
}

// TestSimulatorMatchesMMc repeats the validation for a 4-core CPU
// (M/M/4).
func TestSimulatorMatchesMMc(t *testing.T) {
	eng := sim.NewEngine(17, 19)
	const c = 4
	cpu := NewCPU(eng, c)
	const mu, lambda = 500.0, 1600.0 // 2 ms mean service, rho = 0.8
	got := poissonStation(t, eng, 80000, lambda, func(done func()) {
		cpu.Submit(eng.Exponential(sim.Seconds(1/mu)), done)
	})
	if want := mmcResponse(c, lambda, mu); !approx(got, want, 0.05) {
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
	const mu, lambda = 200.0, 280.0 // 5 ms mean service, rho = 0.7
	got := poissonStation(t, eng, 50000, lambda, func(done func()) {
		pool.Acquire(sim.Func(func() {
			eng.Schedule(eng.Exponential(sim.Seconds(1/mu)), func() {
				done()
				pool.Release()
			})
		}))
	})
	if want := mmcResponse(c, lambda, mu); !approx(got, want, 0.05) {
		t.Fatalf("pool-limited station mean response %.5fs, theory %.5fs", got, want)
	}
}
