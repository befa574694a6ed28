package probe

import (
	"math/rand/v2"
	"testing"
	"time"
)

// fakeClock is a settable clock for pool tests.
type fakeClock struct{ t time.Duration }

func (c *fakeClock) now() time.Duration { return c.t }

func newTestPools(cfg Config) (*Pools, *fakeClock) {
	clk := &fakeClock{}
	return NewPools(cfg, clk.now), clk
}

func testRNG() *rand.Rand { return rand.New(rand.NewPCG(1, 2)) }

// TestPoolStalenessEviction: samples older than the TTL are evicted and
// never consulted — the property that makes a frozen backend disappear
// from prequal's consideration.
func TestPoolStalenessEviction(t *testing.T) {
	p, clk := newTestPools(Config{TTL: 100 * time.Millisecond})
	p.Observe("a", 3, time.Millisecond)
	clk.t = 50 * time.Millisecond
	p.Observe("a", 4, time.Millisecond)

	if got := p.Depth("a"); got != 2 {
		t.Fatalf("Depth = %d, want 2", got)
	}
	age, ok := p.Staleness("a")
	if !ok || age != 0 {
		t.Fatalf("Staleness = %v,%v, want 0,true", age, ok)
	}

	// Past the first sample's TTL but not the second's.
	clk.t = 120 * time.Millisecond
	if got := p.Depth("a"); got != 1 {
		t.Fatalf("Depth after partial expiry = %d, want 1", got)
	}
	if smp, ok := p.Peek("a"); !ok || smp.InFlight != 4 {
		t.Fatalf("Peek after partial expiry = %+v,%v, want in-flight 4", smp, ok)
	}

	// Past both TTLs: the pool is empty and Pick must refuse to choose.
	clk.t = time.Second
	if got := p.Depth("a"); got != 0 {
		t.Fatalf("Depth after full expiry = %d, want 0", got)
	}
	if _, ok := p.Peek("a"); ok {
		t.Fatal("Peek returned a stale sample")
	}
	if got := pickAll(p, []string{"a"}, testRNG()); got != -1 {
		t.Fatalf("Pick over stale pool = %d, want -1", got)
	}
}

// TestPoolReuseBudgetExhaustion: each Pick charges the consulted sample
// one reuse; after ReuseBudget consultations the sample is dropped, so
// a slow prober cannot serve one flattering sample forever.
func TestPoolReuseBudgetExhaustion(t *testing.T) {
	p, _ := newTestPools(Config{ReuseBudget: 3, TTL: time.Hour})
	p.Observe("a", 1, time.Millisecond)
	rng := testRNG()

	for i := 0; i < 3; i++ {
		if got := pickAll(p, []string{"a"}, rng); got != 0 {
			t.Fatalf("Pick #%d = %d, want 0", i, got)
		}
	}
	// Budget spent: the sample is gone.
	if got := p.Depth("a"); got != 0 {
		t.Fatalf("Depth after budget exhaustion = %d, want 0", got)
	}
	if got := pickAll(p, []string{"a"}, rng); got != -1 {
		t.Fatalf("Pick after budget exhaustion = %d, want -1", got)
	}
}

// TestPoolRemoveWorstOrdering: pool overflow evicts the sample
// reporting the heaviest backend state — highest in-flight, ties broken
// toward highest latency — never the freshest arrival.
func TestPoolRemoveWorstOrdering(t *testing.T) {
	p, _ := newTestPools(Config{PoolSize: 3, TTL: time.Hour})
	p.Observe("a", 5, time.Millisecond)
	p.Observe("a", 9, time.Millisecond)
	p.Observe("a", 1, time.Millisecond)
	p.Observe("a", 2, time.Millisecond) // overflow: 9 must go

	inflights := func() []float64 {
		p.mu.Lock()
		defer p.mu.Unlock()
		e := p.entries["a"]
		out := make([]float64, 0, len(e.samples))
		for _, s := range e.samples {
			out = append(out, s.inFlight)
		}
		return out
	}
	got := inflights()
	want := []float64{5, 1, 2}
	if len(got) != len(want) {
		t.Fatalf("pool = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pool = %v, want %v", got, want)
		}
	}

	// Ties on in-flight: the higher-latency sample goes first.
	p2, _ := newTestPools(Config{PoolSize: 2, TTL: time.Hour})
	p2.Observe("b", 4, 9*time.Millisecond)
	p2.Observe("b", 4, 2*time.Millisecond)
	p2.Observe("b", 1, time.Millisecond) // overflow: the 9 ms sample goes
	p2.mu.Lock()
	e := p2.entries["b"]
	for _, s := range e.samples {
		if s.latency == 9*time.Millisecond {
			p2.mu.Unlock()
			t.Fatal("tie-break kept the higher-latency sample")
		}
	}
	p2.mu.Unlock()
}

// TestPickHotColdSelection: cold backends (probed in-flight at or below
// the quantile threshold) win by lowest latency; when every sampled
// backend is hot the lowest in-flight wins.
func TestPickHotColdSelection(t *testing.T) {
	// Three backends, D covers all of them, threshold at the median.
	p, _ := newTestPools(Config{D: 3, HotQuantile: 0.5, TTL: time.Hour, ReuseBudget: 1 << 30})
	p.Observe("slow-cold", 1, 80*time.Millisecond)
	p.Observe("fast-cold", 2, 5*time.Millisecond)
	p.Observe("hot", 50, time.Millisecond)
	names := []string{"slow-cold", "fast-cold", "hot"}
	rng := testRNG()

	// Threshold = median in-flight (2): both cold backends qualify and
	// the faster one must win every time, regardless of sampling order.
	for i := 0; i < 20; i++ {
		if got := pickAll(p, names, rng); names[got] != "fast-cold" {
			t.Fatalf("Pick #%d = %s, want fast-cold", i, names[got])
		}
	}

	// All hot: lowest in-flight wins.
	p2, _ := newTestPools(Config{D: 2, HotQuantile: 0.5, TTL: time.Hour, ReuseBudget: 1 << 30})
	p2.Observe("busy", 40, time.Millisecond)
	p2.Observe("busier", 60, time.Millisecond)
	names2 := []string{"busy", "busier"}
	for i := 0; i < 20; i++ {
		if got := pickAll(p2, names2, rng); names2[got] != "busy" {
			t.Fatalf("all-hot Pick #%d = %s, want busy", i, names2[got])
		}
	}
}

// TestPickNeverChoosesStaleBackend: a backend with only aged-out
// samples is skipped even when its last reading was the most
// flattering — the millibottleneck counter trap, inverted.
func TestPickNeverChoosesStaleBackend(t *testing.T) {
	p, clk := newTestPools(Config{D: 2, TTL: 100 * time.Millisecond, ReuseBudget: 1 << 30})
	p.Observe("frozen", 0, time.Microsecond) // perfect-looking, then silent
	clk.t = 150 * time.Millisecond
	p.Observe("live", 30, 10*time.Millisecond)
	names := []string{"frozen", "live"}
	rng := testRNG()
	for i := 0; i < 50; i++ {
		got := pickAll(p, names, rng)
		if got == 0 {
			t.Fatalf("Pick #%d chose the frozen backend on stale data", i)
		}
		if got != 1 {
			t.Fatalf("Pick #%d = %d, want 1 (live)", i, got)
		}
	}
}

// TestObserveClearsOnClear: Clear drops every pooled sample, the
// reseeding step of a runtime policy swap.
func TestObserveClearsOnClear(t *testing.T) {
	p, _ := newTestPools(Config{TTL: time.Hour})
	p.Observe("a", 1, time.Millisecond)
	p.Observe("b", 2, time.Millisecond)
	p.Clear()
	if p.Depth("a") != 0 || p.Depth("b") != 0 {
		t.Fatal("Clear left samples behind")
	}
}
