package probe

import (
	"math/rand/v2"
	"testing"
	"time"
)

// handles resolves the named backends' handles, in order.
func handles(p *Pools, names []string) []Handle {
	hs := make([]Handle, len(names))
	for i, n := range names {
		hs[i] = p.Handle(n)
	}
	return hs
}

// pickAll is Pick with every named backend eligible.
func pickAll(p *Pools, names []string, rng *rand.Rand) int {
	return p.Pick(handles(p, names), 1<<len(names)-1, rng)
}

// seedHandlePools fills pools for four backends with distinct in-flight
// and latency readings at clock zero.
func seedHandlePools(t *testing.T) (*Pools, []string, []Handle) {
	t.Helper()
	p, _ := newTestPools(Config{TTL: time.Hour, ReuseBudget: 1 << 30, D: 3})
	names := []string{"a", "b", "c", "d"}
	for i, n := range names {
		p.Observe(n, float64(i+1), time.Duration(i+1)*time.Millisecond)
	}
	return p, names, handles(p, names)
}

// TestPickHandlesMatchesPick: a masked pick is the pick over the
// eligible handles alone — the same draws, the same choice — answered as
// an index into the full handle list.
func TestPickHandlesMatchesPick(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		p1, _, hs1 := seedHandlePools(t)
		p2, _, hs2 := seedHandlePools(t)
		r1, r2 := testRNG(), testRNG()
		for step := 0; step < trial+1; step++ {
			want := p1.Pick(hs1[1:], 0b111, r1) + 1
			got := p2.Pick(hs2, 0b1110, r2)
			if got != want {
				t.Fatalf("trial %d step %d: masked Pick = %d, Pick over the eligible handles = %d", trial, step, got, want)
			}
		}
	}
}

// TestPickHandlesMaskExcludes: a masked-out backend is never chosen no
// matter how attractive its samples are.
func TestPickHandlesMaskExcludes(t *testing.T) {
	p, _, hs := seedHandlePools(t)
	// Backend 0 ("a") has the lowest in-flight and latency — the sure
	// winner when eligible. Mask it out and it must never come back.
	rng := testRNG()
	for i := 0; i < 200; i++ {
		got := p.Pick(hs, 0b1110, rng)
		if got == 0 {
			t.Fatalf("iteration %d: chose masked-out candidate 0", i)
		}
		if got < 0 {
			t.Fatalf("iteration %d: no choice despite fresh samples", i)
		}
	}
	if got := p.Pick(hs, 0, rng); got != -1 {
		t.Fatalf("empty mask chose %d, want -1", got)
	}
}

// TestPickHandlesSurviveClear: Clear truncates pools but must not
// invalidate resolved handles — after reseeding, the same handles see
// the new samples.
func TestPickHandlesSurviveClear(t *testing.T) {
	p, names, hs := seedHandlePools(t)
	p.Clear()
	if got := p.Pick(hs, 1<<len(hs)-1, testRNG()); got != -1 {
		t.Fatalf("Pick over cleared pools = %d, want -1", got)
	}
	p.Observe(names[2], 1, time.Millisecond)
	for i := 0; i < 50; i++ {
		if got := p.Pick(hs, 1<<len(hs)-1, testRNG()); got != 2 {
			t.Fatalf("after reseed Pick = %d, want 2 (only fresh pool)", got)
		}
	}
}

// TestPickHandlesChargesReuse: every consultation is charged against the
// reuse budget, so the budget bounds how long one flattering sample can
// steer selection.
func TestPickHandlesChargesReuse(t *testing.T) {
	p, _ := newTestPools(Config{TTL: time.Hour, ReuseBudget: 3, D: 1})
	p.Observe("only", 1, time.Millisecond)
	hs := []Handle{p.Handle("only")}
	rng := testRNG()
	for i := 0; i < 2; i++ {
		if got := p.Pick(hs, 1, rng); got != 0 {
			t.Fatalf("pick %d = %d, want 0", i, got)
		}
	}
	// Third consultation spends the budget; the sample is dropped and
	// the next pick finds nothing.
	if got := p.Pick(hs, 1, rng); got != 0 {
		t.Fatalf("budget-spending pick = %d, want 0", got)
	}
	if got := p.Pick(hs, 1, rng); got != -1 {
		t.Fatalf("post-budget pick = %d, want -1", got)
	}
}
