package cluster

import (
	"runtime"
	"testing"
	"time"
)

// mallocsFor assembles and runs cfg and returns the heap objects the
// whole thing allocated and the requests it completed.
func mallocsFor(cfg Config) (mallocs, completed uint64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res := Run(cfg)
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, res.Responses.Total()
}

// TestAllocationBudget guards the request path's allocation budget at
// paper scale. A request's walk used to cost 51 heap objects — a closure
// per wait, a timer handle per CPU burst, a fresh request per issue —
// and more than half of a run's CPU went to allocating and collecting
// them; the walk now rides on recycled records and costs none, the
// 70 000 clients think in one calendar of three pointer-free arrays
// (their bytes are bounded in internal/workload, TestGroupStartBytes),
// and the planes' logs record into rings that own their storage. The
// event ring stores a decision as pointer-free rows in storage each
// chunk allocates once, so with every plane armed a request costs what
// it costs with none.
//
// Two bounds per configuration: the objects a short run allocates all
// told, per completed request — the benchmark's mem.mallocs_per_op; an
// object per client or per think timer would alone put it above 1.5 at
// this length — and the marginal objects per request between a shorter
// and a longer run, which is the walk itself and catches a single new
// allocation on it.
func TestAllocationBudget(t *testing.T) {
	// Measured 0.03 / 0.22 (paper) and 0.10 / 0.05 (full) objects per
	// request, total / marginal.
	const total, marginal = 1, 1
	cases := []struct {
		name string
		cfg  func(seed uint64) Config
	}{
		{"paper", goldenPaper},
		{"full", goldenFull},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			short, long := tc.cfg(1), tc.cfg(1)
			short.Duration, long.Duration = 3*time.Second, 6*time.Second
			m1, n1 := mallocsFor(short)
			m2, n2 := mallocsFor(long)
			perReq := float64(m1) / float64(n1)
			perAdded := float64(m2-m1) / float64(n2-n1)
			t.Logf("%.2f objects per request over a 3 s run, %.2f per additional request", perReq, perAdded)
			if perReq > total {
				t.Errorf("a 3 s run allocates %.1f objects per completed request, budget %d", perReq, total)
			}
			if perAdded > marginal {
				t.Errorf("each additional request allocates %.2f objects, budget %d: something on the walk allocates again",
					perAdded, marginal)
			}
		})
	}
}
