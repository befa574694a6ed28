package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of an ascending sample by linear
// interpolation between order statistics; 0 for an empty sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// topQuantile returns the highest of p99, p99.9 and p99.99 that still has
// at least ten samples beyond it (the choosing-metrics rule), falling
// back to p99 on a small sample.
func topQuantile(sorted []float64) float64 {
	for _, q := range []float64{0.9999, 0.999} {
		if float64(len(sorted))*(1-q) >= 10 {
			return quantile(sorted, q)
		}
	}
	return quantile(sorted, 0.99)
}

// usage is a whole-process resource reading; deltas of two readings
// bracket a measured interval.
type usage struct {
	at         time.Time
	totalAlloc uint64
	mallocs    uint64
	numGC      uint32
	sys        uint64
	userS      float64
	sysS       float64
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return usage{
		at:         time.Now(),
		totalAlloc: ms.TotalAlloc,
		mallocs:    ms.Mallocs,
		numGC:      ms.NumGC,
		sys:        ms.Sys,
		userS:      float64(ru.Utime.Nano()) / 1e9,
		sysS:       float64(ru.Stime.Nano()) / 1e9,
	}
}

// sub returns the interval u-prev (sys stays the later absolute value).
func (u usage) sub(prev usage) usage {
	return usage{
		at:         u.at,
		totalAlloc: u.totalAlloc - prev.totalAlloc,
		mallocs:    u.mallocs - prev.mallocs,
		numGC:      u.numGC - prev.numGC,
		sys:        u.sys,
		userS:      u.userS - prev.userS,
		sysS:       u.sysS - prev.sysS,
	}
}

func (u *usage) add(d usage) {
	u.totalAlloc += d.totalAlloc
	u.mallocs += d.mallocs
	u.numGC += d.numGC
	u.sys = d.sys
	u.userS += d.userS
	u.sysS += d.sysS
}

// setProcessMetrics reports the whole-process layer for an interval that
// completed ops operations.
func (r *report) setProcessMetrics(d usage, ops int64) {
	n := float64(ops)
	r.set("mem.total_alloc_mb", float64(d.totalAlloc)/(1<<20), 0)
	r.set("mem.mallocs_per_op", float64(d.mallocs)/n, int(ops))
	r.set("mem.gc_cycles", float64(d.numGC), 0)
	r.set("mem.sys_mb", float64(d.sys)/(1<<20), 0)
	r.set("cpu.user_s", d.userS, 0)
	r.set("cpu.sys_s", d.sysS, 0)
	r.set("cpu.us_per_op", (d.userS+d.sysS)*1e6/n, int(ops))
}

// timeLoop returns the fastest of three timings of n calls of fn, in
// nanoseconds per call: the micro-timings behind the per-layer shares.
func timeLoop(n int, fn func()) float64 {
	best := math.Inf(1)
	for round := 0; round < 3; round++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if ns := float64(time.Since(t0).Nanoseconds()) / float64(n); ns < best {
			best = ns
		}
	}
	return best
}
