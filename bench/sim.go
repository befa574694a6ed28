package main

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"

	"millibalance/internal/adapt"
	"millibalance/internal/admission"
	"millibalance/internal/cluster"
	"millibalance/internal/probe"
	"millibalance/internal/stats"
	"millibalance/internal/telemetry"
)

// The simulator workloads run cluster.PaperConfig() — 4 web / 4 app /
// 1 DB, 70 000 closed-loop clients, RUBBoS read/write mix, app-tier
// writeback armed — for simSeconds of simulated time, as fresh
// back-to-back repetitions until the measured wall time is used up. Every
// repetition of a run uses the same seed, so all must produce the same
// digest. A pass of the reference kernel (reference.go) runs between
// repetitions and tells how much the host slowed each one.
const (
	simSeconds      = 18 * time.Second
	simSecondsShort = 7 * time.Second // one flush on two app servers: still shows the phenomenon
	simMinReps      = 3
)

// simConfig builds the workload's cluster configuration.
//
// sim_paper is the paper's own unstable configuration (total_request +
// original_get_endpoint) with every control plane off, so sim, server,
// resource, netmodel, lb, workload and metrics/stats do all the work.
// sim_full is the same engine used differently: prequal +
// modified_get_endpoint with probing, admission, the adapt ladder,
// telemetry, events and spans all armed, so a gain in a plane shows here
// and must read "no change" on sim_paper. aimd, not gradient: the
// gradient limiter sheds about a tenth of the requests on this otherwise
// healthy configuration, which is a finding for a later issue, not a
// benchmark workload.
func simConfig(workload string, seed uint64, short bool) cluster.Config {
	cfg := cluster.PaperConfig()
	cfg.Seed1 = seed
	cfg.Duration = simSeconds
	if short {
		cfg.Duration = simSecondsShort
	}
	if workload == wSimFull {
		cfg.Policy = "prequal"
		cfg.Mechanism = "modified_get_endpoint"
		cfg.Probe = &probe.Config{}
		cfg.Admission = &admission.Config{
			Limiter: admission.LimiterAIMD, CoDel: true, LIFO: true,
			MaxWait: 400 * time.Millisecond,
		}
		cfg.Adaptive = &adapt.Config{}
		cfg.Telemetry = &telemetry.Config{Interval: 50 * time.Millisecond}
		cfg.EventCapacity = 65536
		cfg.SpanCapacity = 4096
	}
	return cfg
}

// simRep is one repetition: cluster.New then Cluster.Run.
type simRep struct {
	newS, runS float64
	use        usage // whole-process delta over New + Run
	res        *cluster.Results
	fired      uint64
	digest     uint64
	probeDepth float64
	slow       float64       // host slowdown beside this repetition (reference.go)
	newAt      time.Duration // offsets from the run's start, for the spans
	runAt      time.Duration
}

func runSimRep(cfg cluster.Config, since time.Time) simRep {
	runtime.GC() // every repetition starts from a collected heap
	u0 := readUsage()
	t0 := time.Now()
	c := cluster.New(cfg)
	t1 := time.Now()
	res := c.Run()
	t2 := time.Now()
	u1 := readUsage()
	rep := simRep{
		newS: t1.Sub(t0).Seconds(), runS: t2.Sub(t1).Seconds(),
		use: u1.sub(u0), res: res, fired: c.Eng.Fired(),
		newAt: t0.Sub(since), runAt: t1.Sub(since),
	}
	rep.digest = simDigest(res, rep.fired)
	if pools := c.Pools(); pools != nil {
		for _, a := range c.Apps {
			rep.probeDepth += float64(pools.Depth(a.Name())) / float64(len(c.Apps))
		}
	}
	return rep
}

// simDigest hashes what a run computed: issued, completed, failures, VLRT
// count, mean, p99, events fired and per-server served counts. It must be
// identical across repetitions and across runs of the same commit and
// seed. The low 48 bits are reported so the value survives a float64.
func simDigest(res *cluster.Results, fired uint64) uint64 {
	h := fnv.New64a()
	r := res.Responses
	fmt.Fprintf(h, "%d %d %d %d %d %d %d", res.Issued, r.Total(), r.Failures(), r.VLRTCount(),
		r.Mean(), r.Quantile(0.99), fired)
	for _, tier := range [][]*cluster.ServerStats{res.Webs, res.Apps, {res.DB}} {
		for _, s := range tier {
			fmt.Fprintf(h, " %s=%d", s.Name, s.Served)
		}
	}
	return h.Sum64() & (1<<48 - 1)
}

// histQuantileUs is the q-quantile of a response-time histogram in
// microseconds, interpolated linearly inside the bucket that holds it.
// Histogram.Quantile answers with a bucket bound (1.6 % steps), which
// reads identically for every seed; the interpolated value is as
// deterministic but moves with the inputs.
func histQuantileUs(h *stats.Histogram, q float64) float64 {
	rank := q * float64(h.Count())
	seen := 0.0
	for _, b := range h.Buckets() {
		if c := float64(b.Count); seen+c >= rank {
			inside := (rank - seen) / c
			return (float64(b.Lower) + inside*float64(b.Upper-b.Lower)) / float64(time.Microsecond)
		}
		seen += float64(b.Count)
	}
	return float64(h.Max()) / float64(time.Microsecond)
}

// refSlowdown runs the reference kernel from a collected heap and returns
// its time over its nominal time.
func refSlowdown() float64 {
	runtime.GC()
	return refPass().Seconds() / refPassNominalS
}

// simReps runs repetitions, a reference pass between each two, until the
// measured time is used. Only the first repetition keeps its Results: the
// others are identical by digest and would only grow the heap the next
// one collects.
func simReps(cfg cluster.Config, since time.Time, measured time.Duration, minReps int) []simRep {
	var reps []simRep
	before := refSlowdown()
	for begin := time.Now(); len(reps) < minReps || time.Since(begin) < measured; {
		r := runSimRep(cfg, since)
		after := refSlowdown()
		r.slow = (before + after) / 2
		before = after
		if len(reps) > 0 {
			r.res = nil
		}
		reps = append(reps, r)
	}
	return reps
}

func served(tier []*cluster.ServerStats) (n uint64) {
	for _, s := range tier {
		n += s.Served
	}
	return n
}

func runSim(o options, rep *report) error {
	cfg := simConfig(o.workload, o.seed, o.short)
	rep.Params = map[string]any{
		"config": "cluster.PaperConfig", "web": cfg.NumWeb, "app": cfg.NumApp, "db": 1, "clients": cfg.Clients,
		"simulated_seconds": cfg.Duration.Seconds(), "policy": cfg.Policy, "mechanism": cfg.Mechanism,
		"planes_armed": o.workload == wSimFull, "loop": "closed, 7 s think time", "slo_ms": 1000,
		"repetitions": "fresh back-to-back until the measured time is used, same seed",
	}
	measured := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		measured /= 2
	}
	minReps := simMinReps
	if o.short {
		minReps = 2
	}

	var reps []simRep
	_ = rep.timed("measure", func() error {
		reps = simReps(cfg, rep.start, measured, minReps)
		return nil
	})
	first := reps[0]
	for i, r := range reps {
		if r.digest != first.digest {
			return fmt.Errorf("repetition %d produced digest %012x, repetition 0 produced %012x: the simulator is not deterministic", i, r.digest, first.digest)
		}
	}
	rr := first.res.Responses
	total := float64(rr.Total())
	vlrtShare := float64(rr.VLRTCount()) / total
	switch o.workload {
	case wSimPaper:
		if vlrtShare < 0.01 {
			return fmt.Errorf("sim_paper VLRT share %.5f < 0.01: the paper's phenomenon is gone", vlrtShare)
		}
	case wSimFull:
		if vlrtShare > 0.001 || first.res.AdmissionSheds != 0 {
			return fmt.Errorf("sim_full VLRT share %.5f (want <= 0.001), %d sheds (want 0): the remedy no longer suppresses the phenomenon", vlrtShare, first.res.AdmissionSheds)
		}
	}

	// Time-like numbers are divided by the slowdown the reference saw
	// beside each repetition, then the median over repetitions is taken.
	var newS, runS, alloc, slow, rawRun []float64
	for _, r := range reps {
		newS = append(newS, r.newS/r.slow)
		runS = append(runS, r.runS/r.slow)
		alloc = append(alloc, float64(r.use.totalAlloc))
		slow = append(slow, r.slow)
		rawRun = append(rawRun, r.runS)
	}
	rep.Raw["rep_run_s"], rep.Raw["rep_slowdown"] = rawRun, slow
	n := len(reps)
	// A modelled failure is an operation that failed; VLRT requests and
	// failures both miss the 1 s limit (a failure slower than 1 s is
	// subtracted twice, which errs on the strict side).
	failures := int64(rr.Failures())
	within := total - float64(rr.VLRTCount()) - float64(failures)
	rep.Attempted = int64(n) * int64(rr.Total())
	rep.Failed = int64(n) * failures
	rep.set("setup_s", median(newS), n)
	rep.set("ops_per_s", total/median(runS), n)
	rep.set("lat_p50_us", histQuantileUs(rr.Histogram(), 0.5), int(rr.Total()))
	rep.set("slo_share", within/total, int(rr.Total()))
	rep.set("alloc_bytes_per_op", median(alloc)/total, n)
	// Known without tracing: the digest -compare checks for determinism,
	// and the uncorrected speed of the fastest repetition.
	rep.set("model.digest", float64(first.digest), n)
	rep.set("sim.s_per_wall_s", cfg.Duration.Seconds()/slices.Min(rawRun), n)
	rep.set("ref.slowdown", median(slow), n)
	if o.trace {
		return traceSim(o, rep, cfg, median(runS), first.digest)
	}
	return nil
}

// traceSim is the traced run: one extra repetition under a CPU profile
// with spans sim.new and sim.run, the counts read from its Results, and
// the layer micro-timings multiplied by those counts.
func traceSim(o options, rep *report, cfg cluster.Config, untracedRunS float64, digest uint64) error {
	return rep.timed("trace", func() error {
		if err := os.MkdirAll(o.dir, 0o755); err != nil {
			return err
		}
		profPath := filepath.Join(o.dir, fmt.Sprintf("%s-seed%d.cpu.pprof", o.workload, o.seed))
		prof, err := os.Create(profPath)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(prof); err != nil {
			_ = prof.Close()
			return err
		}
		before := refSlowdown()
		r := runSimRep(cfg, rep.start)
		pprof.StopCPUProfile()
		r.slow = (before + refSlowdown()) / 2
		tracedRunS := r.runS / r.slow
		if err := prof.Close(); err != nil {
			return err
		}
		if r.digest != digest {
			return fmt.Errorf("traced repetition produced digest %012x, untraced %012x", r.digest, digest)
		}
		newEnd := r.newAt + time.Duration(r.newS*float64(time.Second))
		runEnd := r.runAt + time.Duration(r.runS*float64(time.Second))
		spanPath, err := writeSpans(o.dir, fmt.Sprintf("%s-seed%d.spans.jsonl", o.workload, o.seed), []span{
			{Name: "sim.repetition", ID: 1, StartNs: int64(r.newAt), EndNs: int64(runEnd)},
			{Name: "sim.new", ID: 2, Parent: 1, StartNs: int64(r.newAt), EndNs: int64(newEnd)},
			{Name: "sim.run", ID: 3, Parent: 1, StartNs: int64(r.runAt), EndNs: int64(runEnd)},
		})
		if err != nil {
			return err
		}
		rep.Artifacts = append(rep.Artifacts, spanPath, profPath)

		res, rr := r.res, r.res.Responses
		completed := float64(rr.Total())
		runNs := r.runS * 1e9
		rep.set("sim.events_fired", float64(r.fired), 0)
		rep.set("sim.ns_per_event", runNs/float64(r.fired), int(r.fired))
		rep.set("workload.issued", float64(res.Issued), 0)
		rep.set("workload.completed", completed, 0)
		rep.set("workload.events_per_req", float64(r.fired)/completed, int(rr.Total()))
		appServed := served(res.Apps)
		rep.set("lb.dispatches", float64(appServed+res.Rejects), 0)
		rep.set("lb.rejects", float64(res.Rejects), 0)
		rep.set("netmodel.drops", float64(res.Drops), 0)
		rep.set("netmodel.retransmits", float64(res.Retransmits), 0)
		rep.set("netmodel.giveups", float64(res.GiveUps), 0)
		rep.set("server.web_served", float64(served(res.Webs)), 0)
		rep.set("server.app_served", float64(appServed), 0)
		rep.set("server.db_served", float64(res.DB.Served), 0)
		rep.set("model.vlrt_share", float64(rr.VLRTCount())/completed, int(rr.Total()))
		rep.set("model.rt_mean_ms", float64(rr.Mean())/float64(time.Millisecond), int(rr.Total()))
		rep.set("model.rt_p99_ms", float64(rr.Quantile(0.99))/float64(time.Millisecond), int(rr.Total()))
		rep.set("model.failures", float64(rr.Failures()), 0)
		rep.setProcessMetrics(r.use, int64(rr.Total()))
		rep.set("trace.overhead_p50_us", (tracedRunS-untracedRunS)*1e6/completed, 1)
		rep.set("trace.overhead_share", (tracedRunS-untracedRunS)/untracedRunS, 1)

		// The planes: what they did, read from Results.
		rep.set("admission.sheds", float64(res.AdmissionSheds), 0)
		if len(res.Admission) > 0 {
			limit := 0
			for _, s := range res.Admission {
				limit += s.Limit
			}
			rep.set("admission.limit_final", float64(limit)/float64(len(res.Admission)), len(res.Admission))
		}
		rep.set("probe.pool_depth", r.probeDepth, 0)
		if res.Timeline != nil {
			samples := 0
			for _, tk := range res.Timeline.Tracks() {
				samples += tk.Len()
			}
			rep.set("telemetry.samples", float64(samples), 0)
		}
		if res.Events != nil {
			rep.set("obs.events", float64(res.Events.Appended()), 0)
		}
		if res.Adapt != nil {
			rep.set("adapt.decisions", float64(res.Adapt.Appended()), 0)
		}
		detected := 0
		for _, spans := range res.Online {
			detected += len(spans)
		}
		rep.set("mbneck.detected", float64(detected), 0)

		rep.setSimMicroTimings(cfg.Policy, cfg.Mechanism, o.workload == wSimFull)
		rep.set("sim.engine_share", float64(r.fired)*rep.Metrics["sim.schedule_fire_deep_ns"].Value/runNs, 0)
		rep.set("lb.share", float64(appServed+res.Rejects)*rep.Metrics["lb.dispatch_ns"].Value/runNs, 0)
		return nil
	})
}
