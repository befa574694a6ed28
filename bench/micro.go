package main

import (
	"time"

	"millibalance/internal/admission"
	"millibalance/internal/httpcluster"
	"millibalance/internal/lb"
	"millibalance/internal/metrics"
	"millibalance/internal/obs"
	"millibalance/internal/probe"
	"millibalance/internal/sim"
	"millibalance/internal/stats"
	"millibalance/internal/workload"
)

// Micro-timings of single layer operations, taken in the traced run
// through the layers' public functions. Multiplied by the counts a run
// reports they give each layer's estimated share of the run; on their own
// they are the "ns/op" numbers the repository used to stop at.

const microIters = 200000

// steadyPools returns probe pools whose samples never expire, so the
// selection path is timed without probing I/O.
func steadyPools(now func() time.Duration, names ...string) *probe.Pools {
	pools := probe.NewPools(probe.Config{TTL: time.Hour, ReuseBudget: 1 << 30}, now)
	for i, name := range names {
		pools.Observe(name, float64(i+1), time.Duration(i+1)*time.Millisecond)
	}
	return pools
}

func scheduleFireNs(standing int) float64 {
	e := sim.NewEngine(1, 2)
	fn := func() {}
	for i := 0; i < standing; i++ {
		e.Schedule(time.Hour, fn)
	}
	return timeLoop(microIters, func() {
		e.Schedule(time.Microsecond, fn)
		e.Step()
	})
}

// lbDispatchNs times lb.Balancer.Dispatch plus done over four candidates
// with the workload's policy and mechanism.
func lbDispatchNs(policyName, mechName string) float64 {
	e := sim.NewEngine(1, 2)
	names := []string{"tomcat1", "tomcat2", "tomcat3", "tomcat4"}
	cands := make([]*lb.Candidate, len(names))
	for i, n := range names {
		cands[i] = lb.NewCandidate(n, sim.NewPool(endpointsPer))
	}
	policy, _ := lb.PolicyByName(policyName)
	if pq, ok := policy.(*lb.Prequal); ok {
		pq.AttachPools(steadyPools(e.Now, names...))
	}
	mech, _ := lb.MechanismByName(mechName, e)
	bal := lb.New(e, policy, mech, cands, lb.Config{})
	info := lb.RequestInfo{RequestBytes: 400, ResponseBytes: 4000}
	send := func(_ *lb.Candidate, done func()) { done() }
	reject := func() {}
	return timeLoop(microIters, func() { bal.Dispatch(info, send, reject) })
}

// setSimMicroTimings reports the simulator-side layer timings. planes
// says whether the workload arms the control and observation planes;
// their timings stay 0 on a workload that never enters them.
func (r *report) setSimMicroTimings(policy, mech string, planes bool) {
	r.set("sim.schedule_fire_ns", scheduleFireNs(0), microIters)
	r.set("sim.schedule_fire_deep_ns", scheduleFireNs(512), microIters)
	r.set("lb.dispatch_ns", lbDispatchNs(policy, mech), microIters)

	rec := metrics.NewResponseRecorderHorizon(time.Hour)
	out := workload.Outcome{OK: true, ResponseTime: 3 * time.Millisecond}
	at := time.Duration(0)
	r.set("metrics.record_ns", timeLoop(microIters, func() {
		at += 10 * time.Microsecond
		rec.Record(at, out)
	}), microIters)
	var h stats.Histogram
	r.set("stats.hist_record_ns", timeLoop(microIters, func() { h.Record(3 * time.Millisecond) }), microIters)
	if planes {
		r.setPlaneMicroTimings()
	}
}

// setPlaneMicroTimings reports the shared planes' per-operation costs.
func (r *report) setPlaneMicroTimings() {
	g := admission.NewGate(admission.Config{Limiter: admission.LimiterAIMD, CoDel: true, LIFO: true}, 200)
	epoch := time.Now()
	g.SetClock(func() time.Duration { return time.Since(epoch) })
	r.set("admission.gate_ns", timeLoop(microIters, func() {
		if g.TryAcquire(admission.Interactive) {
			g.Release(time.Since(epoch), time.Millisecond, true)
		}
	}), microIters)

	pools := steadyPools(func() time.Duration { return time.Since(epoch) }, "a")
	i := 0
	r.set("probe.observe_ns", timeLoop(microIters, func() {
		i++
		pools.Observe("a", float64(i%8), time.Millisecond)
	}), microIters)

	tr := obs.NewTracer(4096)
	var id uint64
	r.set("obs.span_ns", timeLoop(microIters, func() {
		id++
		now := time.Duration(id) * time.Microsecond
		sp := tr.Start(id, now)
		sp.Enter(obs.StageWebThread, now)
		sp.Exit(obs.StageWebThread, now+time.Microsecond)
		tr.Finish(sp, now+time.Microsecond, true)
	}), microIters)
}

// setHTTPMicroTimings reports the wall-clock balancer's round trips with
// the workload's policy over four backends. The plane timings ride along
// only where the workload arms the planes (prequal implies all of them
// here).
func (r *report) setHTTPMicroTimings(policy httpcluster.Policy) {
	backends := make([]*httpcluster.Backend, 4)
	names := []string{"app1", "app2", "app3", "app4"}
	for i, n := range names {
		backends[i] = httpcluster.NewBackend(n, "http://unused", endpointsPer)
	}
	bal := httpcluster.NewBalancer(policy, httpcluster.MechanismModified, backends, httpcluster.Config{StickySessions: true})
	if policy == httpcluster.PolicyPrequal {
		epoch := time.Now()
		bal.SetProbePools(steadyPools(func() time.Duration { return time.Since(epoch) }, names...), nil)
	}
	r.set("httpcluster.acquire_release_ns", timeLoop(microIters, func() {
		if _, rel, err := bal.Acquire(128); err == nil {
			rel.Done(256)
		}
	}), microIters)
	i := 0
	r.set("httpcluster.acquire_session_ns", timeLoop(microIters, func() {
		i++
		if _, rel, err := bal.AcquireSession(sessionIDs[i%len(sessionIDs)], 128); err == nil {
			rel.Done(256)
		}
	}), microIters)
	if policy == httpcluster.PolicyPrequal {
		r.setPlaneMicroTimings()
	}
}
