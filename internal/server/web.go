package server

import (
	"millibalance/internal/admission"
	"millibalance/internal/lb"
	"millibalance/internal/netmodel"
	"millibalance/internal/obs"
	"millibalance/internal/resource"
	"millibalance/internal/sim"
	"millibalance/internal/workload"
)

// WebConfig configures a web (Apache-like) server.
type WebConfig struct {
	// Name identifies the server in metrics.
	Name string
	// Cores is the CPU core count.
	Cores int
	// Workers is the worker-thread limit (Apache MaxClients; 200 in the
	// paper's configuration).
	Workers int
	// AcceptBacklog is the listen queue capacity; connections arriving
	// with a full backlog are dropped and retransmitted by the client.
	AcceptBacklog int
	// ConnPoolSize is the endpoint pool per application server (mod_jk
	// connection_pool_size; 25 in the paper's configuration).
	ConnPoolSize int
	// Policy and Mechanism select the balancer behaviour; LB tunes the
	// 3-state machine.
	Policy    lb.Policy
	Mechanism lb.Mechanism
	LB        lb.Config
	// LinkLatency is the one-way latency to the application tier.
	LinkLatency sim.Time
	// LogBytesPerRequest is appended to the web server's own access log
	// per response; flushed by Writeback (the Apache-side
	// millibottleneck source of Fig. 2).
	LogBytesPerRequest int64
	// Writeback configures the web server's writeback daemon.
	Writeback resource.WritebackConfig
	// Admission, when non-nil, puts an overload-control gate in front
	// of the worker pool: requests pass its concurrency limiter before
	// competing for workers, wait in a bounded CoDel-judged queue when
	// the limit is reached, and are shed (an error response, not a
	// dropped SYN — the client does not retransmit) when the plane
	// refuses them. All gate activity runs on the engine clock.
	Admission *admission.Gate
	// Classify assigns each request a priority class when admission is
	// armed; nil classifies everything Interactive.
	Classify func(*workload.Request) admission.Class
}

// Web is the web tier server: it accepts client connections into a
// bounded backlog, runs each request on a worker thread, and forwards it
// to an application server chosen by its private mod_jk-style balancer.
// The worker thread stays occupied until the response (or rejection)
// goes back to the client — including any time the original get_endpoint
// mechanism spends polling a stalled backend, which is how queue
// amplification reaches this tier.
type Web struct {
	eng      *sim.Engine
	name     string
	cpu      *resource.CPU
	workers  *sim.Pool
	listener *netmodel.Listener
	balancer *lb.Balancer
	apps     []*App // by balancer candidate index
	wb       *resource.Writeback
	link     sim.Time
	logBytes int64
	adm      *admission.Gate
	admQ     *admission.Queue
	classify func(*workload.Request) admission.Class

	free sim.FreeList[flight]

	served uint64
	errors uint64
	sheds  uint64
}

// NewWeb returns a web server balancing across the given application
// servers.
func NewWeb(eng *sim.Engine, cfg WebConfig, apps []*App) *Web {
	if len(apps) == 0 {
		panic("server: NewWeb with no application servers")
	}
	if cfg.Policy == nil || cfg.Mechanism == nil {
		panic("server: NewWeb with nil policy or mechanism")
	}
	if cfg.Cores < 1 {
		cfg.Cores = 1
	}
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.ConnPoolSize < 1 {
		cfg.ConnPoolSize = 1
	}
	w := &Web{
		eng:      eng,
		name:     cfg.Name,
		cpu:      resource.NewCPU(eng, cfg.Cores),
		workers:  sim.NewPool(cfg.Workers),
		listener: netmodel.NewListener(cfg.AcceptBacklog),
		apps:     append([]*App(nil), apps...),
		link:     cfg.LinkLatency,
		logBytes: cfg.LogBytesPerRequest,
	}
	w.wb = resource.NewWriteback(eng, cfg.Writeback, w.cpu.Stall)
	w.wb.Start()
	if cfg.Admission != nil {
		w.adm = cfg.Admission
		w.admQ = admission.NewQueue(w.adm, eng.Now, func(d sim.Time, fn func()) { eng.Schedule(d, fn) })
		w.classify = cfg.Classify
		if w.classify == nil {
			w.classify = func(*workload.Request) admission.Class { return admission.Interactive }
		}
	}
	cands := make([]*lb.Candidate, 0, len(apps))
	for _, a := range apps {
		cands = append(cands, lb.NewCandidate(a.Name(), sim.NewPool(cfg.ConnPoolSize)))
	}
	w.balancer = lb.New(eng, cfg.Policy, cfg.Mechanism, cands, cfg.LB)
	return w
}

// Name returns the server name.
func (w *Web) Name() string { return w.name }

// CPU exposes the CPU for metrics sampling and stall injection.
func (w *Web) CPU() *resource.CPU { return w.cpu }

// Writeback exposes the writeback daemon.
func (w *Web) Writeback() *resource.Writeback { return w.wb }

// Balancer exposes the balancer for metrics (lb_value snapshots,
// dispatch-distribution hooks).
func (w *Web) Balancer() *lb.Balancer { return w.balancer }

// Served reports successfully answered requests.
func (w *Web) Served() uint64 { return w.served }

// Errors reports requests answered with an error (all backends
// unavailable).
func (w *Web) Errors() uint64 { return w.errors }

// Drops reports connections dropped at the accept queue.
func (w *Web) Drops() uint64 { return w.listener.Drops() }

// Admission exposes the overload-control gate (nil when disabled).
func (w *Web) Admission() *admission.Gate { return w.adm }

// AdmissionSheds reports requests refused by the admission plane.
func (w *Web) AdmissionSheds() uint64 { return w.sheds }

// QueuedRequests reports requests inside the server: waiting in the
// accept backlog plus held by worker threads.
func (w *Web) QueuedRequests() int { return w.listener.Len() + w.workers.InUse() }

// BacklogLen reports connections waiting in the accept queue.
func (w *Web) BacklogLen() int { return w.listener.Len() }

// ActiveWorkers reports worker threads currently occupied.
func (w *Web) ActiveWorkers() int { return w.workers.InUse() }

// Submit carries a request from its client into this web server over
// the lossy transport: the connection attempt is repeated on via's
// schedule for as long as the accept queue overflows, and the request
// fails when the schedule runs out. The request's Finish is called
// exactly once, whichever way the walk ends.
func (w *Web) Submit(req *workload.Request, via *netmodel.Retransmitter) {
	f := w.board(req)
	via.Transmit(&f.tx, req.Span, f)
}

// TryAccept is a single connection attempt without a transport. It
// reports false when the accept queue overflows, in which case the
// request was not taken and the caller may try again. With admission
// armed, the overload gate runs first: refused requests are shed with
// an error response (they report true — an explicit refusal, not a
// dropped SYN).
func (w *Web) TryAccept(req *workload.Request) bool {
	f := w.board(req)
	if w.admit(f) {
		return true
	}
	w.retire(f)
	return false
}

// board starts a flight for req, on a recycled record when one is free.
func (w *Web) board(req *workload.Request) *flight {
	f := w.free.Get()
	if f == nil {
		f = &flight{web: w}
	}
	f.stage, f.req, f.it, f.sp = stageTransit, req, req.Interaction, req.Span
	return f
}

// retire ends a flight. Its pointers are cleared so that a wait which
// wrongly still holds the record faults on its next step instead of
// walking the finished request — or the record's next one — further.
func (w *Web) retire(f *flight) {
	f.stage, f.req, f.it, f.sp, f.app = stageIdle, nil, nil, nil, nil
	w.free.Put(f)
}

// admit is one attempt to enter the server, through the overload gate
// when one is armed.
func (w *Web) admit(f *flight) bool {
	if w.adm == nil {
		return w.accept(f)
	}
	req := f.req
	cls := w.classify(req)
	if w.adm.TryAcquire(cls) {
		if w.accept(f) {
			req.AdmittedAt = w.eng.Now()
			return true
		}
		w.adm.Cancel()
		return false
	}
	now := w.eng.Now()
	if cls == admission.Background {
		// Background never queues: no headroom means shed now.
		w.adm.Drop(now, cls, admission.ReasonPriority)
		w.shed(f)
		return true
	}
	if w.admQ.Push(cls, func(admitted bool) { w.resumeQueued(f, admitted) }) {
		f.sp.Enter(obs.StageWebAcceptQueue, now)
		return true
	}
	w.adm.Drop(now, cls, admission.ReasonQueueFull)
	w.shed(f)
	return true
}

// accept places a request on a worker or the accept backlog — the
// admission-free path.
func (w *Web) accept(f *flight) bool {
	if w.workers.TryAcquire() {
		w.handle(f)
		return true
	}
	f.stage = stageBacklog
	if w.listener.Offer(f) {
		f.sp.Enter(obs.StageWebAcceptQueue, w.eng.Now())
		return true
	}
	f.stage = stageTransit
	return false
}

// resumeQueued completes an admission-queue wait: the queue either
// handed the request a concurrency slot or shed it (MaxWait or CoDel,
// already recorded by the queue).
func (w *Web) resumeQueued(f *flight, admitted bool) {
	if !admitted {
		w.shed(f)
		return
	}
	f.req.AdmittedAt = w.eng.Now()
	if !w.accept(f) {
		// Workers and backlog both full even though the limiter let us
		// through — shed rather than queue a second time.
		w.adm.Cancel()
		w.adm.Drop(w.eng.Now(), admission.Interactive, admission.ReasonQueueFull)
		w.shed(f)
	}
}

// shed answers a request the admission plane refused. The refusal is
// an immediate error response; the finish is deferred one engine event
// so the caller's span bookkeeping (retransmit-wait exit) lands first.
func (w *Web) shed(f *flight) {
	w.sheds++
	f.sp.Exit(obs.StageWebAcceptQueue, w.eng.Now())
	f.req.Web = w.name
	f.stage = stageShed
	w.eng.ScheduleEvent(0, f)
}

// fail ends a walk that never held a worker — shed by admission, or
// abandoned by the transport (its Web stays empty: it never reached a
// server) — with an error outcome.
func (w *Web) fail(f *flight) {
	req := f.req
	w.retire(f)
	req.Finish(workload.Outcome{
		OK:           false,
		ResponseTime: w.eng.Now() - req.IssuedAt,
		Retransmits:  req.Retransmits,
	})
}

// handle runs with a worker token held: the worker thread's CPU burst.
func (w *Web) handle(f *flight) {
	now := w.eng.Now()
	f.sp.Exit(obs.StageWebAcceptQueue, now)
	f.sp.Enter(obs.StageWebThread, now)
	f.stage, f.burstAt = stageWebCPU, now
	w.cpu.Run(sampleDemand(w.eng, f.it.WebDemand), f)
}

// dispatch hands the request to the balancer once the worker's burst
// is done. The worker stays occupied until forward or Rejected runs.
func (w *Web) dispatch(f *flight, frozen sim.Time) {
	f.spanBurst(obs.StageWebCPU, w.eng.Now(), frozen)
	f.stage = stageDispatch
	w.balancer.Start(&f.lb, lb.RequestInfo{
		RequestBytes:  f.it.RequestBytes,
		ResponseBytes: f.it.ResponseBytes,
		// Session identity (ignored unless the balancer has sticky
		// sessions enabled); +1 keeps client 0 distinguishable from
		// "no session".
		SessionID: uint64(f.req.ClientID) + 1,
		Span:      f.sp,
	}, f)
}

// forward sends the request over the link to the chosen app server.
func (w *Web) forward(f *flight, c *lb.Candidate) {
	f.req.Backend = c.Name()
	f.app = w.apps[c.Index()]
	f.sp.Add(obs.StageLink, 2*w.link) // forward + response hops
	f.stage = stageToApp
	w.eng.ScheduleEvent(w.link, f)
}

// receive takes the app server's response off the link.
func (w *Web) receive(f *flight) {
	w.balancer.Complete(&f.lb)
	w.respond(f, true)
}

// respond finishes the request toward the client and frees (or hands
// over) the worker thread.
func (w *Web) respond(f *flight, ok bool) {
	req, now := f.req, w.eng.Now()
	f.sp.Exit(obs.StageWebThread, now)
	req.Web = w.name
	if ok {
		w.served++
	} else {
		w.errors++
	}
	if w.logBytes > 0 {
		w.wb.AddDirty(w.logBytes)
	}
	// Finish is the last touch of the request: its record is recycled
	// before Finish returns.
	admittedAt := req.AdmittedAt
	w.retire(f)
	req.Finish(workload.Outcome{
		OK:           ok,
		ResponseTime: now - req.IssuedAt,
		Retransmits:  req.Retransmits,
	})
	// Hand the worker token to the oldest backlogged connection, if
	// any; otherwise release it.
	if !w.listener.Accept() {
		w.workers.Release()
	}
	// Free the admission slot last, after the worker handoff, so a
	// drained waiter finds the worker (or the backlog head) already
	// settled; the release feeds the observed admit→respond time to
	// the adaptive limiter.
	if w.adm != nil {
		w.adm.Release(now, now-admittedAt, ok)
	}
}
