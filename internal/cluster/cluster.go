package cluster

import (
	"fmt"
	"time"

	"millibalance/internal/adapt"
	"millibalance/internal/admission"
	"millibalance/internal/lb"
	"millibalance/internal/mbneck"
	"millibalance/internal/metrics"
	"millibalance/internal/netmodel"
	"millibalance/internal/obs"
	"millibalance/internal/planes"
	"millibalance/internal/probe"
	"millibalance/internal/resource"
	"millibalance/internal/server"
	"millibalance/internal/sim"
	"millibalance/internal/stats"
	"millibalance/internal/telemetry"
	"millibalance/internal/trace"
	"millibalance/internal/workload"
)

// ServerStats bundles one server's measurement series.
type ServerStats struct {
	// Name identifies the server.
	Name string
	// Queue is the sampled queued-request series (Fig. 2b and friends).
	Queue *stats.Series
	// CPU is the windowed utilization sampler (Fig. 2c, 5, 6b).
	CPU *metrics.CPUUtilSampler
	// IOWait is the sampled iowait saturation series in percent
	// (Fig. 2d): 100 while a flush is writing, else 0.
	IOWait *stats.Series
	// DirtyBytes is the sampled dirty-page size series (Fig. 2e).
	DirtyBytes *stats.Series
	// Served is the requests (or queries) completed by run end.
	Served uint64
}

// Results is everything one experiment run measured.
type Results struct {
	// Config echoes the run's configuration.
	Config Config
	// Responses aggregates client-observed outcomes.
	Responses *metrics.ResponseRecorder
	// Issued is how many requests clients issued.
	Issued uint64
	// Drops is connections dropped at web accept queues.
	Drops uint64
	// Retransmits is the total retry attempts the transport scheduled.
	Retransmits uint64
	// GiveUps is requests whose retransmission schedule was exhausted.
	GiveUps uint64
	// Webs, Apps and DB carry per-server series.
	Webs []*ServerStats
	Apps []*ServerStats
	DB   *ServerStats
	// WebTierQueue and AppTierQueue are tier-aggregated queue series.
	WebTierQueue *stats.Series
	AppTierQueue *stats.Series
	DBTierQueue  *stats.Series
	// Dispatch is the per-web-server workload-distribution recorder of
	// successful dispatches (keyed by app server name).
	Dispatch []*metrics.DistributionRecorder
	// Assign is the per-web-server routing-decision recorder: every
	// scheduler choice counts, including choices stuck in get_endpoint.
	// The paper's workload-distribution plots use this view.
	Assign []*metrics.DistributionRecorder
	// LBValues holds, per web server, the sampled lb_value series of
	// each candidate (Fig. 10b, 11b).
	LBValues []map[string]*stats.Series
	// Rejects is balancer-level dispatch rejections summed over webs.
	Rejects uint64
	// Trace is the access log (nil unless Config.TraceCapacity > 0).
	Trace *trace.Log
	// Spans is the request-lifecycle span ring (nil unless
	// Config.SpanCapacity > 0).
	Spans *obs.Tracer
	// Events is the observability event log: balancer decisions, state
	// transitions, rejects and online detections (nil unless
	// Config.EventCapacity > 0).
	Events *obs.EventLog
	// Online maps each server to the millibottleneck spans its streaming
	// detector confirmed during the run (empty unless
	// Config.EventCapacity > 0).
	Online map[string][]mbneck.Span
	// Adapt is the adaptive controller's decision log (nil unless
	// Config.Adaptive was set).
	Adapt *adapt.DecisionLog
	// AdaptState is the controller's final state (zero unless
	// Config.Adaptive was set).
	AdaptState adapt.State
	// Timeline is the fine-grained resource-timeline set (nil unless
	// Config.Telemetry was set): per-server queue depth, busy fraction,
	// frozen flag, dirty bytes and pool occupancy at the telemetry
	// interval.
	Timeline *telemetry.Timeline
	// Admission holds one final gate snapshot per web server (empty
	// unless Config.Admission was set).
	Admission []admission.Stats
	// AdmissionSheds is requests refused by the overload-control plane
	// summed over webs.
	AdmissionSheds uint64
	// Chains is the online correlator's ranked causal-chain reports, one
	// per millibottleneck the streaming detectors confirmed (empty
	// unless both Config.Telemetry and Config.EventCapacity were set).
	Chains []telemetry.Chain
}

// Cluster is an assembled, instrumented n-tier system ready to run.
type Cluster struct {
	Eng  *sim.Engine
	Webs []*server.Web
	Apps []*server.App
	DB   *server.DB

	cfg        Config
	group      *workload.Group
	openLoop   *workload.OpenLoop
	retrans    *netmodel.Retransmitter
	rec        *metrics.ResponseRecorder
	poller     *metrics.Poller
	accessLog  *trace.Log
	tracer     *obs.Tracer
	events     *obs.EventLog
	detectors  map[string]*obs.Detector
	adapt      *adapt.Controller
	timeline   *telemetry.Timeline
	telPoller  *metrics.Poller
	correlator *telemetry.Correlator
	planes     planes.Attachment
	prober     *probe.SimProber
	eventHooks []eventHook

	webStats []*ServerStats
	appStats []*ServerStats
	dbStats  *ServerStats
	tierWeb  *metrics.GaugeSampler
	tierApp  *metrics.GaugeSampler
	tierDB   *metrics.GaugeSampler
	dispatch []*metrics.DistributionRecorder
	assign   []*metrics.DistributionRecorder
	lbValues []map[string]*stats.Series
}

// New assembles a cluster from the config. It panics on an invalid
// config (use Config.Validate to check first).
func New(cfg Config) *Cluster {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.SampleInterval <= 0 {
		cfg.SampleInterval = 10 * time.Millisecond
	}
	if cfg.Adaptive != nil && cfg.EventCapacity <= 0 {
		// The controller feeds on the event log's detector stream.
		cfg.EventCapacity = 1 << 16
	}
	eng := sim.NewEngine(cfg.Seed1, cfg.Seed2)
	c := &Cluster{Eng: eng, cfg: cfg, planes: planes.New(eng.Now)}
	if cfg.EventCapacity > 0 {
		c.events = obs.NewEventLog(cfg.EventCapacity)
	}

	c.DB = server.NewDB(eng, server.DBConfig{Name: "mysql1", Cores: cfg.DBCores, Workers: cfg.DBWorkers})
	for i := 0; i < cfg.NumApp; i++ {
		wb := cfg.AppWriteback
		// Stagger flush cycles across the tier; servers that flush in
		// lockstep would stall the whole tier at once, which neither
		// the paper's testbed nor any real deployment exhibits.
		if wb.Interval > 0 && cfg.NumApp > 1 {
			wb.Phase = wb.Interval + wb.Interval*sim.Time(i)/sim.Time(cfg.NumApp)
		}
		c.Apps = append(c.Apps, server.NewApp(eng, server.AppConfig{
			Name:        fmt.Sprintf("tomcat%d", i+1),
			Cores:       cfg.AppCores,
			Workers:     cfg.AppWorkers,
			DBConns:     cfg.DBConns,
			LinkLatency: cfg.LinkLatency,
			Writeback:   wb,
		}, c.DB))
	}
	c.armProbing()
	policy := c.newPolicy(cfg.Policy)
	for i := 0; i < cfg.NumWeb; i++ {
		name := fmt.Sprintf("apache%d", i+1)
		mech, _ := lb.MechanismByName(cfg.Mechanism, eng)
		// One admission gate per web server, sized to its worker pool
		// and driven entirely by the engine clock so an armed run
		// still replays byte-identically.
		var gate *admission.Gate
		if cfg.Admission != nil {
			gate = c.planes.NewGate(*cfg.Admission, cfg.WebWorkers, c.events, name)
		}
		c.Webs = append(c.Webs, server.NewWeb(eng, server.WebConfig{
			Name:               name,
			Cores:              cfg.WebCores,
			Workers:            cfg.WebWorkers,
			AcceptBacklog:      cfg.WebBacklog,
			ConnPoolSize:       cfg.ConnPoolSize,
			Policy:             policy,
			Mechanism:          mech,
			LB:                 cfg.LB,
			LinkLatency:        cfg.LinkLatency,
			LogBytesPerRequest: cfg.WebLogBytes,
			Writeback:          cfg.WebWriteback,
			Admission:          gate,
		}, c.Apps))
	}

	c.retrans = netmodel.NewRetransmitter(eng, cfg.Retransmit)
	c.rec = metrics.NewResponseRecorderHorizon(cfg.Duration)
	if cfg.TraceCapacity > 0 {
		c.accessLog = trace.NewLog(cfg.TraceCapacity)
	}
	if cfg.SpanCapacity > 0 {
		c.tracer = obs.NewTracer(cfg.SpanCapacity)
	}
	c.detectors = make(map[string]*obs.Detector)
	onOutcome := func(req *workload.Request, o workload.Outcome) {
		c.rec.Record(eng.Now(), o)
		if c.adapt != nil {
			c.adapt.OnOutcome(eng.Now(), o.ResponseTime, o.OK)
		}
		// Finish closes the stages still open at completion (worker
		// occupancy on a reject path) and takes the span back for reuse:
		// the access log gets the breakdown it returns, never another
		// look at the span.
		stages := c.tracer.Finish(req.Span, eng.Now(), o.OK)
		req.Span = nil
		if c.accessLog != nil {
			entry := trace.Entry{
				Time:         eng.Now(),
				RequestID:    req.ID,
				ClientID:     req.ClientID,
				Interaction:  req.Interaction.Name,
				Web:          req.Web,
				Backend:      req.Backend,
				OK:           o.OK,
				ResponseTime: o.ResponseTime,
				Retransmits:  o.Retransmits,
			}
			if c.tracer != nil {
				b := stages // the entry keeps a heap copy; stages itself stays on the stack
				entry.Stages = &b
			}
			c.accessLog.Append(entry)
		}
	}
	if cfg.OpenLoopRate > 0 {
		c.openLoop = workload.NewOpenLoop(eng, workload.OpenLoopConfig{
			Rate:      cfg.OpenLoopRate,
			Mix:       cfg.Mix(),
			Clients:   cfg.Clients,
			OnOutcome: onOutcome,
		}, c.submit)
	} else {
		c.group = workload.NewGroup(eng, cfg.Clients, workload.ClientConfig{
			ThinkTime: cfg.ThinkTime,
			Mix:       cfg.Mix(),
			Burst:     cfg.Burst,
			OnOutcome: onOutcome,
		}, c.submit)
	}

	c.instrument()
	c.instrumentTelemetry()
	if cfg.Adaptive != nil {
		c.armAdaptive(*cfg.Adaptive)
	}
	return c
}

// webFor maps a client to its web server: contiguous blocks, as the
// paper's client nodes are wired to specific web servers.
func (c *Cluster) webFor(clientID int) *server.Web {
	per := (c.cfg.Clients + len(c.Webs) - 1) / len(c.Webs)
	idx := clientID / per
	if idx >= len(c.Webs) {
		idx = len(c.Webs) - 1
	}
	return c.Webs[idx]
}

// submit carries a request over the lossy transport to its web server.
func (c *Cluster) submit(req *workload.Request) {
	req.Span = c.tracer.Start(req.ID, c.Eng.Now())
	c.webFor(req.ClientID).Submit(req, c.retrans)
}

// instrument wires every sampler and hook. Every windowed series is
// preallocated for the configured run duration so the recording hot
// path never regrows a buffer mid-run.
func (c *Cluster) instrument() {
	horizon := c.cfg.Duration
	newSeries := func() *stats.Series { return stats.NewSeriesHorizon(metrics.Window, horizon) }
	c.poller = metrics.NewPoller(c.Eng, c.cfg.SampleInterval)
	for _, w := range c.Webs {
		w := w
		st := &ServerStats{
			Name:       w.Name(),
			CPU:        metrics.NewCPUUtilSamplerHorizon(w.CPU(), horizon),
			Queue:      newSeries(),
			IOWait:     newSeries(),
			DirtyBytes: newSeries(),
		}
		c.webStats = append(c.webStats, st)
		c.addServerSamplers(st, c.newDetector(st), func() (int, bool, int64) {
			return w.QueuedRequests(), w.Writeback().Flushing(), w.Writeback().DirtyBytes()
		})

		bal := w.Balancer()
		names := make([]string, len(bal.Candidates()))
		for i, cand := range bal.Candidates() {
			names[i] = cand.Name()
		}
		dist := metrics.NewDistributionRecorder(names, horizon)
		c.dispatch = append(c.dispatch, dist)
		bal.SetDispatchHook(func(cand *lb.Candidate) { dist.Incr(cand.Index(), c.Eng.Now()) })

		assign := metrics.NewDistributionRecorder(names, horizon)
		c.assign = append(c.assign, assign)
		// Each decision's candidate table is built in rows, the scratch
		// the event log copies before Append returns, against the table
		// this web registers once (nil, and inert, without a log).
		table := c.events.Table(w.Name(), names, lb.StateNames())
		var rows []obs.Row
		bal.SetAssignHook(func(cand *lb.Candidate) {
			assign.Incr(cand.Index(), c.Eng.Now())
			if table != nil {
				rows = bal.AppendRows(rows[:0], table)
				table.Append(c.Eng.Now(), cand.Index(), rows)
			}
		})
		if c.events != nil {
			bal.SetStateHook(func(cand *lb.Candidate, from, to lb.State) {
				c.events.Append(obs.Event{
					T:       c.Eng.Now(),
					Kind:    obs.KindState,
					Source:  w.Name(),
					Backend: cand.Name(),
					From:    from.String(),
					To:      to.String(),
				})
			})
			bal.SetRejectHook(func() {
				c.events.Append(obs.Event{T: c.Eng.Now(), Kind: obs.KindReject, Source: w.Name()})
			})
		}

		lbSeries := make(map[string]*stats.Series, len(c.Apps))
		for _, a := range c.Apps {
			lbSeries[a.Name()] = newSeries()
		}
		c.lbValues = append(c.lbValues, lbSeries)
		var snapBuf []lb.Snapshot
		c.poller.Add(func(now sim.Time) {
			snapBuf = bal.AppendSnapshot(snapBuf[:0])
			for _, snap := range snapBuf {
				lbSeries[snap.Name].Add(now, snap.LBValue)
			}
		})
	}
	for _, a := range c.Apps {
		a := a
		st := &ServerStats{
			Name:       a.Name(),
			CPU:        metrics.NewCPUUtilSamplerHorizon(a.CPU(), horizon),
			Queue:      newSeries(),
			IOWait:     newSeries(),
			DirtyBytes: newSeries(),
		}
		c.appStats = append(c.appStats, st)
		c.addServerSamplers(st, c.newDetector(st), func() (int, bool, int64) {
			return a.QueuedRequests(), a.Writeback().Flushing(), a.Writeback().DirtyBytes()
		})
	}
	c.dbStats = &ServerStats{
		Name:       c.DB.Name(),
		CPU:        metrics.NewCPUUtilSamplerHorizon(c.DB.CPU(), horizon),
		Queue:      newSeries(),
		IOWait:     newSeries(),
		DirtyBytes: newSeries(),
	}
	dbDet := c.newDetector(c.dbStats)
	c.poller.Add(func(now sim.Time) {
		queue := float64(c.DB.QueuedRequests())
		c.dbStats.Queue.Add(now, queue)
		dbDet.ObserveQueue(now, queue)
		c.dbStats.CPU.Sample(now)
	})

	c.tierWeb = metrics.NewGaugeSampler(func() float64 {
		total := 0
		for _, w := range c.Webs {
			total += w.QueuedRequests()
		}
		return float64(total)
	})
	c.tierApp = metrics.NewGaugeSampler(func() float64 {
		total := 0
		for _, a := range c.Apps {
			total += a.QueuedRequests()
		}
		return float64(total)
	})
	c.tierDB = metrics.NewGaugeSampler(func() float64 { return float64(c.DB.QueuedRequests()) })
	c.poller.Add(c.tierWeb.Sample)
	c.poller.Add(c.tierApp.Sample)
	c.poller.Add(c.tierDB.Sample)
}

// instrumentTelemetry arms the fine-grained resource-timeline sampler:
// one track per (server, signal), fed off the sim clock by a dedicated
// poller at the telemetry interval. Everything runs on the engine
// thread at deterministic instants — an armed run replays
// byte-identically, it just also records where the time went.
func (c *Cluster) instrumentTelemetry() {
	if c.cfg.Telemetry == nil {
		return
	}
	tcfg := *c.cfg.Telemetry
	if tcfg.Interval <= 0 {
		tcfg.Interval = metrics.Window
	}
	if tcfg.Capacity <= 0 && c.cfg.Duration > 0 {
		// Size rings to hold the whole run so offline correlation sees
		// every sample; endless runs keep the package default.
		tcfg.Capacity = int(c.cfg.Duration/tcfg.Interval) + 2
	}
	c.timeline = telemetry.NewTimeline(tcfg)
	s := telemetry.NewSampler(c.timeline)
	server := func(name string, cpu *resource.CPU, queued func() int) {
		s.Register(name, telemetry.SignalQueueDepth, func() float64 { return float64(queued()) })
		s.Register(name, telemetry.SignalBusyFrac, func() float64 {
			return float64(cpu.BusyCores()) / float64(cpu.Cores())
		})
		s.Register(name, telemetry.SignalFrozen, func() float64 {
			if cpu.Stalled() {
				return 1
			}
			return 0
		})
	}
	for _, w := range c.Webs {
		w := w
		server(w.Name(), w.CPU(), w.QueuedRequests)
		s.Register(w.Name(), telemetry.SignalDirtyBytes, func() float64 { return float64(w.Writeback().DirtyBytes()) })
		c.planes.GateGauges(s, w.Name(), w.Admission())
	}
	for _, a := range c.Apps {
		a := a
		server(a.Name(), a.CPU(), a.QueuedRequests)
		s.Register(a.Name(), telemetry.SignalDirtyBytes, func() float64 { return float64(a.Writeback().DirtyBytes()) })
		s.Register(a.Name(), telemetry.SignalConnPoolInUse, func() float64 { return float64(a.DBConnsInUse()) })
		c.planes.ProbeGauges(s, a.Name())
	}
	server(c.DB.Name(), c.DB.CPU(), c.DB.QueuedRequests)
	c.telPoller = metrics.NewPoller(c.Eng, sim.Time(tcfg.Interval))
	c.telPoller.Add(s.Sample)
	if c.events != nil {
		c.correlator = telemetry.NewCorrelator(c.timeline, telemetry.CorrelateConfig{})
		c.addEventHook(c.correlator.OnEvent, false)
	}
}

// eventHook is one subscriber of the cluster's event fan-out.
type eventHook struct {
	fn        func(obs.Event)
	decisions bool
}

// addEventHook subscribes fn to the event log's append stream, with the
// decisions only if decisions is set (obs.EventLog.SetAppendHook). The
// log supports a single hook, so the cluster owns a fan-out; hooks run
// in subscription order, on the engine thread, outside the log's lock.
func (c *Cluster) addEventHook(fn func(obs.Event), decisions bool) {
	if c.events == nil || fn == nil {
		return
	}
	c.eventHooks = append(c.eventHooks, eventHook{fn, decisions})
	decisions = false
	for _, h := range c.eventHooks {
		decisions = decisions || h.decisions
	}
	c.events.SetAppendHook(func(ev obs.Event) {
		for _, h := range c.eventHooks {
			if h.decisions || ev.Kind != obs.KindDecision {
				h.fn(ev)
			}
		}
	}, decisions)
}

// newDetector attaches a streaming millibottleneck detector to a
// server's utilization sampler when the event log is enabled; it
// returns nil (safe to use) otherwise.
func (c *Cluster) newDetector(st *ServerStats) *obs.Detector {
	if c.events == nil {
		return nil
	}
	det := obs.NewDetector(st.Name, obs.DetectorConfig{Window: metrics.Window}, c.events)
	st.CPU.OnSample = det.ObserveUtil
	c.detectors[st.Name] = det
	return det
}

// addServerSamplers registers the per-server gauge reads. det may be
// nil (detection disabled).
func (c *Cluster) addServerSamplers(st *ServerStats, det *obs.Detector, read func() (queue int, flushing bool, dirty int64)) {
	c.poller.Add(func(now sim.Time) {
		queue, flushing, dirty := read()
		st.Queue.Add(now, float64(queue))
		det.ObserveQueue(now, float64(queue))
		iowait := 0.0
		if flushing {
			iowait = 100
		}
		st.IOWait.Add(now, iowait)
		st.DirtyBytes.Add(now, float64(dirty))
		st.CPU.Sample(now)
	})
}

// Run executes the experiment for the configured duration and returns
// the collected results. It may be called once.
func (c *Cluster) Run() *Results {
	c.poller.Start()
	if c.telPoller != nil {
		c.telPoller.Start()
	}
	if c.prober != nil {
		c.prober.Start()
	}
	if c.openLoop != nil {
		c.openLoop.Start()
	} else {
		c.group.Start()
	}
	c.Eng.Run(c.cfg.Duration)
	if c.openLoop != nil {
		c.openLoop.Stop()
	} else {
		c.group.Stop()
	}
	c.poller.Stop()
	if c.telPoller != nil {
		c.telPoller.Stop()
	}
	for _, det := range c.detectors {
		det.Finish()
	}
	return c.results()
}

func (c *Cluster) results() *Results {
	issued := uint64(0)
	if c.openLoop != nil {
		issued = c.openLoop.Issued()
	} else {
		issued = c.group.Issued()
	}
	res := &Results{
		Config:       c.cfg,
		Responses:    c.rec,
		Issued:       issued,
		Retransmits:  c.retrans.Retransmits(),
		GiveUps:      c.retrans.Failures(),
		Webs:         c.webStats,
		Apps:         c.appStats,
		DB:           c.dbStats,
		WebTierQueue: c.tierWeb.Series(),
		AppTierQueue: c.tierApp.Series(),
		DBTierQueue:  c.tierDB.Series(),
		Dispatch:     c.dispatch,
		Assign:       c.assign,
		LBValues:     c.lbValues,
		Trace:        c.accessLog,
		Spans:        c.tracer,
		Events:       c.events,
	}
	if len(c.detectors) > 0 {
		res.Online = make(map[string][]mbneck.Span, len(c.detectors))
		for name, det := range c.detectors {
			res.Online[name] = det.Saturations()
		}
	}
	if c.adapt != nil {
		res.Adapt = c.adapt.Log()
		res.AdaptState = c.adapt.State()
	}
	res.Timeline = c.timeline
	res.Chains = c.correlator.Chains()
	for i, w := range c.Webs {
		c.webStats[i].Served = w.Served()
		res.Drops += w.Drops()
		res.Rejects += w.Balancer().Rejects()
		if g := w.Admission(); g != nil {
			res.Admission = append(res.Admission, g.Stats())
			res.AdmissionSheds += w.AdmissionSheds()
		}
	}
	for i, a := range c.Apps {
		c.appStats[i].Served = a.Served()
	}
	c.dbStats.Served = c.DB.Served()
	return res
}

// Run is the package-level convenience: assemble and run in one call.
func Run(cfg Config) *Results {
	return New(cfg).Run()
}
