package server

import (
	"millibalance/internal/obs"
	"millibalance/internal/resource"
	"millibalance/internal/sim"
	"millibalance/internal/workload"
)

// AppConfig configures an application (Tomcat-like) server.
type AppConfig struct {
	// Name identifies the server in metrics.
	Name string
	// Cores is the CPU core count.
	Cores int
	// Workers is the servlet thread pool size (Tomcat maxThreads; 210
	// in the paper's configuration).
	Workers int
	// DBConns is the connection pool to the database (48 in the
	// paper's configuration).
	DBConns int
	// LinkLatency is the one-way latency to the database tier.
	LinkLatency sim.Time
	// Writeback configures the page-cache writeback daemon that flushes
	// this server's access/servlet logs — the paper's millibottleneck
	// source.
	Writeback resource.WritebackConfig
}

// App is the application tier server. Each request occupies a servlet
// thread, runs a CPU burst, issues its interaction's database queries,
// runs a response-serialization burst, appends to the access logs
// (dirtying pages) and returns. A writeback flush stalls the CPU,
// freezing burst progress — requests keep arriving and occupying threads
// while nothing completes, which is what exhausts the web tier's
// endpoint pools during a millibottleneck.
type App struct {
	eng     *sim.Engine
	name    string
	cpu     *resource.CPU
	workers *sim.Pool
	wb      *resource.Writeback
	queries *queryRunner
	served  uint64
}

// NewApp returns an application server wired to the given database.
func NewApp(eng *sim.Engine, cfg AppConfig, db *DB) *App {
	if db == nil {
		panic("server: NewApp with nil DB")
	}
	if cfg.Cores < 1 {
		cfg.Cores = 1
	}
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.DBConns < 1 {
		cfg.DBConns = 1
	}
	a := &App{
		eng:     eng,
		name:    cfg.Name,
		cpu:     resource.NewCPU(eng, cfg.Cores),
		workers: sim.NewPool(cfg.Workers),
	}
	a.wb = resource.NewWriteback(eng, cfg.Writeback, a.cpu.Stall)
	a.wb.Start()
	a.queries = &queryRunner{eng: eng, db: db, conns: sim.NewPool(cfg.DBConns), link: cfg.LinkLatency}
	return a
}

// Name returns the server name.
func (a *App) Name() string { return a.name }

// CPU exposes the CPU for metrics sampling and stall injection.
func (a *App) CPU() *resource.CPU { return a.cpu }

// Writeback exposes the writeback daemon for metrics (dirty-page series,
// flush events) and configuration checks.
func (a *App) Writeback() *resource.Writeback { return a.wb }

// Served reports the number of completed requests.
func (a *App) Served() uint64 { return a.served }

// QueuedRequests reports requests inside the server: waiting for a
// servlet thread plus in service.
func (a *App) QueuedRequests() int { return a.workers.Waiting() + a.workers.InUse() }

// DBConnsInUse reports occupied database connection-pool slots — the
// app tier's connection-pool-occupancy telemetry signal.
func (a *App) DBConnsInUse() int { return a.queries.conns.InUse() }

// Handle processes one interaction and calls done when the response is
// ready to travel back. The servlet demand is split 70/30 around the
// database phase so that a mid-request stall also freezes response
// serialization. sp, when non-nil, receives the request's app-tier
// stages: the servlet-thread wait, the CPU bursts (split into worked
// and stall-frozen time) and the database phase.
func (a *App) Handle(it *workload.Interaction, sp *obs.Span, done func()) {
	if it == nil || done == nil {
		panic("server: App.Handle with nil interaction or done")
	}
	a.handle(&flight{it: it, sp: sp, app: a, done: done})
}

// handle takes a request off the link: wait for a servlet thread.
func (a *App) handle(f *flight) {
	f.sp.Enter(obs.StageAppAcceptQueue, a.eng.Now())
	f.stage = stageAppWorker
	a.workers.Acquire(f)
}

// serve runs with a servlet thread held: the first CPU burst.
func (a *App) serve(f *flight) {
	f.sp.Exit(obs.StageAppAcceptQueue, a.eng.Now())
	demand := sampleDemand(a.eng, f.it.AppDemand)
	pre := demand * 7 / 10
	f.post = demand - pre
	f.stage = stageAppPre
	a.burst(f, pre)
}

// callDB starts the database phase after the first burst.
func (a *App) callDB(f *flight, frozen sim.Time) {
	now := a.eng.Now()
	f.spanBurst(obs.StageAppThread, now, frozen)
	f.sp.Enter(obs.StageDBCall, now)
	f.queries = f.it.DBQueries
	a.queries.next(f)
}

// serialize runs the second burst once the last query has returned.
func (a *App) serialize(f *flight) {
	f.sp.Exit(obs.StageDBCall, a.eng.Now())
	f.stage = stageAppPost
	a.burst(f, f.post)
}

// reply logs the request, frees the servlet thread and sends the
// response back over the link.
func (a *App) reply(f *flight, frozen sim.Time) {
	f.spanBurst(obs.StageAppThread, a.eng.Now(), frozen)
	a.wb.AddDirty(f.it.LogBytes)
	a.served++
	a.workers.Release()
	if f.web == nil {
		f.done()
		return
	}
	f.stage = stageToWeb
	a.eng.ScheduleEvent(f.web.link, f)
}

// burst runs one CPU burst for the flight.
func (a *App) burst(f *flight, demand sim.Time) {
	f.burstAt = a.eng.Now()
	a.cpu.Run(demand, f)
}
