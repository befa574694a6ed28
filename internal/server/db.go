// Package server models the three tier-server types of the paper's
// testbed in virtual time: a web server (Apache httpd + mod_jk), an
// application server (Tomcat) and a database server (MySQL). Each owns a
// multi-core CPU, a worker-thread pool and — where relevant — an accept
// queue, downstream connection pools and a page-cache writeback daemon
// whose flushes produce millibottlenecks.
package server

import (
	"millibalance/internal/resource"
	"millibalance/internal/sim"
	"millibalance/internal/workload"
)

// sampleDemand draws an actual CPU demand around the interaction's mean:
// uniform within ±50%, which keeps tier means stable while providing
// enough dispersion for realistic queueing.
func sampleDemand(eng *sim.Engine, mean sim.Time) sim.Time {
	return eng.Jitter(mean, 0.5)
}

// DBConfig configures a database server.
type DBConfig struct {
	// Name identifies the server in metrics.
	Name string
	// Cores is the CPU core count.
	Cores int
	// Workers bounds concurrently processed queries (thread pool).
	Workers int
}

// DB is the database tier server. Queries occupy a worker thread and a
// CPU burst; in the paper's experiments MySQL is never the bottleneck.
type DB struct {
	eng     *sim.Engine
	name    string
	cpu     *resource.CPU
	workers *sim.Pool
	served  uint64
}

// NewDB returns a database server.
func NewDB(eng *sim.Engine, cfg DBConfig) *DB {
	if cfg.Cores < 1 {
		cfg.Cores = 1
	}
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	return &DB{
		eng:     eng,
		name:    cfg.Name,
		cpu:     resource.NewCPU(eng, cfg.Cores),
		workers: sim.NewPool(cfg.Workers),
	}
}

// Name returns the server name.
func (d *DB) Name() string { return d.name }

// CPU exposes the CPU for metrics sampling and stall injection.
func (d *DB) CPU() *resource.CPU { return d.cpu }

// Served reports the number of completed queries.
func (d *DB) Served() uint64 { return d.served }

// QueuedRequests reports queries inside the server: waiting for a thread
// plus in service — the per-tier queue metric of the paper's Fig. 2b.
func (d *DB) QueuedRequests() int { return d.workers.Waiting() + d.workers.InUse() }

// Query executes one query with the given mean CPU demand and calls done
// when it completes.
func (d *DB) Query(meanDemand sim.Time, done func()) {
	if done == nil {
		panic("server: DB.Query with nil done")
	}
	d.query(&flight{it: &workload.Interaction{DBDemand: meanDemand}, db: d, done: done})
}

// query takes a query off the link: wait for a worker thread.
func (d *DB) query(f *flight) {
	f.stage = stageDBWorker
	d.workers.Acquire(f)
}

// serve runs with a worker thread held: the query's CPU burst.
func (d *DB) serve(f *flight) {
	f.stage = stageDBCPU
	d.cpu.Run(sampleDemand(d.eng, f.it.DBDemand), f)
}

// reply frees the worker thread and sends the result back.
func (d *DB) reply(f *flight) {
	d.served++
	d.workers.Release()
	if f.app == nil {
		f.done()
		return
	}
	f.app.queries.reply(f)
}

// queryRunner sequences an interaction's DB round trips over a
// connection pool and a link; shared by App.
type queryRunner struct {
	eng   *sim.Engine
	db    *DB
	conns *sim.Pool
	link  sim.Time
}

// next starts the flight's next query — wait for a DB connection — or,
// when none is left, returns to the servlet. Zero queries return
// synchronously.
func (q *queryRunner) next(f *flight) {
	if f.queries == 0 {
		f.app.serialize(f)
		return
	}
	f.queries--
	f.stage, f.db = stageDBConn, q.db
	q.conns.Acquire(f)
}

// send runs with a connection held: the query travels to the DB.
func (q *queryRunner) send(f *flight) {
	f.stage = stageToDB
	q.eng.ScheduleEvent(q.link, f)
}

// reply carries the DB's result back over the link.
func (q *queryRunner) reply(f *flight) {
	f.stage = stageFromDB
	q.eng.ScheduleEvent(q.link, f)
}

// received frees the connection and moves on to the next query.
func (q *queryRunner) received(f *flight) {
	q.conns.Release()
	q.next(f)
}
