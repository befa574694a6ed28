package server

import (
	"millibalance/internal/lb"
	"millibalance/internal/netmodel"
	"millibalance/internal/obs"
	"millibalance/internal/sim"
	"millibalance/internal/workload"
)

// flight is one request's walk through the tiers, as an object. Where
// the walk used to be a chain of nested closures — each wait (a link
// hop, a thread or connection pool, a CPU burst, the balancer's poll
// loop, a retransmission timer) capturing the rest of the request in a
// freshly allocated continuation — the flight is the single thing every
// wait parks: it is the event engine timers, pools and the accept
// backlog fire, the owner CPU bursts complete into, the sender the
// transport retries and the forwarder the balancer answers. stage says
// where the walk resumes; the other fields are what the continuations
// used to capture.
//
// A request is in exactly one wait at a time, so one stage is enough.
// The walk, with the stage the flight holds while it waits:
//
//	client ─ transport (tx retries on drops) ────────────── stageTransit
//	  web: accept backlog ───────────────────────────────── stageBacklog
//	       worker thread, CPU burst ─────────────────────── stageWebCPU
//	       balancer: get_endpoint polls, sweep pauses ───── stageDispatch
//	       link to the app tier ─────────────────────────── stageToApp
//	    app: servlet thread pool ────────────────────────── stageAppWorker
//	         first CPU burst (70 % of the demand) ───────── stageAppPre
//	         per query: DB connection pool ──────────────── stageDBConn
//	                    link to the DB ──────────────────── stageToDB
//	           db: worker pool ──────────────────────────── stageDBWorker
//	               CPU burst ────────────────────────────── stageDBCPU
//	                    link back ───────────────────────── stageFromDB
//	         second CPU burst (30 %) ────────────────────── stageAppPost
//	       link back to the web tier ────────────────────── stageToWeb
//	  web: respond, Finish ─ the client thinks (its own event)
//
// plus stageShed, the one-event deferral of an admission refusal.
//
// Each Web recycles its flights through a sim.FreeList, as the engine
// recycles timer nodes and a CPU its burst slots: the list fills to the
// peak number of requests the server has had in hand.
type flight struct {
	stage stage

	req *workload.Request
	it  *workload.Interaction // req.Interaction
	sp  *obs.Span             // req.Span; nil when tracing is off

	web *Web // nil for a standalone App.Handle or DB.Query
	app *App // nil for a standalone DB.Query
	db  *DB  // the database a query in progress went to

	tx netmodel.Transmission // client → web transport state
	lb lb.Attempt            // balancer dispatch state

	burstAt sim.Time // when the CPU burst in progress was submitted
	post    sim.Time // servlet demand left for after the DB phase
	queries int      // DB round trips still to make

	done func() // completion of a standalone Handle or Query
}

type stage uint8

const (
	stageIdle stage = iota // not carrying a request
	stageTransit
	stageBacklog
	stageShed
	stageWebCPU
	stageDispatch
	stageToApp
	stageAppWorker
	stageAppPre
	stageDBConn
	stageToDB
	stageDBWorker
	stageDBCPU
	stageFromDB
	stageAppPost
	stageToWeb
)

// Fire resumes the walk after a wait on the engine, a pool or the
// accept backlog.
func (f *flight) Fire() {
	switch f.stage {
	case stageBacklog:
		f.web.handle(f)
	case stageShed:
		f.web.fail(f)
	case stageToApp:
		f.app.handle(f)
	case stageAppWorker:
		f.app.serve(f)
	case stageDBConn:
		f.app.queries.send(f)
	case stageToDB:
		f.db.query(f)
	case stageDBWorker:
		f.db.serve(f)
	case stageFromDB:
		f.app.queries.received(f)
	case stageToWeb:
		f.web.receive(f)
	default:
		panic("server: flight fired in a stage that waits on no event")
	}
}

// BurstDone resumes the walk after a CPU burst.
func (f *flight) BurstDone(_, frozen sim.Time) {
	switch f.stage {
	case stageWebCPU:
		f.web.dispatch(f, frozen)
	case stageAppPre:
		f.app.callDB(f, frozen)
	case stageDBCPU:
		f.db.reply(f)
	case stageAppPost:
		f.app.reply(f, frozen)
	default:
		panic("server: CPU burst completed for a flight that submitted none")
	}
}

// Connect is one connection attempt of the client's transport.
func (f *flight) Connect() bool {
	if f.web.admit(f) {
		return true
	}
	f.req.Retransmits++
	return false
}

// Abandon ends the walk for a client whose retransmission schedule ran
// out before any web server accepted the connection.
func (f *flight) Abandon() { f.web.fail(f) }

// Forward sends the request to the application server the balancer
// chose; the endpoint is held until receive hands it back.
func (f *flight) Forward(c *lb.Candidate) { f.web.forward(f, c) }

// Rejected answers the request with an error: every candidate failed.
func (f *flight) Rejected() { f.web.respond(f, false) }

// spanBurst attributes a finished CPU burst to the span: worked time
// (run-queue wait + demand) to st, stall-frozen time to its own stage.
func (f *flight) spanBurst(st obs.Stage, now, frozen sim.Time) {
	if f.sp == nil {
		return
	}
	f.sp.Add(st, now-f.burstAt-frozen)
	f.sp.Add(obs.StageStallFrozen, frozen)
}
