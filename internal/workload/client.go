package workload

import (
	"millibalance/internal/obs"
	"millibalance/internal/sim"
)

// Outcome is the result of one request as seen by its client.
type Outcome struct {
	// OK reports whether a response was received.
	OK bool
	// ResponseTime is the client-observed latency (issue to response,
	// including retransmission delays). Meaningful also for failures,
	// where it is the time until the client gave up.
	ResponseTime sim.Time
	// Retransmits counts connection attempts beyond the first.
	Retransmits int
}

// Request is one client request travelling through the n-tier system.
type Request struct {
	// ID is unique per generator group.
	ID uint64
	// ClientID identifies the issuing client within its group.
	ClientID int
	// Interaction is the RUBBoS interaction being requested.
	Interaction *Interaction
	// IssuedAt is when the client first sent the request.
	IssuedAt sim.Time
	// Retransmits is incremented by the transport on each retry.
	Retransmits int
	// Web and Backend are filled in by the web tier as the request
	// flows — the identity an access-log line would carry. They stay
	// empty for requests that never reached a server.
	Web     string
	Backend string
	// AdmittedAt is when the web tier's admission gate admitted the
	// request (meaningful only when admission control is armed); the
	// admit→respond interval feeds the adaptive concurrency limiter.
	AdmittedAt sim.Time
	// Span, when non-nil, records the request's lifecycle stages as it
	// travels through the tiers. Nil when tracing is disabled.
	Span *obs.Span

	// A request issued by a Group belongs to it: Finish hands the record
	// back for recycling. A standalone request (NewRequest) has a done
	// callback instead.
	group    *Group
	client   *client
	done     func(Outcome)
	finished bool
}

// NewRequest builds a standalone request outside a client Group, for
// tests and direct library use. done may be nil; Finish then only marks
// completion.
func NewRequest(id uint64, clientID int, it *Interaction, issuedAt sim.Time, done func(Outcome)) *Request {
	return &Request{ID: id, ClientID: clientID, Interaction: it, IssuedAt: issuedAt, done: done}
}

// Finish delivers the outcome to the client. Finishing twice panics:
// it would mean a request completed through two paths at once.
//
// Finish must be the caller's last touch of the request: a Group
// recycles the record before Finish returns, and from then on its
// fields are poison until the next request it carries is issued. The
// finished flag stays set while the record waits on the free list, so
// a second Finish through a stale pointer still panics.
func (r *Request) Finish(o Outcome) {
	if r.finished {
		panic("workload: Request finished twice")
	}
	r.finished = true
	if r.group != nil {
		r.group.finish(r, o)
		return
	}
	if r.done != nil {
		r.done(o)
	}
}

// Finished reports whether the request already completed.
func (r *Request) Finished() bool { return r.finished }

// SubmitFunc delivers a request into the system under test. The system
// must eventually call req.Finish exactly once.
type SubmitFunc func(req *Request)

// BurstConfig modulates client think times with a square wave to model
// bursty workloads (one of the paper's millibottleneck causes). During
// the first DutyCycle fraction of each Period, think times are divided
// by Factor.
type BurstConfig struct {
	Period    sim.Time
	DutyCycle float64
	Factor    float64
}

// active reports whether t falls inside a burst window.
func (b *BurstConfig) active(t sim.Time) bool {
	if b == nil || b.Period <= 0 || b.Factor <= 1 {
		return false
	}
	phase := float64(t%b.Period) / float64(b.Period)
	return phase < b.DutyCycle
}

// ClientConfig configures a closed-loop client group.
type ClientConfig struct {
	// ThinkTime is the mean exponential think time between a response
	// and the next request (RUBBoS uses ~7 s).
	ThinkTime sim.Time
	// Mix is the interaction mix to navigate.
	Mix Mix
	// Burst optionally modulates think times.
	Burst *BurstConfig
	// FollowProb is the probability of following a natural successor
	// link instead of sampling the stationary mix (default 0.5).
	FollowProb float64
	// OnOutcome, when set, observes every request outcome before the
	// client schedules its next think — the metrics layer's tap point.
	OnOutcome func(*Request, Outcome)
}

// Group is a set of closed-loop clients sharing one configuration and
// target. Each client navigates the mix independently: issue a request,
// wait for its outcome, think, repeat.
type Group struct {
	eng    *sim.Engine
	cfg    ClientConfig
	submit SubmitFunc
	nav    Navigator // the chain's fixed part; each client holds its cursor

	size    int
	nextID  uint64
	issued  uint64
	stopped bool

	// free holds finished request records: the peak number of requests
	// in flight, a few hundred at paper scale against 70 000 clients.
	free sim.FreeList[Request]
}

// client is one closed loop. It is also the event its think timer
// fires and the owner of that timer's node, so thinking allocates
// nothing and touches only the client's own record: 72 bytes
// (TestClientLayout).
type client struct {
	g       *Group
	id, cur int32 // cur is the client's place in the navigation chain
	sim.TimerNode
}

// Fire ends the client's think time.
func (c *client) Fire() { c.g.issue(c) }

// NewGroup creates n clients. The submit function must be non-nil; the
// mix must be non-empty.
func NewGroup(eng *sim.Engine, n int, cfg ClientConfig, submit SubmitFunc) *Group {
	if submit == nil {
		panic("workload: NewGroup with nil submit")
	}
	if len(cfg.Mix.Interactions) == 0 {
		panic("workload: NewGroup with empty mix")
	}
	if cfg.FollowProb == 0 {
		cfg.FollowProb = 0.5
	}
	return &Group{eng: eng, cfg: cfg, submit: submit, size: n,
		nav: newNavigator(eng, indexMix(cfg.Mix), cfg.FollowProb)}
}

// Size returns the number of clients.
func (g *Group) Size() int { return g.size }

// Issued reports how many requests have been issued so far.
func (g *Group) Issued() uint64 { return g.issued }

// Start begins the closed loops. Clients first think (a random fraction
// of one think time, to desynchronize) and then issue their first
// request. The clients are one slab, which their pending timers keep
// alive: a paper-scale group is 70 000 of them.
func (g *Group) Start() {
	clients := make([]client, g.size)
	for i := range clients {
		c := &clients[i]
		c.g, c.id, c.cur = g, int32(i), -1
		g.eng.Arm(&c.TimerNode, g.eng.Uniform(0, g.thinkNow()), c)
	}
}

// Stop halts issuing; in-flight requests still complete.
func (g *Group) Stop() { g.stopped = true }

func (g *Group) thinkNow() sim.Time {
	think := g.cfg.ThinkTime
	if think <= 0 {
		think = 1
	}
	if g.cfg.Burst.active(g.eng.Now()) {
		think = sim.Time(float64(think) / g.cfg.Burst.Factor)
	}
	return think
}

func (g *Group) issue(c *client) {
	if g.stopped {
		return
	}
	g.nextID++
	g.issued++
	req := g.free.Get()
	if req == nil {
		req = new(Request)
	}
	*req = Request{
		ID:          g.nextID,
		ClientID:    int(c.id),
		Interaction: g.nav.step(&c.cur),
		IssuedAt:    g.eng.Now(),
		group:       g,
		client:      c,
	}
	g.submit(req)
}

// poisonTime stands in a recycled record's timestamps: any response
// time computed from it is centuries long, so a read through a stale
// pointer wrecks the run's mean instead of passing unnoticed.
const poisonTime = sim.Time(-1) << 62

// finish is Request.Finish for a request this group issued: observe the
// outcome, start the client's think time, recycle the record.
func (g *Group) finish(r *Request, o Outcome) {
	if g.cfg.OnOutcome != nil {
		g.cfg.OnOutcome(r, o)
	}
	c := r.client
	g.eng.Arm(&c.TimerNode, g.eng.Exponential(g.thinkNow()), c)
	*r = Request{
		ClientID:    -1,
		IssuedAt:    poisonTime,
		AdmittedAt:  poisonTime,
		Retransmits: 1 << 30,
		finished:    true,
	}
	g.free.Put(r)
}
