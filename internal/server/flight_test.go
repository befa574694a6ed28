package server

import (
	"testing"
	"time"

	"millibalance/internal/admission"
	"millibalance/internal/lb"
	"millibalance/internal/netmodel"
	"millibalance/internal/sim"
	"millibalance/internal/workload"
)

// A web server carries each request on a flight record and recycles the
// records through a free list. These tests pin what makes that safe: the
// list is bounded by the requests the server has had in hand, every
// request finishes exactly once whichever way its walk ends, a retired
// flight that is fired again faults, and the walk itself allocates
// nothing once the lists have warmed up.

// tinyCluster is one web server with a small worker pool and backlog in
// front of two app servers, driven by a closed-loop group through a
// retransmitting transport — small enough that drops, retransmits and
// abandoned requests all occur when an app server stalls.
type tinyCluster struct {
	eng      *sim.Engine
	web      *Web
	apps     []*App
	retrans  *netmodel.Retransmitter
	group    *workload.Group
	outcomes []workload.Outcome
}

func newTinyCluster(clients int, mech func(*sim.Engine) lb.Mechanism) *tinyCluster {
	return newGatedCluster(clients, mech, nil)
}

// newGatedCluster is newTinyCluster behind an overload gate (nil: none)
// that classifies every odd client as background traffic.
func newGatedCluster(clients int, mech func(*sim.Engine) lb.Mechanism, gate *admission.Gate) *tinyCluster {
	c := &tinyCluster{eng: sim.NewEngine(3, 4)}
	if gate != nil {
		gate.SetClock(c.eng.Now)
	}
	db := newTestDB(c.eng)
	c.apps = []*App{newTestApp(c.eng, "app1", db), newTestApp(c.eng, "app2", db)}
	c.web = NewWeb(c.eng, WebConfig{
		Name: "web1", Cores: 4, Workers: 8, AcceptBacklog: 4, ConnPoolSize: 2,
		Policy: lb.TotalRequest{}, Mechanism: mech(c.eng),
		LB:          lb.Config{Sweeps: 2, SweepPause: 20 * time.Millisecond},
		LinkLatency: 100 * time.Microsecond,
		Writeback:   quietWriteback(),
		Admission:   gate,
		Classify: func(req *workload.Request) admission.Class {
			if req.ClientID%2 == 1 {
				return admission.Background
			}
			return admission.Interactive
		},
	}, c.apps)
	c.retrans = netmodel.NewRetransmitter(c.eng, netmodel.RetransmitSchedule{50 * time.Millisecond, 50 * time.Millisecond})
	c.group = workload.NewGroup(c.eng, clients, workload.ClientConfig{
		ThinkTime: 20 * time.Millisecond,
		Mix:       workload.BrowseOnlyMix(),
		OnOutcome: func(_ *workload.Request, o workload.Outcome) { c.outcomes = append(c.outcomes, o) },
	}, func(req *workload.Request) { c.web.Submit(req, c.retrans) })
	return c
}

func originalMech(eng *sim.Engine) lb.Mechanism { return lb.NewOriginalGetEndpoint() }
func modifiedMech(*sim.Engine) lb.Mechanism     { return lb.NewModifiedGetEndpoint() }

// TestFlightsRecycledOnEveryExit drives three of the four ways a walk
// ends — a response, a balancer rejection, an abandoned transmission;
// sheds follow below — and checks conservation: every issued request
// finished exactly once or is still in hand, and the free list plus the
// flights in hand account for every flight ever made.
func TestFlightsRecycledOnEveryExit(t *testing.T) {
	c := newTinyCluster(40, originalMech)
	c.eng.Schedule(500*time.Millisecond, func() { c.apps[0].CPU().Stall(1500 * time.Millisecond) })
	c.eng.Schedule(500*time.Millisecond, func() { c.apps[1].CPU().Stall(1500 * time.Millisecond) })
	c.group.Start()
	c.eng.Run(3 * time.Second)
	c.group.Stop()
	c.eng.Run(10 * time.Second) // drain: every walk ends

	var ok, failed uint64
	for _, o := range c.outcomes {
		if o.OK {
			ok++
		} else {
			failed++
		}
	}
	if ok != c.web.Served() || ok == 0 {
		t.Fatalf("ok outcomes %d, web served %d", ok, c.web.Served())
	}
	if c.web.Errors() == 0 || c.retrans.Failures() == 0 || c.web.Drops() == 0 {
		t.Fatalf("stall exercised errors=%d abandoned=%d drops=%d, want all > 0",
			c.web.Errors(), c.retrans.Failures(), c.web.Drops())
	}
	if failed != c.web.Errors()+c.retrans.Failures() {
		t.Fatalf("failed outcomes %d != rejected %d + abandoned %d", failed, c.web.Errors(), c.retrans.Failures())
	}
	if uint64(len(c.outcomes)) != c.group.Issued() {
		t.Fatalf("%d outcomes for %d issued requests after the drain", len(c.outcomes), c.group.Issued())
	}
	// 40 clients: no more than 40 requests were ever in hand at once.
	if got := c.web.free.Len(); got == 0 || got > 40 {
		t.Fatalf("free list holds %d flights after the drain, want 1..40", got)
	}
	for f := c.web.free.Get(); f != nil; f = c.web.free.Get() {
		if f.stage != stageIdle || f.req != nil || f.it != nil || f.app != nil {
			t.Fatalf("retired flight still carries a request: %+v", f)
		}
	}
	if c.web.ActiveWorkers() != 0 || c.web.BacklogLen() != 0 {
		t.Fatalf("workers=%d backlog=%d after the drain", c.web.ActiveWorkers(), c.web.BacklogLen())
	}
}

// TestShedFlightsRecycled is the fourth exit: behind a small static gate
// with a short wait queue, a stall sheds requests at the door (queue
// full), from the queue (MaxWait) and by priority (background), and
// hands others a slot from the queue. Every one of them finishes once
// and gives its flight back.
func TestShedFlightsRecycled(t *testing.T) {
	gate := admission.NewGate(admission.Config{
		Limiter: admission.LimiterStatic, Limit: 6, MaxQueue: 3, MaxWait: 30 * time.Millisecond,
	}, 8)
	c := newGatedCluster(40, modifiedMech, gate)
	c.eng.Schedule(500*time.Millisecond, func() { c.apps[0].CPU().Stall(300 * time.Millisecond) })
	c.eng.Schedule(500*time.Millisecond, func() { c.apps[1].CPU().Stall(300 * time.Millisecond) })
	c.group.Start()
	c.eng.Run(2 * time.Second)
	c.group.Stop()
	c.eng.Run(10 * time.Second)

	st := gate.Stats()
	if st.DropsQueueFull == 0 || st.DropsMaxWait == 0 || st.DropsPriority == 0 {
		t.Fatalf("gate drops: queue-full=%d max-wait=%d priority=%d, want all > 0",
			st.DropsQueueFull, st.DropsMaxWait, st.DropsPriority)
	}
	if c.web.AdmissionSheds() != st.Dropped {
		t.Fatalf("web shed %d requests, gate dropped %d", c.web.AdmissionSheds(), st.Dropped)
	}
	var failed uint64
	for _, o := range c.outcomes {
		if !o.OK {
			failed++
		}
	}
	if failed != c.web.AdmissionSheds()+c.web.Errors() {
		t.Fatalf("failed outcomes %d != shed %d + rejected %d", failed, c.web.AdmissionSheds(), c.web.Errors())
	}
	if uint64(len(c.outcomes)) != c.group.Issued() {
		t.Fatalf("%d outcomes for %d issued requests after the drain", len(c.outcomes), c.group.Issued())
	}
	if st.InFlight != 0 || st.Queued != 0 {
		t.Fatalf("gate holds in-flight=%d queued=%d after the drain", st.InFlight, st.Queued)
	}
	for f := c.web.free.Get(); f != nil; f = c.web.free.Get() {
		if f.stage != stageIdle || f.req != nil {
			t.Fatalf("retired flight still carries a request: %+v", f)
		}
	}
}

// TestRetiredFlightFaultsWhenFired: a wait that wrongly still held a
// flight after its request finished would resume a walk that is over.
// The retired record refuses: every entry point panics.
func TestRetiredFlightFaultsWhenFired(t *testing.T) {
	c := newTinyCluster(1, modifiedMech)
	c.group.Start()
	c.eng.Run(time.Second)
	if c.web.free.Len() != 1 || len(c.outcomes) == 0 {
		t.Fatalf("free=%d outcomes=%d, want one recycled flight", c.web.free.Len(), len(c.outcomes))
	}
	stale := c.web.free.Get()
	mustPanic(t, "Fire on a retired flight", stale.Fire)
	mustPanic(t, "BurstDone on a retired flight", func() { stale.BurstDone(0, 0) })
	mustPanic(t, "Forward on a retired flight", func() { stale.Forward(c.web.Balancer().Candidates()[0]) })
	mustPanic(t, "Rejected on a retired flight", stale.Rejected)
}

// TestWalkZeroAlloc: with the free lists warm, a request's whole walk —
// think, issue, transport, web burst, dispatch, link, servlet, DB round
// trips, response — allocates nothing.
func TestWalkZeroAlloc(t *testing.T) {
	c := newTinyCluster(1, originalMech)
	c.outcomes = make([]workload.Outcome, 0, 1<<16)
	c.group.Start()
	oneRequest := func() {
		for n := len(c.outcomes); len(c.outcomes) == n; {
			c.eng.Step()
		}
	}
	for i := 0; i < 50; i++ { // visit every interaction's query count
		oneRequest()
	}
	if allocs := testing.AllocsPerRun(2000, oneRequest); allocs != 0 {
		t.Fatalf("a request's walk allocates %.2f objects, want 0", allocs)
	}
	if c.web.Errors() != 0 || c.web.Drops() != 0 {
		t.Fatalf("errors=%d drops=%d on an idle server", c.web.Errors(), c.web.Drops())
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}
