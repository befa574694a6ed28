package check

import (
	"time"

	"millibalance/internal/httpcluster"
	"millibalance/internal/lb"
	"millibalance/internal/sim"
)

// driver is one substrate's balancer as the harness replays a script
// through it: the proxy's httpcluster.Balancer on the wall clock, or
// lb.Balancer on a sim.Engine. Each driver keeps its own list of open
// requests; the two lists hold the same requests in the same order for
// as long as the drivers agree.
type driver interface {
	// acquire dispatches one request of the given size and returns the
	// chosen backend's index, or -1 when every backend refused it. A
	// dispatched request joins the end of the open list.
	acquire(requestBytes int64) int
	// open reports the length of the open list.
	open() int
	// done completes open request i with a response of the given size;
	// fail unwinds it as an upstream failure. Either removes it from the
	// open list.
	done(i int, responseBytes int64)
	fail(i int)
	setPolicy(httpcluster.Policy)
	setMechanism(httpcluster.Mechanism)
	quarantine(backend int, on bool)
	weight(backend int, w float64)
	// settle lets time pass after an op, so a recovery that falls due
	// within nanoseconds (ArmInstant) has fallen due before anything
	// reads it.
	settle()
	rejects() uint64
	// backend reads one backend's balancer-visible state.
	backend(i int) backendState
}

// backendState is what the harness checks, compares and digests of one
// backend. state is the 3-state machine state with a due recovery
// applied.
type backendState struct {
	lbValue     float64
	weight      float64
	state       lb.State
	free        int
	dispatched  uint64
	completed   uint64
	traffic     int64
	quarantined bool
}

// proxyDriver replays a script through httpcluster.Balancer.
type proxyDriver struct {
	bal      *httpcluster.Balancer
	backends []*httpcluster.Backend
	releases []httpcluster.Release
}

func newProxyDriver(s Script) *proxyDriver {
	d := &proxyDriver{}
	for _, n := range backendNames[:s.Backends] {
		d.backends = append(d.backends, httpcluster.NewBackend(n, "http://unused", s.Endpoints))
	}
	d.bal = httpcluster.NewBalancer(s.Policy, s.Mech, d.backends, s.Arm.Config())
	return d
}

func (d *proxyDriver) acquire(requestBytes int64) int {
	be, rel, err := d.bal.Acquire(requestBytes)
	if err != nil {
		return -1
	}
	d.releases = append(d.releases, rel)
	for i, x := range d.backends {
		if x == be {
			return i
		}
	}
	panic("check: Acquire returned a backend outside the balancer")
}

func (d *proxyDriver) open() int { return len(d.releases) }

func (d *proxyDriver) done(i int, responseBytes int64) {
	d.releases[i].Done(responseBytes)
	d.releases = append(d.releases[:i], d.releases[i+1:]...)
}

func (d *proxyDriver) fail(i int) {
	d.releases[i].Fail()
	d.releases = append(d.releases[:i], d.releases[i+1:]...)
}

func (d *proxyDriver) setPolicy(p httpcluster.Policy)       { d.bal.SetPolicy(p) }
func (d *proxyDriver) setMechanism(m httpcluster.Mechanism) { d.bal.SetMechanism(m) }
func (d *proxyDriver) quarantine(i int, on bool)            { d.bal.SetQuarantine(d.backends[i].Name(), on) }
func (d *proxyDriver) weight(i int, w float64)              { d.backends[i].SetWeight(w) }
func (d *proxyDriver) rejects() uint64                      { return d.bal.Rejects() }

// settle does nothing: wall time passes between two ops on its own, and
// State applies a recovery that has fallen due.
func (d *proxyDriver) settle() {}

func (d *proxyDriver) backend(i int) backendState {
	be := d.backends[i]
	return backendState{
		lbValue:     be.LBValue(),
		weight:      be.Weight(),
		state:       lb.State(be.State()),
		free:        be.FreeEndpoints(),
		dispatched:  be.Dispatched(),
		completed:   be.Completed(),
		traffic:     be.Traffic(),
		quarantined: be.Quarantined(),
	}
}

// simDriver replays a script through lb.Balancer on a sim.Engine,
// mapping the proxy's configuration onto lb's: one policy instance per
// name for the whole run, so round_robin's cursor survives a swap away
// and back as the proxy's does, and the arm's timings as engine time.
type simDriver struct {
	eng      *sim.Engine
	bal      *lb.Balancer
	policies map[httpcluster.Policy]lb.Policy
	mechs    map[httpcluster.Mechanism]lb.Mechanism
	reqs     []*simRequest
}

// settleStep is how far settle advances the engine: far beyond the
// instant arm's nanosecond recoveries, far short of the other arms'
// hours.
const settleStep = time.Microsecond

func newSimDriver(s Script) *simDriver {
	eng := sim.NewEngine(1, 2)
	d := &simDriver{
		eng:      eng,
		policies: map[httpcluster.Policy]lb.Policy{},
		mechs:    map[httpcluster.Mechanism]lb.Mechanism{},
	}
	for _, p := range scriptPolicies {
		lp, ok := lb.PolicyByName(p.String())
		if !ok {
			panic("check: no lb policy named " + p.String())
		}
		d.policies[p] = lp
	}
	pc := s.Arm.Config()
	orig, _ := lb.MechanismByName("original", eng)
	o := orig.(*lb.OriginalGetEndpoint)
	o.Sleep, o.Timeout = pc.AcquireSleep, pc.AcquireTimeout
	d.mechs[httpcluster.MechanismOriginal] = o
	d.mechs[httpcluster.MechanismModified], _ = lb.MechanismByName("modified", eng)

	cands := make([]*lb.Candidate, s.Backends)
	for i, n := range backendNames[:s.Backends] {
		cands[i] = lb.NewCandidate(n, sim.NewPool(s.Endpoints))
	}
	d.bal = lb.New(eng, d.policies[s.Policy], d.mechs[s.Mech], cands, lb.Config{
		BusyRecovery:   pc.BusyRecovery,
		ErrorThreshold: pc.ErrorThreshold,
		ErrorAfter:     pc.ErrorAfter,
		ErrorRecovery:  pc.ErrorRecovery,
		Sweeps:         pc.Sweeps,
		SweepPause:     pc.SweepPause,
	})
	return d
}

// simRequest is one dispatched request: the Attempt the balancer parks
// and the Forwarder it answers.
type simRequest struct {
	lb.Attempt
	chosen   int
	resolved bool
}

func (r *simRequest) Forward(c *lb.Candidate) { r.chosen, r.resolved = c.Index(), true }
func (r *simRequest) Rejected()               { r.chosen, r.resolved = -1, true }

func (d *simDriver) acquire(requestBytes int64) int {
	r := &simRequest{}
	d.bal.Start(&r.Attempt, lb.RequestInfo{RequestBytes: requestBytes}, r)
	// A poll or a sweep pause parks the attempt on the engine: run the
	// engine until the dispatch resolves, as the proxy's Acquire blocks.
	for !r.resolved {
		if !d.eng.Step() {
			panic("check: a simulated dispatch parked with no event pending")
		}
	}
	if r.chosen >= 0 {
		d.reqs = append(d.reqs, r)
	}
	return r.chosen
}

func (d *simDriver) open() int { return len(d.reqs) }

func (d *simDriver) done(i int, responseBytes int64) {
	r := d.reqs[i]
	// The response size is known only now, as the proxy's Release.Done
	// learns it.
	r.SetResponseBytes(responseBytes)
	d.bal.Complete(&r.Attempt)
	d.reqs = append(d.reqs[:i], d.reqs[i+1:]...)
}

func (d *simDriver) fail(i int) {
	d.bal.Fail(&d.reqs[i].Attempt)
	d.reqs = append(d.reqs[:i], d.reqs[i+1:]...)
}

func (d *simDriver) setPolicy(p httpcluster.Policy)       { d.bal.SetPolicy(d.policies[p]) }
func (d *simDriver) setMechanism(m httpcluster.Mechanism) { d.bal.SetMechanism(d.mechs[m]) }
func (d *simDriver) quarantine(i int, on bool)            { d.bal.SetQuarantined(d.bal.Candidates()[i], on) }
func (d *simDriver) weight(i int, w float64)              { d.bal.Candidates()[i].SetWeight(w) }
func (d *simDriver) rejects() uint64                      { return d.bal.Rejects() }
func (d *simDriver) settle()                              { d.eng.Run(d.eng.Now() + settleStep) }

func (d *simDriver) backend(i int) backendState {
	c := d.bal.Candidates()[i]
	return backendState{
		lbValue:     c.LBValue(),
		weight:      c.Weight(),
		state:       c.State(),
		free:        c.FreeEndpoints(),
		dispatched:  c.Dispatched(),
		completed:   c.Completed(),
		traffic:     c.Traffic(),
		quarantined: c.Quarantined(),
	}
}
