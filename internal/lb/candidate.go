// Package lb implements the paper's core subject: the mod_jk-style
// two-level load balancer that web-tier servers use to pick an
// application server.
//
// The upper level is a Policy (Algorithms 2–4 in the paper) that
// maintains a per-candidate lb_value; the lower level picks the candidate
// with the lowest lb_value among those in the Available state. Endpoint
// acquisition — getting a free connection to the chosen candidate — is a
// Mechanism: the original Algorithm 1 polls with 100 ms sleeps for up to
// 300 ms while holding the caller's worker thread, and the paper's remedy
// fails fast and marks the candidate Busy.
//
// The paper's 3-state machine (Available, Busy, Error) is implemented in
// Balancer: candidates that fail to return an endpoint become Busy, and
// repeated consecutive failures escalate to Error.
package lb

import (
	"fmt"

	"millibalance/internal/sim"
)

// State is a candidate's scheduling state in the paper's 3-state machine.
type State int

const (
	// StateAvailable means the candidate is assumed able to process
	// requests.
	StateAvailable State = iota + 1
	// StateBusy means the candidate recently failed to return an
	// endpoint; it is skipped while Available candidates exist.
	StateBusy
	// StateError means the candidate exceeded the consecutive-failure
	// threshold and is excluded until the error-recovery interval
	// passes.
	StateError
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case StateAvailable:
		return "available"
	case StateBusy:
		return "busy"
	case StateError:
		return "error"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Candidate is one application server as a single balancer sees it: the
// balancer-local connection pool to that server (mod_jk's endpoint
// cache), the policy's lb_value, and the 3-state machine state.
type Candidate struct {
	name  string
	index int // position in the owning balancer's candidate list
	pool  *sim.Pool

	lbValue     float64
	weight      float64
	state       State
	consecFails int
	firstFailAt sim.Time
	inFlight    int
	dispatched  uint64
	completed   uint64
	traffic     int64

	// Quarantine (the adaptive control plane's drain action): a
	// quarantined candidate is skipped by the scheduler unless a probe
	// has been armed, in which case exactly one request is let through
	// to measure whether the candidate recovered.
	quarantined bool
	probeArmed  bool
	probing     bool
	probeStart  sim.Time

	busyTimer  sim.Timer
	errorTimer sim.Timer
}

// NewCandidate returns a candidate backed by the given endpoint pool
// (the balancer's connection pool to that backend; 25 in the paper's
// configuration).
func NewCandidate(name string, pool *sim.Pool) *Candidate {
	if pool == nil {
		panic("lb: NewCandidate with nil pool")
	}
	return &Candidate{name: name, pool: pool, state: StateAvailable}
}

// Name returns the candidate's name.
func (c *Candidate) Name() string { return c.name }

// Index returns the candidate's position in its balancer's candidate
// list (the order given to New), so per-candidate tables — the web
// server's app servers, the distribution recorders — can be slices
// indexed by it instead of maps keyed by name.
func (c *Candidate) Index() int { return c.index }

// LBValue returns the policy's current lb_value for this candidate.
func (c *Candidate) LBValue() float64 { return c.lbValue }

// State returns the candidate's scheduling state.
func (c *Candidate) State() State { return c.state }

// InFlight reports requests dispatched but not yet completed through this
// balancer.
func (c *Candidate) InFlight() int { return c.inFlight }

// Dispatched reports the cumulative dispatch count.
func (c *Candidate) Dispatched() uint64 { return c.dispatched }

// Completed reports the cumulative completion count.
func (c *Candidate) Completed() uint64 { return c.completed }

// FreeEndpoints reports free connections in the endpoint pool.
func (c *Candidate) FreeEndpoints() int { return c.pool.Free() }

// Traffic reports the cumulative bytes exchanged through this balancer
// (request plus response sizes of completed dispatches) — the
// total_traffic accounting basis, kept under every policy so a runtime
// swap can reseed the lb_value consistently.
func (c *Candidate) Traffic() int64 { return c.traffic }

// Quarantined reports whether the adaptive control plane has drained
// this candidate.
func (c *Candidate) Quarantined() bool { return c.quarantined }

// tryEndpoint attempts to take one endpoint, reporting success.
func (c *Candidate) tryEndpoint() bool { return c.pool.TryAcquire() }

// releaseEndpoint returns one endpoint.
func (c *Candidate) releaseEndpoint() { c.pool.Release() }

// Snapshot is a point-in-time copy of a candidate's balancer-visible
// state, taken by the metrics samplers (the paper instruments mod_jk the
// same way to plot Fig. 10b/11b).
type Snapshot struct {
	Name          string
	LBValue       float64
	Weight        float64
	State         State
	InFlight      int
	Dispatched    uint64
	Completed     uint64
	FreeEndpoints int
	Quarantined   bool

	// Probe* mirror the freshest probe-pool sample when the active
	// policy exposes one (ProbeViewer); ProbeFresh is false — and the
	// other fields zero — for every other policy or when the backend's
	// pool has aged out.
	ProbeInFlight float64
	ProbeLatency  sim.Time
	ProbeAge      sim.Time
	ProbeFresh    bool
}

func (c *Candidate) snapshot() Snapshot {
	return Snapshot{
		Name:          c.name,
		LBValue:       c.lbValue,
		Weight:        c.Weight(),
		State:         c.state,
		InFlight:      c.inFlight,
		Dispatched:    c.dispatched,
		Completed:     c.completed,
		FreeEndpoints: c.pool.Free(),
		Quarantined:   c.quarantined,
	}
}
