// Package faults is the wall-clock fault-injection subsystem: the
// real-HTTP twin of internal/mbneck's engine driver. A fault is a Shape
// (what breaks: freeze, GC pause, slow response, crash+restart, network
// latency/loss) bound to mbneck's Schedule (when it breaks: periodic
// with jitter, random, one-shot) by an Injector, which emits
// fault_start/fault_end events into an obs.EventLog so experiment
// post-processing can correlate injected windows with the balancer's
// observed behavior — the paper's fine-grained timeline analysis,
// driven against live goroutines instead of virtual time.
//
// Shapes act through narrow interfaces (Staller, Delayer, Restarter,
// NetFaulter) implemented by httpcluster.AppServer, so every shape —
// the network ones included — acts on the afflicted server itself and
// the proxy meets it on its one upstream path. The package depends only
// on internal/obs, internal/mbneck and the standard library.
package faults

import "time"

// Staller freezes all request progress for a window — the
// dirty-page-writeback millibottleneck (httpcluster.AppServer.Stall).
type Staller interface {
	Stall(d time.Duration)
}

// Delayer inflates per-request service time until cleared — the
// slow-response degradation shape (httpcluster.AppServer.SetExtraDelay).
type Delayer interface {
	SetExtraDelay(d time.Duration)
}

// Restarter crashes and later revives a server on a stable address
// (httpcluster.AppServer.Crash/Restart).
type Restarter interface {
	Crash()
	Restart() error
}

// NetFaulter opens and clears a network fault on a server's connections:
// added latency before a request is served, and seeded loss that resets
// the connection without a reply (httpcluster.AppServer.SetNetFault).
// Zero latency and loss clear it.
type NetFaulter interface {
	SetNetFault(latency time.Duration, loss float64, seed uint64)
}

// Shape is one way a backend (or its network path) can break. Open
// applies the fault for the window d and must return immediately; the
// shape is responsible for undoing itself after d elapses.
type Shape interface {
	// Kind names the fault taxonomy entry ("freeze", "gc_pause", ...).
	Kind() string
	// Target names the afflicted backend, for event records.
	Target() string
	// Open applies the fault for the window d, returning immediately.
	Open(d time.Duration)
}

// Freeze is the writeback-style stall: all in-flight and new requests
// on the target pause at the next stall gate for the window.
type Freeze struct {
	Name string
	S    Staller
}

func (f Freeze) Kind() string         { return "freeze" }
func (f Freeze) Target() string       { return f.Name }
func (f Freeze) Open(d time.Duration) { f.S.Stall(d) }

// GCPause is a stop-the-world garbage-collection pause. Mechanically it
// is the same full freeze as Freeze (the paper's point: both produce
// the identical millibottleneck signature) but it keeps its own
// taxonomy identity so event streams distinguish the injected cause.
type GCPause struct {
	Name string
	S    Staller
}

func (g GCPause) Kind() string         { return "gc_pause" }
func (g GCPause) Target() string       { return g.Name }
func (g GCPause) Open(d time.Duration) { g.S.Stall(d) }

// Slow inflates the target's per-request service time by Extra for the
// window, then restores it — degradation rather than a full stop, the
// shape a load balancer's response-time signal is supposed to catch.
type Slow struct {
	Name  string
	D     Delayer
	Extra time.Duration
}

func (s Slow) Kind() string   { return "slow" }
func (s Slow) Target() string { return s.Name }
func (s Slow) Open(d time.Duration) {
	s.D.SetExtraDelay(s.Extra)
	time.AfterFunc(d, func() { s.D.SetExtraDelay(0) })
}

// Crash kills the target for the window, then restarts it on the same
// address — the process-crash-plus-supervisor-restart scenario. Open
// connections are torn down, so the proxy sees hard errors, not stalls.
type Crash struct {
	Name string
	R    Restarter
}

func (c Crash) Kind() string   { return "crash" }
func (c Crash) Target() string { return c.Name }
func (c Crash) Open(d time.Duration) {
	c.R.Crash()
	time.AfterFunc(d, func() { _ = c.R.Restart() })
}

// NetDegrade is the network fault shape: for the window, every request
// to the target waits Latency before it is served and is lost with
// probability Loss, its connection reset without a reply. Seed seeds the
// loss draws.
type NetDegrade struct {
	Name    string
	N       NetFaulter
	Latency time.Duration
	Loss    float64
	Seed    uint64
}

func (n NetDegrade) Kind() string {
	if n.Loss > 0 && n.Latency <= 0 {
		return "netloss"
	}
	return "netdelay"
}

func (n NetDegrade) Target() string { return n.Name }

func (n NetDegrade) Open(d time.Duration) {
	n.N.SetNetFault(n.Latency, n.Loss, n.Seed)
	time.AfterFunc(d, func() { n.N.SetNetFault(0, 0, 0) })
}

// Correlated opens several shapes for the same window — the
// multi-backend correlated fault (e.g. a shared storage hiccup freezing
// every replica at once), the scenario where routing around the
// bottleneck is impossible and only shedding degrades gracefully.
type Correlated []Shape

func (c Correlated) Kind() string { return "correlated" }
func (c Correlated) Target() string {
	t := ""
	for i, s := range c {
		if i > 0 {
			t += "+"
		}
		t += s.Target()
	}
	return t
}
func (c Correlated) Open(d time.Duration) {
	for _, s := range c {
		s.Open(d)
	}
}
