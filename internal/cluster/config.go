// Package cluster assembles the paper's n-tier topology — client groups,
// web servers with mod_jk-style balancers, application servers whose log
// writeback produces millibottlenecks, and a database server — runs
// experiments over it, and collects the full measurement set every
// figure and table of the paper is rendered from.
package cluster

import (
	"fmt"
	"strings"
	"time"

	"millibalance/internal/adapt"
	"millibalance/internal/admission"
	"millibalance/internal/lb"
	"millibalance/internal/netmodel"
	"millibalance/internal/planes"
	"millibalance/internal/probe"
	"millibalance/internal/resource"
	"millibalance/internal/sim"
	"millibalance/internal/telemetry"
	"millibalance/internal/workload"
)

// Config describes one full experiment.
type Config struct {
	// Seed1/Seed2 seed the deterministic random source.
	Seed1, Seed2 uint64
	// Duration is the measured run length in virtual time.
	Duration sim.Time
	// Clients is the total closed-loop client count, split evenly
	// across web servers in contiguous blocks (the paper assigns two
	// client nodes per web server).
	Clients int
	// ThinkTime is the mean client think time (RUBBoS ≈ 7 s).
	ThinkTime sim.Time
	// BrowseOnly selects the browse-only mix; otherwise read/write.
	BrowseOnly bool
	// Burst optionally modulates client think times.
	Burst *workload.BurstConfig
	// OpenLoopRate, when positive, replaces the closed-loop client
	// population with a Poisson arrival process at this rate (req/s).
	// Clients then only sizes the virtual ClientID space used to route
	// requests to web servers. Open-loop arrivals do not self-throttle
	// during millibottlenecks, making the instability strictly harsher.
	OpenLoopRate float64

	// NumWeb and NumApp size the web and application tiers (the paper
	// uses 4 and 4, with one database server).
	NumWeb, NumApp int

	// Policy and Mechanism name the balancer behaviour (see
	// lb.PolicyNames and lb.MechanismNames).
	Policy    string
	Mechanism string
	// LB tunes the 3-state machine.
	LB lb.Config

	// Web tier sizing.
	WebCores, WebWorkers, WebBacklog, ConnPoolSize int
	// WebLogBytes is the web server's own per-request log volume.
	WebLogBytes int64
	// WebWriteback configures the web tier's writeback daemons; the LB
	// experiments disable it as the paper does.
	WebWriteback resource.WritebackConfig

	// App tier sizing.
	AppCores, AppWorkers, DBConns int
	// AppWriteback configures the app tier's writeback daemons — the
	// millibottleneck source.
	AppWriteback resource.WritebackConfig

	// DB tier sizing.
	DBCores, DBWorkers int

	// LinkLatency is the one-way inter-tier latency.
	LinkLatency sim.Time
	// Retransmit is the drop-retry schedule (nil → 1 s × 3).
	Retransmit netmodel.RetransmitSchedule
	// SampleInterval is the metrics polling period (default 10 ms).
	SampleInterval sim.Time
	// TraceCapacity, when positive, records up to that many access-log
	// entries (one per completed request) into Results.Trace for the
	// paper's log-based analyses.
	TraceCapacity int
	// SpanCapacity, when positive, enables request-lifecycle span
	// tracing: every request carries a typed stage timeline and the most
	// recent SpanCapacity completed spans are kept in Results.Spans.
	// Zero disables tracing entirely (requests carry a nil span).
	SpanCapacity int
	// EventCapacity, when positive, enables the observability event log
	// (balancer decisions with per-candidate lb_values, state
	// transitions, rejects) and the per-server online millibottleneck
	// detectors; the most recent EventCapacity events are kept in
	// Results.Events. Zero disables both.
	EventCapacity int
	// Telemetry, when non-nil, arms the fine-grained resource-timeline
	// sampler (internal/telemetry): every server's queue depth, busy
	// fraction, frozen flag and dirty bytes are sampled off the sim
	// clock at Telemetry.Interval (default 50 ms) into preallocated
	// rings, exposed in Results.Timeline. When the event log is also
	// enabled, an online correlator turns detector confirmations into
	// ranked causal chains in Results.Chains. Sampling runs on the
	// engine thread at deterministic instants, so armed runs replay
	// byte-identically.
	Telemetry *telemetry.Config
	// Probe, when non-nil, tunes the asynchronous probing subsystem
	// (internal/probe). Probing also arms implicitly — with defaults —
	// whenever prequal appears as the static Policy or among the
	// adaptive ladder's swap targets; runs that can never dispatch
	// through prequal skip the subsystem, keeping their event sequences
	// unchanged.
	Probe *probe.Config
	// Adaptive, when non-nil, arms the millibottleneck-aware adaptive
	// control plane (internal/adapt): the controller subscribes to the
	// event log, quarantines detected-stalled app servers and hot-swaps
	// policy/mechanism on every web server's balancer at runtime. The
	// controller needs the online detectors, so a zero EventCapacity is
	// raised to a default. Decisions land in Results.Adapt.
	Adaptive *adapt.Config
	// Admission, when non-nil, arms the overload-control subsystem
	// (internal/admission) on every web server: an adaptive concurrency
	// limiter, a CoDel-judged bounded wait in front of the worker pool,
	// and priority-aware shedding. All gate activity runs on the engine
	// clock, so an armed run still replays byte-identically. Gate
	// snapshots land in Results.Admission; sheds appear as
	// admission_drop events when the event log is armed.
	Admission *admission.Config
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Duration <= 0:
		return fmt.Errorf("cluster: non-positive duration %v", c.Duration)
	case c.Clients <= 0:
		return fmt.Errorf("cluster: non-positive client count %d", c.Clients)
	case c.NumWeb <= 0 || c.NumApp <= 0:
		return fmt.Errorf("cluster: need at least one web and one app server (%d/%d)", c.NumWeb, c.NumApp)
	case c.ThinkTime <= 0:
		return fmt.Errorf("cluster: non-positive think time %v", c.ThinkTime)
	}
	if _, ok := lb.PolicyByName(c.Policy); !ok {
		return fmt.Errorf("cluster: unknown policy %q (have %s)", c.Policy, strings.Join(lb.PolicyNames(), ", "))
	}
	if _, ok := lb.MechanismByName(c.Mechanism, nil); !ok {
		return fmt.Errorf("cluster: unknown mechanism %q", c.Mechanism)
	}
	if err := planes.ValidateLadder(c.Adaptive, lb.PolicyNames()); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	if err := c.Admission.Validate(); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	return nil
}

// Mix returns the configured interaction mix.
func (c Config) Mix() workload.Mix {
	if c.BrowseOnly {
		return workload.BrowseOnlyMix()
	}
	return workload.ReadWriteMix()
}

// PaperConfig is the paper's testbed at full scale: 4 web servers
// (Apache, MaxClients 200, mod_jk pool 25), 4 application servers
// (Tomcat, maxThreads 210, 48 DB connections), 1 database server, and
// 70 000 closed-loop clients running the RUBBoS read/write mix. The
// application tier's dirty-page writeback is armed (5 s flush interval),
// so millibottlenecks occur; the web tier's is disabled, as the paper
// does for its load-balancer experiments.
func PaperConfig() Config {
	return Config{
		Seed1:    2017,
		Seed2:    1204,
		Duration: 180 * time.Second,
		Clients:  70000,
		// RUBBoS default think time ≈7 s yields the paper's ~10 k req/s.
		ThinkTime:  7 * time.Second,
		BrowseOnly: false,

		NumWeb:    4,
		NumApp:    4,
		Policy:    "total_request",
		Mechanism: "original_get_endpoint",

		WebCores:     8,
		WebWorkers:   200, // Apache MaxClients
		WebBacklog:   256, // listen backlog
		ConnPoolSize: 25,  // mod_jk connection_pool_size
		WebLogBytes:  400,
		WebWriteback: resource.DisabledWritebackConfig(),

		AppCores:   8,
		AppWorkers: 210, // Tomcat maxThreads
		DBConns:    48,  // DB connections total
		AppWriteback: resource.WritebackConfig{
			// Kernel flusher wakeup in the paper's environment; each
			// flush writes a few seconds of accumulated Tomcat logs and
			// stalls the server for 100–300 ms.
			Interval: 5 * time.Second,
			Disk:     resource.Disk{WriteRate: 44 << 20},
			MaxStall: 1200 * time.Millisecond,
			// Occasional degraded flush (seek storm): the heavy tail of
			// real flush durations, and the source of the small VLRT
			// residue the remedies cannot remove (Table I).
			SlowFlushProb:   0.10,
			SlowFlushFactor: 6,
		},

		DBCores:   8,
		DBWorkers: 64,

		LinkLatency:    100 * time.Microsecond,
		SampleInterval: 10 * time.Millisecond,
	}
}

// BaselineConfig is PaperConfig with every writeback disabled — the
// paper's millibottleneck-free environment of Section II-B (larger
// dirty-page allowance, 600 s flush interval).
func BaselineConfig() Config {
	cfg := PaperConfig()
	cfg.AppWriteback = resource.DisabledWritebackConfig()
	return cfg
}

// SingleChainConfig is the Section III-B topology: one web, one app and
// one database server, with millibottlenecks armed on both the web and
// app servers (the paper's Fig. 2 shows an Apache-side flush and a
// Tomcat-side push-back wave).
func SingleChainConfig() Config {
	cfg := PaperConfig()
	cfg.NumWeb = 1
	cfg.NumApp = 1
	cfg.Clients = 17500 // same per-server load as the 4×4 topology
	cfg.WebWriteback = resource.WritebackConfig{
		Interval: 7 * time.Second,
		Disk:     resource.Disk{WriteRate: 24 << 20},
		MaxStall: 400 * time.Millisecond,
	}
	return cfg
}

// Scale returns a copy of the config with client count and duration
// scaled by the given factors, for CI-speed runs. Server sizing is
// unchanged: utilization scales with the client factor, so factors well
// below one also weaken the phenomena — prefer scaling duration only.
func (c Config) Scale(clientFactor, durationFactor float64) Config {
	out := c
	if clientFactor > 0 {
		out.Clients = int(float64(c.Clients) * clientFactor)
		if out.Clients < 1 {
			out.Clients = 1
		}
	}
	if durationFactor > 0 {
		out.Duration = sim.Time(float64(c.Duration) * durationFactor)
	}
	return out
}

// MiniConfig is a proportionally shrunk topology for tests: 2 web and
// 2 app servers with small cores/pools, a faster flush cycle and a
// slower disk so millibottlenecks of realistic relative size appear
// within seconds of virtual time.
func MiniConfig() Config {
	return Config{
		Seed1:      7,
		Seed2:      13,
		Duration:   10 * time.Second,
		Clients:    3000,
		ThinkTime:  3 * time.Second,
		BrowseOnly: false,

		NumWeb:    2,
		NumApp:    2,
		Policy:    "total_request",
		Mechanism: "original_get_endpoint",

		WebCores:     4,
		WebWorkers:   100,
		WebBacklog:   48,
		ConnPoolSize: 10,
		WebLogBytes:  0,
		WebWriteback: resource.DisabledWritebackConfig(),

		AppCores:   4,
		AppWorkers: 100,
		DBConns:    24,
		AppWriteback: resource.WritebackConfig{
			Interval: 2 * time.Second,
			Disk:     resource.Disk{WriteRate: 2500 << 10},
			MaxStall: 400 * time.Millisecond,
		},

		DBCores:   4,
		DBWorkers: 32,

		LinkLatency:    100 * time.Microsecond,
		SampleInterval: 10 * time.Millisecond,
	}
}

// QuietMiniConfig is MiniConfig without millibottlenecks.
func QuietMiniConfig() Config {
	cfg := MiniConfig()
	cfg.AppWriteback = resource.DisabledWritebackConfig()
	return cfg
}
