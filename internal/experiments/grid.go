package experiments

import (
	"fmt"
	"math"
	"slices"
	"time"

	"millibalance/internal/adapt"
	"millibalance/internal/admission"
	"millibalance/internal/cluster"
	"millibalance/internal/mbneck"
	"millibalance/internal/parallel"
	"millibalance/internal/sim"
	"millibalance/internal/trace"
	"millibalance/internal/workload"
)

// The paper's evaluation is one matrix: balancer policy × get_endpoint
// mechanism × millibottleneck cause. Table I, the generalization table,
// Table IV, Figures 17/18 and the ablations are each a list of its cells.
// A cell pairs a shape (a base configuration and the injector that
// stalls it) with an arm (an edit to the balancer or a control plane).
// runCells runs each distinct cell once, so tables run together share
// their common runs.

// cell names one run of the grid: a key of shapes and a key of arms.
type cell struct{ shape, arm string }

// shape is one millibottleneck cause: its base configuration and the
// injector that arms it on a built cluster, returning a fired-stall
// counter. A nil inject means the base configuration stalls by itself
// (or not at all).
type shape struct {
	config func(Options) cluster.Config
	inject func(c *cluster.Cluster, duration sim.Time) func() int
}

// shapes is the grid's shape table. Injected shapes run over the quiet
// baseline so each run isolates one cause; durations derive from the
// run length so scaled runs keep the same relative shape.
var shapes = map[string]shape{
	// The paper's cause: the application tier's writeback daemons.
	"dirty_page_flush": {config: paperConfig},
	// Full-GC-like pauses: clocked per server, slightly jittered.
	"gc_pause": {config: baselineConfig, inject: func(c *cluster.Cluster, _ sim.Time) func() int {
		var injs []*mbneck.PeriodicStalls
		for i, app := range c.Apps {
			inj := mbneck.NewPeriodicStalls(c.Eng, fmt.Sprintf("gc-%d", i), app.CPU(),
				4*time.Second, 180*time.Millisecond, 0.3)
			inj.Start()
			injs = append(injs, inj)
		}
		return func() (n int) {
			for _, inj := range injs {
				n += inj.Stalls()
			}
			return n
		}
	}},
	// Noisy-neighbour interference: random stalls on every server.
	"vm_colocation": {config: baselineConfig, inject: func(c *cluster.Cluster, _ sim.Time) func() int {
		var injs []*mbneck.RandomStalls
		for i, app := range c.Apps {
			inj := mbneck.NewRandomStalls(c.Eng, fmt.Sprintf("vm-%d", i), app.CPU(),
				5*time.Second, 150*time.Millisecond)
			inj.Start()
			injs = append(injs, inj)
		}
		return func() (n int) {
			for _, inj := range injs {
				n += inj.Stalls()
			}
			return n
		}
	}},
	// Synchronized 7× arrival bursts: every backend saturates at once.
	"bursty_workload": {config: func(opt Options) cluster.Config {
		cfg := baselineConfig(opt)
		cfg.Burst = &workload.BurstConfig{Period: 3 * time.Second, DutyCycle: 0.1, Factor: 7}
		return cfg
	}},
	// A stream of sub-TTL stalls on one server: never long enough to
	// trip staleness exclusion on its own, just a persistently slow
	// backend — the shape probes must expose through latency.
	"slow": {config: baselineConfig, inject: func(c *cluster.Cluster, d sim.Time) func() int {
		inj := mbneck.NewPeriodicStalls(c.Eng, "slow-app1", c.Apps[0].CPU(), d/25, d/250, 0.2)
		inj.Start()
		return inj.Stalls
	}},
	// Two crash-length outages on one server, at fixed fractions of the
	// run.
	"crash": {config: baselineConfig, inject: func(c *cluster.Cluster, d sim.Time) func() int {
		inj := mbneck.NewScriptedStalls(c.Eng, "crash-app1", c.Apps[0].CPU(), []mbneck.StallEvent{
			{At: d / 4, Duration: d / 10},
			{At: d * 3 / 5, Duration: d / 10},
		})
		inj.Start()
		return inj.Fired
	}},
	// Loss-and-retransmit waves: random, brief, frequent freezes.
	"netloss": {config: baselineConfig, inject: func(c *cluster.Cluster, d sim.Time) func() int {
		inj := mbneck.NewRandomStalls(c.Eng, "netloss-app1", c.Apps[0].CPU(), d/40, d/300)
		inj.Start()
		return inj.Stalls
	}},
	// The fault-free control.
	"none": {config: baselineConfig},
	// One scripted stall at 5 s of the quiet 12 s run: where does a stall
	// start to matter?
	"stall_50ms":  scriptedStall(5*time.Second, 50*time.Millisecond),
	"stall_200ms": scriptedStall(5*time.Second, 200*time.Millisecond),
}

func paperConfig(opt Options) cluster.Config    { return opt.apply(cluster.PaperConfig()) }
func baselineConfig(opt Options) cluster.Config { return opt.apply(cluster.BaselineConfig()) }

// scriptedStall is one stall of d at `at` on tomcat1 during a fixed 12 s
// run with writeback off: the close-ups' controlled scenario.
func scriptedStall(at, d time.Duration) shape {
	return shape{
		config: func(opt Options) cluster.Config {
			cfg := baselineConfig(opt)
			cfg.Duration = 12 * time.Second
			return cfg
		},
		inject: func(c *cluster.Cluster, _ sim.Time) func() int {
			inj := mbneck.NewScriptedStalls(c.Eng, "scripted-app1", c.Apps[0].CPU(),
				[]mbneck.StallEvent{{At: at, Duration: d}})
			inj.Start()
			return inj.Fired
		},
	}
}

// run builds the shape's cluster with an arm's edit, arms its injector,
// and returns the results and the stalls the injector fired.
func (sh shape) run(opt Options, edit func(*cluster.Config)) (*cluster.Results, int) {
	cfg := sh.config(opt)
	edit(&cfg)
	c := cluster.New(cfg)
	stalls := func() int { return 0 }
	if sh.inject != nil {
		stalls = sh.inject(c, cfg.Duration)
	}
	res := c.Run()
	return res, stalls()
}

// arms is the grid's arm table. Every shape's base configuration runs
// the paper's worst pair, total_request over the original blocking
// get_endpoint, so an arm edits only what it changes.
var arms = map[string]func(*cluster.Config){
	"total_request":          pair("total_request", "original_get_endpoint"),
	"total_traffic":          pair("total_traffic", "original_get_endpoint"),
	"current_load":           pair("current_load", "original_get_endpoint"),
	"total_request+modified": pair("total_request", "modified_get_endpoint"),
	"total_traffic+modified": pair("total_traffic", "modified_get_endpoint"),
	"current_load+modified":  pair("current_load", "modified_get_endpoint"),
	// Probing only: the prequal policy over the original mechanism.
	"prequal": pair("prequal", "original_get_endpoint"),
	// The worst pair with the adaptive controller armed at defaults.
	"adaptive": func(c *cluster.Config) { c.Adaptive = &adapt.Config{} },
	// The historical fixed bounded-wait shed: a static limit at the
	// worker-pool size and a 1 s MaxWait.
	"fixed_shed": func(c *cluster.Config) {
		c.Admission = &admission.Config{Limiter: admission.LimiterStatic}
	},
	// The full admission plane. MaxWait sits well below the 1 s VLRT
	// threshold: a shed must be a fast failure the client can retry, not
	// a request that burned its whole latency budget waiting to be
	// refused.
	"codel_gradient": func(c *cluster.Config) {
		c.Admission = &admission.Config{
			Limiter: admission.LimiterGradient,
			CoDel:   true,
			LIFO:    true,
			MaxWait: 400 * time.Millisecond,
		}
	},
	// Ablations of the worst pair.
	"backlog_64":  func(c *cluster.Config) { c.WebBacklog = 64 },
	"backlog_512": func(c *cluster.Config) { c.WebBacklog = 512 },
	"sweeps_1":    func(c *cluster.Config) { c.LB.Sweeps = 1 },
	// Open-loop Poisson arrivals at the closed loop's long-run rate
	// (70 000 clients over a 7 s think time).
	"open_loop": func(c *cluster.Config) { c.OpenLoopRate = 10000 },
	// The session study: each policy with and without affinity, traced
	// so the rows can count session moves.
	"unpinned_total_request": sessions("total_request", false),
	"sticky_total_request":   sessions("total_request", true),
	"unpinned_current_load":  sessions("current_load", false),
	"sticky_current_load":    sessions("current_load", true),
}

func pair(policy, mechanism string) func(*cluster.Config) {
	return func(c *cluster.Config) { c.Policy, c.Mechanism = policy, mechanism }
}

func sessions(policy string, sticky bool) func(*cluster.Config) {
	return func(c *cluster.Config) {
		c.Policy = policy
		c.LB.StickySessions = sticky
		c.TraceCapacity = math.MaxInt32
	}
}

// Row is one cell's measurements: the union of what every table of the
// grid prints or asserts.
type Row struct {
	Shape, Arm string
	// Policy and Mechanism are what the run ENDED on (they differ from
	// the arm's start under adaptation).
	Policy, Mechanism string

	TotalRequests, VLRTCount uint64
	Goodput                  uint64 // successfully answered requests
	AvgRTMillis              float64
	VLRTPct, NormalPct       float64
	Drops, Rejects, Sheds    uint64
	InjectedStalls           int // stalls the shape's injector fired

	// Controller activity and its full decision log, for JSONL export
	// and round-trip checks (the adaptive arm only).
	Quarantines, Readmits, Swaps, Fallbacks int
	Decisions                               *adapt.DecisionLog

	// SessionMoves counts requests served by another backend than their
	// client's previous request — the stickiness violations of the
	// session arms (zero elsewhere).
	SessionMoves uint64
}

// Grid is one table's rows, in the order of its cell list.
type Grid struct {
	Rows []Row
}

// Row returns the row of a shape and arm, or nil.
func (g Grid) Row(shape, arm string) *Row {
	for i := range g.Rows {
		if g.Rows[i].Shape == shape && g.Rows[i].Arm == arm {
			return &g.Rows[i]
		}
	}
	return nil
}

// cross lays out every shape × arm cell, shapes outer: the row order
// the tables print.
func cross(shapes, arms []string) []cell {
	var out []cell
	for _, s := range shapes {
		for _, a := range arms {
			out = append(out, cell{s, a})
		}
	}
	return out
}

// runCells runs each distinct cell once, fanned out across the parallel
// harness in first-seen order, and returns one row per input cell.
func runCells(opt Options, cells []cell) []Row {
	index := make(map[cell]int, len(cells))
	var distinct []cell
	for _, c := range cells {
		if _, ok := index[c]; !ok {
			index[c] = len(distinct)
			distinct = append(distinct, c)
		}
	}
	rows := parallel.Map(opt.workers(), len(distinct), func(i int) Row {
		return runCell(opt, distinct[i])
	})
	out := make([]Row, len(cells))
	for i, c := range cells {
		out[i] = rows[index[c]]
	}
	return out
}

// runGrids hands the union of several tables' cells to one runCells
// call and returns each table's rows.
func runGrids(opt Options, tables ...[]cell) []Grid {
	rows := runCells(opt, slices.Concat(tables...))
	out := make([]Grid, len(tables))
	for i, t := range tables {
		out[i] = Grid{Rows: rows[:len(t):len(t)]}
		rows = rows[len(t):]
	}
	return out
}

func runCell(opt Options, k cell) Row {
	sh, okShape := shapes[k.shape]
	edit, okArm := arms[k.arm]
	if !okShape || !okArm {
		panic(fmt.Sprintf("experiments: cell %v names an unknown shape or arm", k))
	}
	res, stalls := sh.run(opt, edit)
	r := res.Responses
	row := Row{
		Shape:          k.shape,
		Arm:            k.arm,
		Policy:         res.Config.Policy,
		Mechanism:      res.Config.Mechanism,
		TotalRequests:  r.Total(),
		Goodput:        r.Total() - r.Failures(),
		AvgRTMillis:    float64(r.Mean().Microseconds()) / 1000,
		VLRTCount:      r.VLRTCount(),
		VLRTPct:        r.VLRTPercent(),
		NormalPct:      r.NormalPercent(),
		Drops:          res.Drops,
		Rejects:        res.Rejects,
		Sheds:          res.AdmissionSheds,
		InjectedStalls: stalls,
	}
	if res.Adapt != nil {
		row.Policy = res.AdaptState.Policy
		row.Mechanism = res.AdaptState.Mechanism
		row.Quarantines = res.Adapt.Count(adapt.ActionQuarantine)
		row.Readmits = res.Adapt.Count(adapt.ActionReadmit)
		row.Swaps = res.Adapt.Count(adapt.ActionSwapMechanism) + res.Adapt.Count(adapt.ActionSwapPolicy)
		row.Fallbacks = res.Adapt.Count(adapt.ActionFallback)
		row.Decisions = res.Adapt
	}
	if res.Trace != nil {
		row.SessionMoves = sessionMoves(res.Trace.Entries())
	}
	return row
}

// sessionMoves counts served requests whose backend differs from the
// one their client's previous request reached. A client always enters
// through the same web server and, in the closed loop, has one request
// in flight, so completion order is issue order.
func sessionMoves(entries []trace.Entry) (moves uint64) {
	last := map[int]string{}
	for _, e := range entries {
		if e.Backend == "" {
			continue
		}
		if prev, ok := last[e.ClientID]; ok && prev != e.Backend {
			moves++
		}
		last[e.ClientID] = e.Backend
	}
	return moves
}

// vlrtFloorPct is the absolute %VLRT floor of the within-factor
// predicates: one VLRT per thousand requests.
const vlrtFloorPct = 0.1

// withinFactor reports whether got ≤ factor × ref, or whether the row's
// %VLRT sits under the absolute floor, so a zero-VLRT reference cannot
// fail a residue of one per thousand.
func withinFactor(got, ref, factor, gotVLRTPct float64) bool {
	return got <= ref*factor || gotVLRTPct <= vlrtFloorPct
}

// labeled pairs a grid key with the label a table prints for it.
type labeled struct{ key, label string }

type labels []labeled

func (l labels) keys() []string {
	out := make([]string, len(l))
	for i, x := range l {
		out[i] = x.key
	}
	return out
}

func (l labels) of(key string) string {
	for _, x := range l {
		if x.key == key {
			return x.label
		}
	}
	return key
}
