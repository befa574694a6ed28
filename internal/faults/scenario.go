package faults

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"
)

// Scenario text format, shared by cmd/httpdemo's -faults flag, the chaos
// matrix and the simulator's evaluation grid: a comma-separated list of
// specs, each
//
//	shape:schedule[:key=value]...
//
// with shapes freeze | gc_pause | slow | crash | netdelay | netloss,
// schedules periodic | random | oneshot, and keys interval, duration,
// jitter (a fraction in [0, 1] of each gap and length), count, seed (of
// the schedule's draws and the network shapes' loss draws), target,
// delay (slow's extra service time), latency and loss (the network
// shapes). Example:
//
//	freeze:periodic:interval=2s:duration=300ms:jitter=0.25:target=app1,
//	netloss:oneshot:interval=5s:duration=1s:loss=0.5:target=app2
//
// A schedule means the same windows on both substrates: the wall clock
// runs it through Injector, the simulator through mbneck.Stalls, both
// drawing from mbneck.Schedule. The simulator can only freeze a CPU, so
// it takes freeze and gc_pause and refuses the other shapes.

// Spec is one parsed fault specification, not yet bound to a live
// target: Bind binds it on the wall clock.
type Spec struct {
	// ShapeKind is one of freeze, gc_pause, slow, crash, netdelay,
	// netloss.
	ShapeKind string
	// Target names the app server the fault afflicts; empty means the
	// first.
	Target string
	// Sched is the window arrival process.
	Sched Schedule
	// Delay is slow's extra per-request service time.
	Delay time.Duration
	// Latency and Loss parameterize netdelay / netloss.
	Latency time.Duration
	Loss    float64
}

// ParseScenario parses a comma-separated scenario string.
func ParseScenario(text string) ([]Spec, error) {
	var out []Spec
	for _, part := range strings.Split(text, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		spec, err := ParseSpec(part)
		if err != nil {
			return nil, err
		}
		out = append(out, spec)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("faults: empty scenario")
	}
	return out, nil
}

// ParseSpec parses one shape:schedule[:key=value]... spec.
func ParseSpec(text string) (Spec, error) {
	fields := strings.Split(text, ":")
	if len(fields) < 2 {
		return Spec{}, fmt.Errorf("faults: %q: want shape:schedule[:key=value]...", text)
	}
	spec := Spec{ShapeKind: fields[0]}
	switch spec.ShapeKind {
	case "freeze", "gc_pause", "slow", "crash", "netdelay", "netloss":
	default:
		return Spec{}, fmt.Errorf("faults: unknown shape %q", spec.ShapeKind)
	}
	// Walk the kinds, periodic to oneshot, to the one fields[1] names.
	for spec.Sched.Kind = Periodic; spec.Sched.Kind.String() != fields[1]; spec.Sched.Kind++ {
		if spec.Sched.Kind == OneShot {
			return Spec{}, fmt.Errorf("faults: unknown schedule %q", fields[1])
		}
	}
	// Shape-specific defaults; overridable below.
	spec.Sched.Interval = 500 * time.Millisecond
	spec.Sched.Duration = 200 * time.Millisecond
	switch spec.ShapeKind {
	case "slow":
		spec.Delay = 50 * time.Millisecond
	case "netdelay":
		spec.Latency = 100 * time.Millisecond
	case "netloss":
		spec.Loss = 0.5
	}
	for _, kv := range fields[2:] {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return Spec{}, fmt.Errorf("faults: %q: want key=value", kv)
		}
		var err error
		switch key {
		case "interval":
			spec.Sched.Interval, err = parseDur(val)
		case "duration":
			spec.Sched.Duration, err = parseDur(val)
		case "jitter":
			spec.Sched.Jitter, err = parseFrac(key, val)
		case "count":
			spec.Sched.Count, err = strconv.Atoi(val)
		case "seed":
			spec.Sched.Seed, err = strconv.ParseUint(val, 10, 64)
		case "target":
			spec.Target = val
		case "delay":
			spec.Delay, err = parseDur(val)
		case "latency":
			spec.Latency, err = parseDur(val)
		case "loss":
			spec.Loss, err = parseFrac(key, val)
		default:
			return Spec{}, fmt.Errorf("faults: unknown key %q in %q", key, text)
		}
		if err != nil {
			return Spec{}, fmt.Errorf("faults: %q: %v", kv, err)
		}
	}
	return spec, nil
}

func parseDur(s string) (time.Duration, error) {
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, err
	}
	if d <= 0 {
		return 0, fmt.Errorf("duration %v not positive", d)
	}
	return d, nil
}

// parseFrac parses a fraction in [0, 1]. NaN compares false against
// both bounds, so without its own check "loss=NaN" parsed as a valid
// spec (found by FuzzParseScenario); every roll against it is false,
// silently disabling the shape.
func parseFrac(key, s string) (float64, error) {
	f, err := strconv.ParseFloat(s, 64)
	if err == nil && (math.IsNaN(f) || f < 0 || f > 1) {
		err = fmt.Errorf("%s outside [0,1]", key)
	}
	return f, err
}

// App is a live backend a scenario can afflict
// (httpcluster.AppServer).
type App interface {
	Name() string
	Staller
	Delayer
	Restarter
	NetFaulter
}

// Bind resolves each spec against apps and binds its shape to the app
// server its target names (the first when it names none). The network
// shapes seed their loss draws with the spec's seed.
func Bind[A App](specs []Spec, apps []A) ([]*Injector, error) {
	var out []*Injector
	for _, spec := range specs {
		i := slices.IndexFunc(apps, func(a A) bool { return spec.Target == "" || a.Name() == spec.Target })
		if i < 0 {
			return nil, fmt.Errorf("faults: target %q: no such app server", spec.Target)
		}
		app := apps[i]
		var shape Shape
		switch spec.ShapeKind {
		case "freeze":
			shape = Freeze{Name: app.Name(), S: app}
		case "gc_pause":
			shape = GCPause{Name: app.Name(), S: app}
		case "slow":
			shape = Slow{Name: app.Name(), D: app, Extra: spec.Delay}
		case "crash":
			shape = Crash{Name: app.Name(), R: app}
		default: // netdelay, netloss
			shape = NetDegrade{Name: app.Name(), N: app, Latency: spec.Latency, Loss: spec.Loss, Seed: spec.Sched.Seed}
		}
		out = append(out, NewInjector(shape, spec.Sched))
	}
	return out, nil
}
