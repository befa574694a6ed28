package main

import (
	"context"
	"fmt"
	"io"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value. N is the sample count behind it (0 when
// the value is a plain count or ratio).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// phase is the wall-clock extent of one stage of the run.
type phase struct {
	Name   string  `json:"name"`
	StartS float64 `json:"start_s"` // since process start of the run
	WallS  float64 `json:"wall_s"`
}

// hostFacts lets a reader tell a broken set-up from a slow machine.
type hostFacts struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel,omitempty"`
	Commit     string `json:"commit,omitempty"`
	Network    string `json:"network"`
}

// report is the full record of one run: what -out appends and what
// -compare reads. The driver-facing result is derived from it.
type report struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Short     bool              `json:"short,omitempty"`
	Host      hostFacts         `json:"host"`
	Started   string            `json:"started"`
	WallS     float64           `json:"wall_s"`
	Params    map[string]any    `json:"params"`
	Phases    []phase           `json:"phases"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Artifacts []string          `json:"artifacts,omitempty"`
	// Raw keeps the per-repetition and per-slice samples behind the
	// medians, so a reader can judge an estimator against the noise.
	Raw map[string][]float64 `json:"raw,omitempty"`

	start time.Time
}

// result is the driver's contract: exactly these four keys.
type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

// resultMetric drops the sample count: the contract's metric object has
// a value and a unit.
type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newReport(o options) *report {
	now := time.Now()
	return &report{
		Workload: o.workload,
		Seed:     o.seed,
		Seconds:  o.seconds,
		Trace:    o.trace,
		Short:    o.short,
		Host:     readHostFacts(),
		Started:  now.UTC().Format(time.RFC3339),
		Params:   map[string]any{},
		Metrics:  map[string]metric{},
		Raw:      map[string][]float64{},
		start:    now,
	}
}

func readHostFacts() hostFacts {
	h := hostFacts{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Network:    "loopback, same process",
	}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		var b strings.Builder
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b.WriteByte(byte(c))
		}
		h.Kernel = b.String()
	}
	// The driver's checkout is not a git repository; the commit is
	// recorded only where git can name one.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if out, err := exec.CommandContext(ctx, "git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// timed runs fn as a named phase.
func (r *report) timed(name string, fn func() error) error {
	t0 := time.Now()
	err := fn()
	r.Phases = append(r.Phases, phase{Name: name, StartS: t0.Sub(r.start).Seconds(), WallS: time.Since(t0).Seconds()})
	return err
}

func (r *report) set(name string, v float64, n int) {
	r.Metrics[name] = metric{Value: v, N: n}
}

// complete stamps units, rejects an undeclared name, fills the layers a
// traced workload never entered with 0, and rejects an untraced run that
// left an end-to-end metric unset or zero.
func (r *report) complete() error {
	e2e, layer := specByName(endToEndSpecs), specByName(perLayerSpecs)
	for name, m := range r.Metrics {
		s, ok := e2e[name]
		if !ok {
			if s, ok = layer[name]; !ok {
				return fmt.Errorf("metric %s is not declared in spec.go", name)
			}
		}
		m.Unit = s.Unit
		r.Metrics[name] = m
	}
	if r.Trace {
		for _, s := range perLayerSpecs {
			if _, ok := r.Metrics[s.Name]; !ok {
				r.Metrics[s.Name] = metric{Unit: s.Unit}
			}
		}
		return nil
	}
	for _, s := range endToEndSpecs {
		if r.Metrics[s.Name].Value == 0 {
			return fmt.Errorf("end-to-end metric %s was not measured", s.Name)
		}
	}
	return nil
}

// result is what the driver reads: the end-to-end metrics of an
// untraced run, the per-layer metrics of a traced one. The -out report
// keeps whatever else the run learned (an untraced sim run still knows
// its model.digest).
func (r *report) result() result {
	specs := endToEndSpecs
	if r.Trace {
		specs = perLayerSpecs
	}
	out := make(map[string]resultMetric, len(specs))
	for _, s := range specs {
		out[s.Name] = resultMetric{Value: r.Metrics[s.Name].Value, Unit: s.Unit}
	}
	return result{Correct: true, Attempted: r.Attempted, Failed: r.Failed, Metrics: out}
}

func (r *report) printSummary(w io.Writer) {
	fmt.Fprintf(w, "%s seed=%d seconds=%g trace=%v  nproc=%d GOMAXPROCS=%d %s  attempted=%d failed=%d  wall=%.1fs\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, r.Host.NProc, r.Host.GOMAXPROCS, r.Host.GoVersion,
		r.Attempted, r.Failed, r.WallS)
	for _, p := range r.Phases {
		fmt.Fprintf(w, "  phase %-10s start %7.2fs  wall %7.2fs\n", p.Name, p.StartS, p.WallS)
	}
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		if r.Trace && m.Value == 0 {
			continue // a layer this workload never enters
		}
		fmt.Fprintf(w, "  %-34s %16.4f %-8s n=%d\n", name, m.Value, m.Unit, m.N)
	}
}
