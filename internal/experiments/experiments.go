// Package experiments contains one named, reproducible experiment for
// every table and figure in the paper's evaluation. Each Run* function
// assembles the right cluster configuration, executes it, and returns a
// typed result carrying both the raw series (for CSV export via
// cmd/figures) and the derived findings the paper's narrative rests on
// (for assertions in tests and for EXPERIMENTS.md). cmd/figures drives
// every one of them.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"millibalance/internal/cluster"
	"millibalance/internal/parallel"
	"millibalance/internal/stats"
)

// Options tunes experiment scale without touching fidelity-critical
// parameters: the topology and per-server sizing always stay at paper
// scale; only the measured duration shrinks.
type Options struct {
	// DurationScale multiplies the paper's 180 s run length. The
	// default 1/6 (30 s) keeps every phenomenon (flushes recur every
	// 5 s) while making a full table reproduction take seconds of wall
	// time per row. Use 1.0 to match the paper's duration.
	DurationScale float64
	// Seed overrides the default seed when non-zero.
	Seed uint64
	// Parallel bounds how many independent cluster runs an experiment
	// may execute concurrently: 0 (or negative) means GOMAXPROCS, 1
	// forces the sequential path. Each run owns its engine and shares
	// nothing, and results are collected by configuration index, so the
	// output is byte-identical at every setting.
	Parallel int
}

// workers resolves the Parallel knob for the fan-out harness.
func (o Options) workers() int { return parallel.Workers(o.Parallel) }

func (o Options) apply(cfg cluster.Config) cluster.Config {
	scale := o.DurationScale
	if scale <= 0 {
		scale = 1.0 / 6
	}
	cfg = cfg.Scale(1, scale)
	if o.Seed != 0 {
		cfg.Seed1 = o.Seed
	}
	return cfg
}

// SeriesDump is one named windowed series prepared for rendering.
type SeriesDump struct {
	Name   string
	Window time.Duration
	// Values are per-window aggregates (means for gauges, counts for
	// events) from time zero.
	Values []float64
}

// dumpMeans extracts per-window means.
func dumpMeans(name string, s *stats.Series) SeriesDump {
	return SeriesDump{Name: name, Window: s.Width(), Values: s.Means()}
}

// dumpCounts extracts per-window event counts.
func dumpCounts(name string, s *stats.Series) SeriesDump {
	counts := s.Counts()
	vals := make([]float64, len(counts))
	for i, c := range counts {
		vals[i] = float64(c)
	}
	return SeriesDump{Name: name, Window: s.Width(), Values: vals}
}

// dumpMaxes extracts per-window maxima (queue-length plots use the
// peak within each window, as the paper's fine-grained monitor does).
func dumpMaxes(name string, s *stats.Series) SeriesDump {
	return SeriesDump{Name: name, Window: s.Width(), Values: s.Maxes()}
}

// RenderTSV renders the series column-wise as tab-separated text with a
// leading time column in seconds, over the common prefix length.
func RenderTSV(series ...SeriesDump) string {
	if len(series) == 0 {
		return ""
	}
	n := 0
	for _, s := range series {
		if len(s.Values) > n {
			n = len(s.Values)
		}
	}
	var b strings.Builder
	b.WriteString("t_sec")
	for _, s := range series {
		b.WriteByte('\t')
		b.WriteString(s.Name)
	}
	b.WriteByte('\n')
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%.3f", float64(i)*series[0].Window.Seconds())
		for _, s := range series {
			v := 0.0
			if i < len(s.Values) {
				v = s.Values[i]
			}
			fmt.Fprintf(&b, "\t%.3f", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// window bounds a zoomed interval, in absolute run time.
type window struct {
	from, to time.Duration
}

func (w window) String() string {
	return fmt.Sprintf("[%.2fs–%.2fs]", w.from.Seconds(), w.to.Seconds())
}
