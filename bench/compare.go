package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// compareFiles reads two -out report files (JSON Lines; any number of
// runs of any workloads each) and prints, per workload and end-to-end
// metric, both medians, the delta, the bound and a verdict:
//
//	ok          b's median is not worse than a's by more than the bound
//	worse       it is
//	unresolved  the run-to-run spread on a side is wider than the bound
//
// With fewer than four runs on a side there is no spread to judge by and
// the medians alone decide. A sim workload whose model.digest differs
// between runs of the same seed is reported as worse. The return value
// says whether any row is worse.
func compareFiles(pathA, pathB string, w io.Writer) (bool, error) {
	a, err := readReports(pathA)
	if err != nil {
		return false, err
	}
	b, err := readReports(pathB)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta\tb\tdelta\tbound\tspread a\tspread b\tn a\tn b\tverdict\t")
	anyWorse := false
	for _, wl := range workloadSpecs {
		ra, rb := untraced(a[wl.Name]), untraced(b[wl.Name])
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, s := range endToEndSpecs {
			va, vb := values(ra, s.Name), values(rb, s.Name)
			ma, mb := median(va), median(vb)
			delta := (mb - ma) / ma
			worseBy := delta
			if s.Better == "higher" {
				worseBy = -delta
			}
			sa, sb := spread(va), spread(vb)
			verdict := "ok"
			switch {
			case worseBy > s.Bound:
				verdict = "worse"
				anyWorse = true
			case sa > s.Bound || sb > s.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4f\t%.4f\t%+.2f%%\t%.0f%%\t%.1f%%\t%.1f%%\t%d\t%d\t%s\t\n",
				wl.Name, s.Name, s.Unit, ma, mb, 100*delta, 100*s.Bound, 100*sa, 100*sb, len(va), len(vb), verdict)
		}
		if bad := digestMismatch(ra, rb); bad != "" {
			fmt.Fprintf(tw, "%s\tmodel.digest\thash\t\t\t\t\t\t\t\t\tworse: %s\t\n", wl.Name, bad)
			anyWorse = true
		}
	}
	return anyWorse, tw.Flush()
}

func readReports(path string) (map[string][]*report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]*report{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, line, err)
		}
		out[r.Workload] = append(out[r.Workload], &r)
	}
	return out, sc.Err()
}

func untraced(rs []*report) []*report {
	var out []*report
	for _, r := range rs {
		if !r.Trace {
			out = append(out, r)
		}
	}
	return out
}

func values(rs []*report, name string) []float64 {
	var v []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

// spread is the distance between the first and third quartile as a share
// of the median, the quartiles taken as Python's
// statistics.quantiles(v, n=4) takes them (the driver's measure); 0 when
// there are too few runs to have one.
func spread(v []float64) float64 {
	if len(v) < 4 {
		return 0
	}
	s := sortedCopy(v)
	med := math.Abs(quantile(s, 0.5))
	if med == 0 {
		return 0
	}
	return (exclusiveQuartile(s, 3) - exclusiveQuartile(s, 1)) / med
}

func exclusiveQuartile(sorted []float64, i int) float64 {
	m := len(sorted)
	j := i * (m + 1) / 4
	if j < 1 {
		j = 1
	} else if j > m-1 {
		j = m - 1
	}
	delta := float64(i*(m+1) - j*4)
	return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
}

// digestMismatch names the first seed whose runs disagree on
// model.digest, across both files.
func digestMismatch(a, b []*report) string {
	seen := map[uint64]float64{}
	for _, r := range append(append([]*report{}, a...), b...) {
		m, ok := r.Metrics["model.digest"]
		if !ok {
			continue
		}
		if prev, dup := seen[r.Seed]; dup && prev != m.Value {
			return fmt.Sprintf("seed %d gave %012x and %012x", r.Seed, uint64(prev), uint64(m.Value))
		}
		seen[r.Seed] = m.Value
	}
	return ""
}
