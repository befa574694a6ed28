// Command bench is the repository's end-to-end benchmark: four
// workloads over the two substrates (the deterministic simulator and the
// loopback HTTP proxy), a fixed set of end-to-end metrics measured with
// tracing off, and a traced run that yields the per-layer metrics.
//
//	go run -C bench . --workload proxy_bare --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the exit code is non-zero when
// an output check fails. README.md documents workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// options is one invocation's parsed command line.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	short    bool
	out      string // append the full report (one JSON line) here
	dir      string // span files and profiles of a traced run
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "one of sim_paper, sim_full, proxy_bare, proxy_mbneck")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed: the same seed generates the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 20, "measured seconds")
	// An int, not a bool: the driver passes "--trace 0" as two arguments.
	trace := fs.Int("trace", 0, "1 runs the traced variant and reports the per-layer metrics")
	fs.BoolVar(&o.short, "short", false, "smoke scale: 2 measured seconds, shorter simulated runs, one set-up")
	fs.StringVar(&o.out, "out", "", "append the full report (host facts, phases, every metric with n) as one JSON line")
	fs.StringVar(&o.dir, "dir", "out", "directory for the traced run's span file and CPU profile")
	compare := fs.Bool("compare", false, "compare two -out files: bench -compare a.jsonl b.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two report files")
			return 2
		}
		worse, err := compareFiles(fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		if worse {
			return 1
		}
		return 0
	}
	o.trace = *trace != 0
	if o.short {
		o.seconds = 2
	}
	if o.seconds <= 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive")
		return 2
	}

	rep, err := runWorkload(o)
	if err != nil {
		// A failed output check: no metrics, non-zero exit.
		fmt.Fprintln(stderr, "bench: INVALID RUN:", err)
		return 1
	}
	if o.out != "" {
		if err := appendReport(o.out, rep); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	rep.printSummary(stderr)
	line, err := json.Marshal(rep.result())
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// runWorkload dispatches to the workload and stamps the report.
func runWorkload(o options) (*report, error) {
	rep := newReport(o)
	var err error
	switch o.workload {
	case wSimPaper, wSimFull:
		err = runSim(o, rep)
	case wProxyBare:
		err = runProxyBare(o, rep)
	case wProxyMbneck:
		err = runProxyMbneck(o, rep)
	default:
		return nil, fmt.Errorf("unknown workload %q (want sim_paper, sim_full, proxy_bare or proxy_mbneck)", o.workload)
	}
	if err != nil {
		return nil, err
	}
	rep.WallS = time.Since(rep.start).Seconds()
	if err := rep.complete(); err != nil {
		return nil, err
	}
	return rep, nil
}

func appendReport(path string, rep *report) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(rep); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
