package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"millibalance/internal/httpcluster"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestManifestMatchesSpec keeps BENCHMARK.json and spec.go from drifting
// apart, and both inside the contract's limits.
func TestManifestMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	if len(m.Paths) != 1 || m.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", m.Paths)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", m.RunSeconds)
	}
	if len(m.Workloads) != len(workloadSpecs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(m.Workloads), len(workloadSpecs))
	}
	for i, w := range workloadSpecs {
		if m.Workloads[i] != w {
			t.Errorf("workload %d: manifest %+v, spec %+v", i, m.Workloads[i], w)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	check := func(kind string, got, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in spec.go", len(got), kind, len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: manifest %+v, spec %+v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEndSpecs)
	check("per_layer", m.PerLayer, perLayerSpecs)
	if len(perLayerSpecs) > 128 || len(endToEndSpecs) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the contract's 128 and 16", len(perLayerSpecs), len(endToEndSpecs))
	}

	seen := map[string]bool{}
	names := func(name, unit string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", name)
		}
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("unit %q of %s is outside the contract's alphabet", unit, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloadSpecs {
		names(w.Name, "")
	}
	hasSetup := false
	for _, s := range endToEndSpecs {
		names(s.Name, s.Unit)
		if s.Bound <= 0 || s.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", s.Name, s.Bound)
		}
		if s.Name == "setup_s" && s.Unit == "s" && s.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, s := range perLayerSpecs {
		names(s.Name, s.Unit)
		if s.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", s.Name)
		}
	}
}

// TestWorkloadsShort runs every workload's traced variant at smoke scale
// (which also measures the untraced end-to-end metrics first) and checks
// names, output shape and the span file.
func TestWorkloadsShort(t *testing.T) {
	for _, w := range workloadSpecs {
		t.Run(w.Name, func(t *testing.T) {
			o := options{workload: w.Name, seed: 7, seconds: 2, short: true, trace: true, dir: t.TempDir()}
			rep, err := runWorkload(o)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Attempted < 1 || rep.Failed != 0 {
				t.Errorf("attempted %d, failed %d", rep.Attempted, rep.Failed)
			}
			res := rep.result()
			if len(res.Metrics) != len(perLayerSpecs) {
				t.Errorf("traced result carries %d metrics, want the %d per-layer ones", len(res.Metrics), len(perLayerSpecs))
			}
			for _, s := range perLayerSpecs {
				if m, ok := res.Metrics[s.Name]; !ok || m.Unit != s.Unit {
					t.Errorf("traced result: %s = %+v (present %v), want unit %s", s.Name, m, ok, s.Unit)
				}
			}
			// The untraced phase of the same run filled the end-to-end set.
			rep.Trace = false
			if err := rep.complete(); err != nil {
				t.Error(err)
			}
			res = rep.result()
			if len(res.Metrics) != len(endToEndSpecs) {
				t.Errorf("untraced result carries %d metrics, want %d", len(res.Metrics), len(endToEndSpecs))
			}
			for _, s := range endToEndSpecs {
				if m := res.Metrics[s.Name]; m.Value == 0 || m.Unit != s.Unit {
					t.Errorf("untraced result: %s = %+v", s.Name, m)
				}
			}
			for _, p := range []string{"measure", "trace"} {
				found := false
				for _, ph := range rep.Phases {
					found = found || ph.Name == p
				}
				if !found {
					t.Errorf("phase %s not recorded in %+v", p, rep.Phases)
				}
			}
			checkSpanFile(t, rep.Artifacts)
		})
	}
}

// checkSpanFile parses the run's span file: every line is a span and
// every non-root span's parent is present.
func checkSpanFile(t *testing.T, artifacts []string) {
	t.Helper()
	path := ""
	for _, a := range artifacts {
		if strings.HasSuffix(a, ".spans.jsonl") {
			path = a
		}
	}
	if path == "" {
		t.Fatalf("no span file among artifacts %v", artifacts)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v in %q", path, err, sc.Text())
		}
		if s.Name == "" || s.ID == 0 || s.EndNs < s.StartNs {
			t.Fatalf("%s: malformed span %+v", path, s)
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatalf("%s holds no span", path)
	}
	ids := make(map[uint64]bool, len(spans))
	for _, s := range spans {
		ids[s.ID] = true
	}
	for _, s := range spans {
		if s.Parent != 0 && !ids[s.Parent] {
			t.Fatalf("span %+v names a parent that is not in the file", s)
		}
	}
}

// TestDriverOutputLine runs the command line the driver uses and checks
// the last line of standard output against the contract.
func TestDriverOutputLine(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", wProxyBare, "--seed", "3", "--seconds", "1", "--trace", "0"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := got[k]; !ok {
			t.Errorf("result lacks key %q", k)
		}
	}
	if len(got) != 4 {
		t.Errorf("result has %d keys, want exactly 4", len(got))
	}
	var metrics map[string]map[string]any
	if err := json.Unmarshal(got["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(endToEndSpecs) {
		t.Errorf("%d metrics, want %d", len(metrics), len(endToEndSpecs))
	}
	for _, s := range endToEndSpecs {
		m, ok := metrics[s.Name]
		if !ok || m["unit"] != s.Unit || len(m) != 2 {
			t.Errorf("metric %s = %v", s.Name, m)
		}
	}

	stdout.Reset()
	if code := run([]string{"--workload", "nope"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q; want non-zero and no result", code, stdout.String())
	}
}

// TestWrongBodyLengthFailsCheck puts a bench-owned stub that answers 100
// bytes behind a real proxy and expects the generator to call the reply
// incorrect, which invalidates a run; a reply naming an unknown backend
// is incorrect too.
func TestWrongBodyLengthFailsCheck(t *testing.T) {
	stub, err := startFloorServer(100)
	if err != nil {
		t.Fatal(err)
	}
	defer stub.close()
	proxy, err := httpcluster.StartProxy(bareStackConfig(nil).proxy,
		[]*httpcluster.Backend{httpcluster.NewBackend("app1", stub.url(), endpointsPer)})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = proxy.Close() }()
	g := newGenerator(nil)
	hc := newHTTPClient(1)
	defer hc.CloseIdleConnections()

	var tl tally
	want128 := &target{url: proxy.URL(), viaProxy: true, bodyLen: 128, backends: map[string]int{"app1": 0}}
	lat, _, err := g.do(hc, want128, plainGET)
	if !errors.Is(err, errIncorrect) {
		t.Fatalf("100-byte reply against a 128-byte target: err = %v, want errIncorrect", err)
	}
	tl.note(lat, bareSLO, err)
	if tl.incorrect == nil || tl.failed != 1 || tl.withinSLO != 0 {
		t.Errorf("tally after an incorrect reply: %+v", tl)
	}

	unknown := &target{url: proxy.URL(), viaProxy: true, bodyLen: 100, backends: map[string]int{"other": 0}}
	if _, _, err := g.do(hc, unknown, plainGET); !errors.Is(err, errIncorrect) {
		t.Errorf("reply naming an unconfigured backend: err = %v, want errIncorrect", err)
	}
	right := &target{url: proxy.URL(), viaProxy: true, bodyLen: 100, backends: map[string]int{"app1": 0}}
	if _, be, err := g.do(hc, right, plainGET); err != nil || be != 0 {
		t.Errorf("correct reply: backend %d, err %v", be, err)
	}
}

// TestCompareVerdicts feeds -compare synthetic report files.
func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, lat []float64, digest float64) string {
		path := filepath.Join(dir, name)
		for i, v := range lat {
			r := newReport(options{workload: wSimFull, seed: uint64(i)})
			for _, s := range endToEndSpecs {
				r.set(s.Name, 1, 1)
			}
			r.set("lat_p50_us", v, 1)
			r.set("model.digest", digest+float64(i), 1)
			if err := r.complete(); err != nil {
				t.Fatal(err)
			}
			if err := appendReport(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("a.jsonl", []float64{100, 101, 99, 100}, 1000)
	cases := []struct {
		name    string
		file    string
		verdict string
		worse   bool
	}{
		{"same", write("same.jsonl", []float64{100, 102, 98, 101}, 1000), "ok", false},
		{"slower", write("slower.jsonl", []float64{120, 121, 119, 120}, 1000), "worse", true},
		{"noisy", write("noisy.jsonl", []float64{80, 100, 120, 101}, 1000), "unresolved", false},
		{"nondeterministic", write("digest.jsonl", []float64{100, 101, 99, 100}, 2000), "worse: seed", true},
	}
	for _, c := range cases {
		var out bytes.Buffer
		worse, err := compareFiles(base, c.file, &out)
		if err != nil {
			t.Fatal(err)
		}
		if worse != c.worse || !strings.Contains(out.String(), c.verdict) {
			t.Errorf("%s: worse = %v, want %v; output lacks %q:\n%s", c.name, worse, c.worse, c.verdict, out.String())
		}
	}
}
