package check

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"millibalance/internal/httpcluster"
)

// writeFailure persists a minimized failing script under
// testdata/failures/ so CI can upload it as an artifact and a developer
// can reproduce the divergence off-machine (and, once fixed, promote it
// into testdata/ as a committed regression).
func writeFailure(t *testing.T, tag string, s Script) string {
	t.Helper()
	dir := filepath.Join("testdata", "failures")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatalf("mkdir %s: %v", dir, err)
	}
	path := filepath.Join(dir, tag+".script")
	if err := os.WriteFile(path, []byte(s.Marshal()), 0o644); err != nil {
		t.Fatalf("write %s: %v", path, err)
	}
	return path
}

var updateDecisions = flag.Bool("update-decisions", false, "rewrite testdata/decisions.golden from this run's digests")

// decisionsPath holds one SHA-256 per generated cell and per corpus
// script: the digest Run writes of every acquire's choice and the
// drained end state. It pins the balancer's decisions byte for byte, so
// a change to how dispatch is built cannot move what it decides.
var decisionsPath = filepath.Join("testdata", "decisions.golden")

// decisionsMu serializes the parallel cells' reads and rewrites of the
// golden file.
var decisionsMu sync.Mutex

// readDecisions parses the golden file into key → hex digest; a missing
// file reads as empty.
func readDecisions(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	f, err := os.Open(decisionsPath)
	if os.IsNotExist(err) {
		return out
	}
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, sum, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", decisionsPath, line)
		}
		out[key] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// checkDecisions compares one digest against its golden line or, under
// -update-decisions, rewrites that line and keeps the others.
func checkDecisions(t *testing.T, key string, sum []byte) {
	t.Helper()
	got := hex.EncodeToString(sum)
	decisionsMu.Lock()
	defer decisionsMu.Unlock()
	golden := readDecisions(t)
	if !*updateDecisions {
		if want, ok := golden[key]; !ok {
			t.Fatalf("%s has no digest for %s (run with -update-decisions to record it)", decisionsPath, key)
		} else if got != want {
			t.Fatalf("%s: decisions digest %s, golden %s", key, got, want)
		}
		return
	}
	golden[key] = got
	keys := make([]string, 0, len(golden))
	for k := range golden {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("# SHA-256 of check.Run's decision digest per generated cell and corpus script.\n")
	b.WriteString("# Rewrite with: go test ./internal/check -run 'TestDifferential' -update-decisions\n")
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %s\n", k, golden[k])
	}
	if err := os.WriteFile(decisionsPath, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestDifferentialGenerated is the acceptance gate: 10k generated
// scripts across all four deterministic policies × both mechanisms with
// no invariant violated and, per cell, the decisions' digest equal to
// its golden. On a violation the script is ddmin-minimized and written
// under testdata/failures/ before the test aborts.
func TestDifferentialGenerated(t *testing.T) {
	const perCell = 1250 // × 4 policies × 2 mechanisms = 10k scripts
	mechs := []httpcluster.Mechanism{httpcluster.MechanismModified, httpcluster.MechanismOriginal}
	for pi, policy := range scriptPolicies {
		for mi, mech := range mechs {
			policy, mech := policy, mech
			cell := uint64(pi*len(mechs)+mi) << 32
			t.Run(fmt.Sprintf("%s/%s", policy, mechName(mech)), func(t *testing.T) {
				t.Parallel()
				digest := sha256.New()
				for i := 0; i < perCell; i++ {
					seed := cell | uint64(i)
					s := Generate(seed)
					// Pin the cell's starting point so the 4×2 coverage is
					// guaranteed rather than probabilistic; the ops still
					// hot-swap both dimensions mid-script.
					s.Policy = policy
					s.Mech = mech
					if f := Run(s, digest); f != nil {
						min := Shrink(s, func(c Script) bool { return Run(c, nil) != nil })
						path := writeFailure(t, fmt.Sprintf("gen-%d", seed), min)
						t.Fatalf("seed %#x violated an invariant: %v\nminimized (%d ops) written to %s:\n%s",
							seed, f, len(min.Ops), path, min.Marshal())
					}
				}
				checkDecisions(t, fmt.Sprintf("generated/%s/%s", policy, mechName(mech)), digest.Sum(nil))
			})
		}
	}
}

// TestDifferentialCorpus replays every committed script under
// testdata/ and checks its decisions against the golden. Each file is
// the minimized form of a divergence or invariant violation this
// harness found — the regression suite for the bugs fixed in the same
// change that introduced the harness.
func TestDifferentialCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.script"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no corpus scripts under testdata/")
	}
	for _, file := range files {
		file := file
		t.Run(filepath.Base(file), func(t *testing.T) {
			raw, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			s, err := Unmarshal(string(raw))
			if err != nil {
				t.Fatalf("unmarshal: %v", err)
			}
			digest := sha256.New()
			if f := Run(s, digest); f != nil {
				t.Fatalf("regression reproduced: %v", f)
			}
			checkDecisions(t, "corpus/"+filepath.Base(file), digest.Sum(nil))
		})
	}
}

// TestScriptRoundTrip pins the corpus text format: Marshal∘Unmarshal is
// the identity on generated scripts, so a committed regression replays
// exactly the ops that were minimized.
func TestScriptRoundTrip(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		s := Generate(seed)
		parsed, err := Unmarshal(s.Marshal())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if parsed.Arm != s.Arm || parsed.Backends != s.Backends ||
			parsed.Endpoints != s.Endpoints || parsed.Policy != s.Policy ||
			parsed.Mech != s.Mech || len(parsed.Ops) != len(s.Ops) {
			t.Fatalf("seed %d: header mismatch: %+v vs %+v", seed, parsed, s)
		}
		for i := range s.Ops {
			a, b := s.Ops[i], parsed.Ops[i]
			same := a.Kind == b.Kind && a.A == b.A && a.B == b.B &&
				a.On == b.On && a.Policy == b.Policy && a.Mech == b.Mech &&
				(a.F == b.F || (a.F != a.F && b.F != b.F)) // NaN round-trips as NaN
			if !same {
				t.Fatalf("seed %d op %d: %+v vs %+v", seed, i, a, b)
			}
		}
	}
}

// TestShrinkMinimizes sanity-checks the shrinker on a synthetic
// predicate: from a 100-op script where failure only needs one specific
// op, ddmin must reduce to exactly that op.
func TestShrinkMinimizes(t *testing.T) {
	s := Generate(42)
	for len(s.Ops) < 100 {
		s.Ops = append(s.Ops, Generate(uint64(len(s.Ops))).Ops...)
	}
	s.Ops = s.Ops[:100]
	s.Ops[57] = Op{Kind: OpWeight, A: 1, F: -12345}
	fails := func(c Script) bool {
		for _, op := range c.Ops {
			if op.Kind == OpWeight && op.F == -12345 {
				return true
			}
		}
		return false
	}
	min := Shrink(s, fails)
	if len(min.Ops) != 1 || min.Ops[0].F != -12345 {
		t.Fatalf("shrunk to %d ops, want the single sentinel op: %+v", len(min.Ops), min.Ops)
	}
}
