package cluster

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"millibalance/internal/obs"
	"millibalance/internal/probe"
)

var updateWire = flag.Bool("update-wire", false, "rewrite testdata/wire from the current output")

// The wire-format goldens were recorded before the event log and the
// tracer stopped allocating per record (chunked rings, ring-owned
// candidate tables, recycled spans): what `lbsim -decisions/-spans` and
// the admin endpoints write must not move by a byte when only the
// storage behind it changes.
//
// Per run, three things are pinned. The whole EventLog, Tracer and
// access-log streams by length and SHA-256 (a 3 s paper-scale log is
// 17 MB, too much to commit). The first few events of each kind as a
// file, collected through the log's append hook into a second, small
// EventLog whose complete WriteJSONL output is the golden: that also
// holds the hook to its contract, because the mirror must copy a
// candidate table that is only valid during the call. And the complete
// output of a deliberately small span ring that wrapped many times.

// wirePerKind is how many events of each kind the mirror keeps, the
// first ones of the run.
const wirePerKind = 6

// wireCases together cover every event kind the simulator emits:
// decisions with probe fields (full, shed) and without (stress), state
// transitions, admission drops, detector onsets and millibottlenecks
// (shed), rejects (stress).
func wireCases() map[string]Config {
	full := goldenFull(1)
	full.Duration = 3 * time.Second
	full.SpanCapacity = 300 // a chunk and a bit: the ring wraps ~150 times

	shed := goldenShed()
	shed.Policy = "prequal"
	shed.Probe = &probe.Config{}
	shed.SpanCapacity = 96

	stress := goldenStress()
	stress.EventCapacity = 1 << 12
	stress.SpanCapacity = 96
	return map[string]Config{"full3s": full, "shed": shed, "stress": stress}
}

func TestWireFormatGolden(t *testing.T) {
	for name, cfg := range wireCases() {
		t.Run(name, func(t *testing.T) {
			c := New(cfg)
			mirror := obs.NewEventLog(16 * wirePerKind)
			seen := map[string]int{}
			c.addEventHook(func(ev obs.Event) {
				// A decision taken once the probe pools have filled carries
				// the probe fields; count it as its own kind.
				key := ev.Kind
				for _, cand := range ev.Candidates {
					if cand.ProbeFresh {
						key += "+probe"
						break
					}
				}
				if seen[key] < wirePerKind {
					seen[key]++
					mirror.Append(ev)
				}
			})
			res := c.Run()

			var sampled, events, spans, access bytes.Buffer
			must := func(what string, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
			}
			must("sampled events", mirror.WriteJSONL(&sampled))
			must("events", res.Events.WriteJSONL(&events))
			must("spans", res.Spans.WriteJSONL(&spans))
			if res.Trace != nil {
				must("access log", res.Trace.WriteJSONL(&access))
			}
			digests := fmt.Sprintf("events %d %x\nspans %d %x\naccess %d %x\n",
				events.Len(), sha256.Sum256(events.Bytes()),
				spans.Len(), sha256.Sum256(spans.Bytes()),
				access.Len(), sha256.Sum256(access.Bytes()))

			checkWireGolden(t, name+".events.jsonl", sampled.Bytes())
			checkWireGolden(t, name+".spans.jsonl", spans.Bytes())
			checkWireGolden(t, name+".digests", []byte(digests))
		})
	}
}

// checkWireGolden compares got with testdata/wire/<file>, or rewrites the
// file under -update-wire.
func checkWireGolden(t *testing.T, file string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "wire", file)
	if *updateWire {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		line := 1 + bytes.Count(got[:commonPrefix(got, want)], []byte("\n"))
		t.Errorf("%s: output differs from the golden at line %d (%d bytes, golden %d)", file, line, len(got), len(want))
	}
}

func commonPrefix(a, b []byte) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}
