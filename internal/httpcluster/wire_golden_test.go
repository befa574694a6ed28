package httpcluster

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"millibalance/internal/obs"
	"millibalance/internal/probe"
)

var updateWire = flag.Bool("update-wire", false, "rewrite testdata/wire from the current output")

// TestWireFormatGolden pins what /admin/events serves, recorded before
// the event log started owning its candidate tables: a scripted run of
// the wall-clock balancer whose every event is re-stamped from a fake
// clock by the log's append hook and mirrored into a second log, so the
// golden holds the emitters' field sets (decision without and with
// probe samples, state, reject, and the proxy's shed and retry marks)
// and the mirror has to copy a candidate table that is valid only
// during the call.
func TestWireFormatGolden(t *testing.T) {
	var clock time.Duration
	tick := func() time.Duration { clock += 250 * time.Microsecond; return clock }

	log := obs.NewEventLog(64)
	mirror := obs.NewEventLog(64)
	log.SetAppendHook(func(ev obs.Event) {
		ev.T = tick()
		mirror.Append(ev)
	}, true)

	a, b := NewBackend("app1", "u", 1), NewBackend("app2", "u", 1)
	// current_load, not prequal: the choice must follow from the
	// counters alone, while the attached pools still enrich each
	// decision. No recovery falls due inside the test.
	bal := NewBalancer(PolicyCurrentLoad, MechanismModified, []*Backend{a, b},
		Config{Sweeps: 1, BusyRecovery: time.Hour, ErrorRecovery: time.Hour})
	pools := probe.NewPools(probe.Config{}, func() time.Duration { return clock })
	bal.SetProbePools(pools, nil)
	bal.SetEventLog(log, "proxy", time.Now())

	acquire := func() Release {
		t.Helper()
		_, rel, err := bal.Acquire(128)
		if err != nil {
			t.Fatal(err)
		}
		return rel
	}
	first := acquire() // empty pools: no probe fields
	pools.Observe("app1", 3, 4*time.Millisecond)
	tick()
	pools.Observe("app2", 1, 1500*time.Microsecond)
	second := acquire() // both candidates carry a sample, aged differently
	// Both single-endpoint pools are taken: the sweep tries each backend
	// once, marks it Busy and gives up.
	if _, _, err := bal.Acquire(128); err != ErrNoBackend {
		t.Fatalf("third Acquire: %v, want ErrNoBackend", err)
	}
	first.Done(512) // Busy → Available on a completed response
	second.Fail()
	acquire().Done(64)
	// The two marks Proxy.handle leaves, as it writes them.
	log.Append(obs.Event{T: 1, Kind: obs.KindShed, Source: "proxy"})
	log.Append(obs.Event{T: 1, Kind: obs.KindRetry, Source: "proxy"})

	var got bytes.Buffer
	if err := mirror.WriteJSONL(&got); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "wire", "balancer.events.jsonl")
	if *updateWire {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("event stream differs from %s\n got:\n%s\nwant:\n%s", path, got.Bytes(), want)
	}
}
