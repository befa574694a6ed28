package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Ring wraparound stress under concurrent append/snapshot, run with
// -race in CI. Both rings copy elements by value while holding their
// mutex, so a snapshot taken mid-wraparound must still be a contiguous
// oldest-first run of the appended sequence — no tears (reordered
// elements) and no gaps (elements skipped while the write cursor laps
// the reader). The tests pin that invariant by encoding a sequence
// number into each element and checking every snapshot is consecutive;
// any torn window shows up as a sequence jump, and any unsynchronized
// access shows up as a race report. The event log also owns each
// decision's candidate table and reuses it when the slot is
// overwritten, so every event's table is a function of its sequence
// number and every reader checks it: a table read while it was being
// overwritten, or handed out without being copied, is another event's.

// checkContiguous fails if seq is not a strictly +1 run.
func checkContiguous(t *testing.T, what string, seq []uint64) {
	t.Helper()
	for i := 1; i < len(seq); i++ {
		if seq[i] != seq[i-1]+1 {
			t.Fatalf("%s: torn snapshot: element %d has seq %d after %d (want %d)",
				what, i, seq[i], seq[i-1], seq[i-1]+1)
		}
	}
}

// stressNames are the candidate names of the stress decisions; which
// one a view carries is a function of its event's sequence number.
var stressNames = [...]string{"tomcat1", "tomcat2", "tomcat3", "tomcat4", "tomcat5"}

// stressEvent is event number i of the stress sequence: every third one
// a state event, the others decisions whose candidate table — 2 to 4
// views, so a slot's storage is reused at every length — is a function
// of i alone. views is the emitter's scratch, overwritten for the next
// event as soon as Append returns.
func stressEvent(i uint64, views []CandidateView) (Event, []CandidateView) {
	ev := Event{T: time.Duration(i), Kind: KindState, Backend: stressNames[i%5]}
	if i%3 == 0 {
		return ev, views
	}
	views = views[:0]
	for j := uint64(0); j < 2+i%3; j++ {
		views = append(views, CandidateView{
			Name: stressNames[(i+j)%5], LBValue: float64(i), InFlight: int(j), FreeEndpoints: int(i % 7),
		})
	}
	ev.Kind, ev.Candidates = KindDecision, views
	return ev, views
}

// checkStressEvent fails if ev is not exactly what stressEvent built
// for its sequence number: a candidate table torn by a concurrent
// overwrite, or one that aliases a slot (or the emitter's scratch) and
// changed after it was handed out, carries another event's values.
func checkStressEvent(t *testing.T, what string, ev Event) bool {
	t.Helper()
	want, _ := stressEvent(uint64(ev.T), nil)
	if ev.Kind != want.Kind || ev.Backend != want.Backend || len(ev.Candidates) != len(want.Candidates) {
		t.Errorf("%s: event %d reads %+v, want %+v", what, ev.T, ev, want)
		return false
	}
	for j := range want.Candidates {
		if ev.Candidates[j] != want.Candidates[j] {
			t.Errorf("%s: event %d candidate %d reads %+v, want %+v", what, ev.T, j, ev.Candidates[j], want.Candidates[j])
			return false
		}
	}
	return true
}

func TestEventLogWraparoundConcurrentSnapshots(t *testing.T) {
	// A chunk and a bit, so reads cross a chunk boundary and the short
	// last chunk.
	const capacity = ringChunk + 44
	const appends = 60_000
	l := NewEventLog(capacity)

	// Each reader takes snapshots until the appender is done, holds on to
	// the previous one while the ring moves on beneath it, and checks it
	// again: a copy that aliased a slot would have changed by then.
	reader := func(what string, step uint64, snapshot func() []Event) func() {
		return func() {
			var held []Event
			check := func(evs []Event) bool {
				if len(evs) > capacity {
					t.Errorf("%s: snapshot has %d events, capacity %d", what, len(evs), capacity)
					return false
				}
				for i, ev := range evs {
					if i > 0 && uint64(ev.T) != uint64(evs[i-1].T)+step {
						t.Errorf("%s: torn snapshot: element %d has seq %d after %d", what, i, ev.T, evs[i-1].T)
						return false
					}
					if !checkStressEvent(t, what, ev) {
						return false
					}
				}
				return true
			}
			for l.Appended() < appends {
				evs := snapshot()
				if !check(evs) || !check(held) {
					return
				}
				held = evs
			}
		}
	}
	readers := []func(){
		reader("Events", 1, l.Events),
		reader("Events", 1, l.Events),
		// State events are every third of the sequence.
		reader("Kind", 3, func() []Event { return l.Kind(KindState) }),
		// WriteJSONL may skip what was overwritten while it wrote, but
		// what it writes is whole and in order.
		func() {
			for l.Appended() < appends {
				var buf bytes.Buffer
				if err := l.WriteJSONL(&buf); err != nil {
					t.Error(err)
					return
				}
				last, lines := time.Duration(-1), 0
				for sc := bufio.NewScanner(&buf); sc.Scan(); lines++ {
					var ev Event
					if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
						t.Errorf("WriteJSONL: line %q: %v", sc.Bytes(), err)
						return
					}
					if ev.T <= last {
						t.Errorf("WriteJSONL: event %d after %d", ev.T, last)
						return
					}
					last = ev.T
					if !checkStressEvent(t, "WriteJSONL", ev) {
						return
					}
				}
				if lines > capacity {
					t.Errorf("WriteJSONL wrote %d lines, capacity %d", lines, capacity)
					return
				}
			}
		},
	}
	var wg sync.WaitGroup
	for _, r := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r()
		}()
	}

	// The appender wraps the ring ~200 times while the readers run, so
	// reads land on every cursor position.
	var views []CandidateView
	for i := uint64(1); i <= appends; i++ {
		var ev Event
		ev, views = stressEvent(i, views)
		l.Append(ev)
	}
	wg.Wait()

	if got := l.Appended(); got != appends {
		t.Fatalf("Appended() = %d, want %d", got, appends)
	}
	if got := l.Overwritten(); got != appends-capacity {
		t.Fatalf("Overwritten() = %d, want %d", got, appends-capacity)
	}
	final := l.Events()
	if len(final) != capacity {
		t.Fatalf("final snapshot has %d events, want %d", len(final), capacity)
	}
	if first := uint64(final[0].T); first != appends-capacity+1 {
		t.Fatalf("final snapshot starts at seq %d, want %d", first, appends-capacity+1)
	}
}

func TestTracerWraparoundConcurrentSnapshots(t *testing.T) {
	const capacity = 64
	const finishes = 50_000
	tr := NewTracer(capacity)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				spans := tr.Spans()
				seq := make([]uint64, len(spans))
				for i, sp := range spans {
					seq[i] = sp.RequestID
					// A recorded span must be complete: Finish stamps
					// EndAt before the ring copy, so a zero end on a
					// nonzero start is a torn element.
					if sp.EndAt < sp.StartAt {
						t.Errorf("span %d torn: EndAt %v < StartAt %v", sp.RequestID, sp.EndAt, sp.StartAt)
						return
					}
				}
				checkContiguous(t, "spans", seq)
			}
		}()
	}

	for i := 1; i <= finishes; i++ {
		sp := tr.Start(uint64(i), time.Duration(i))
		sp.Enter(StageWebThread, time.Duration(i))
		tr.Finish(sp, time.Duration(i)+time.Microsecond, true)
	}
	close(stop)
	wg.Wait()

	if got := tr.Finished(); got != finishes {
		t.Fatalf("Finished() = %d, want %d", got, finishes)
	}
	final := tr.Spans()
	if len(final) != capacity {
		t.Fatalf("final snapshot has %d spans, want %d", len(final), capacity)
	}
	if first := final[0].RequestID; first != finishes-capacity+1 {
		t.Fatalf("final snapshot starts at id %d, want %d", first, finishes-capacity+1)
	}
}

// tableEmitters is how many goroutines record decisions through tables
// of their own in TestEventLogTableEmittersConcurrent; emitter e's table
// is 2+e candidates wide, so chunks regrow their rows while readers run.
const tableEmitters = 3

// tableDecision is the candidate table emitter e records as its k-th
// decision, at time k*tableEmitters+e, rendered as a reader must see it.
func tableDecision(e, k int) Event {
	ev := Event{T: time.Duration(k*tableEmitters + e), Kind: KindDecision, Source: stressNames[e]}
	for j := 0; j < 2+e; j++ {
		ev.Candidates = append(ev.Candidates, CandidateView{
			Name: stressNames[j], LBValue: float64(k), State: stateNames[1+(k+j)%3],
			InFlight: j, FreeEndpoints: k % 7, ProbeInFlight: float64(j), ProbeFresh: (k+j)%2 == 0,
		})
	}
	ev.Chosen = stressNames[k%(2+e)]
	return ev
}

// checkTableEvent fails unless ev is whole: a decision exactly as its
// emitter recorded it, or one of the state marks.
func checkTableEvent(t *testing.T, what string, ev Event) bool {
	t.Helper()
	var want Event
	if ev.Kind == KindState {
		want = Event{T: ev.T, Kind: KindState, Backend: stressNames[int(ev.T)%5]}
	} else {
		want = tableDecision(int(ev.T)%tableEmitters, int(ev.T)/tableEmitters)
	}
	if !reflect.DeepEqual(ev, want) {
		t.Errorf("%s: event %d reads %+v, want %+v", what, ev.T, ev, want)
		return false
	}
	return true
}

// TestEventLogTableEmittersConcurrent is the table path's wraparound
// stress, run with -race in CI and not skipped under -short: emitters
// on their own goroutines record decisions through registered tables of
// different widths into a ring a chunk and a bit long, a fourth appends
// state events, a hook subscribed to decisions checks every decision it
// is handed, and Events, Kind and WriteJSONL readers check that every
// event they render is whole — each emitter's decisions a consecutive
// run in a snapshot, never a row of another decision.
func TestEventLogTableEmittersConcurrent(t *testing.T) {
	const capacity = ringChunk + 44
	const perEmitter = 20_000
	l := NewEventLog(capacity)
	var hooked atomic.Int64
	l.SetAppendHook(func(ev Event) {
		if ev.Kind == KindDecision {
			hooked.Add(1)
			checkTableEvent(t, "hook", ev)
		}
	}, true)

	var emitting sync.WaitGroup
	done := make(chan struct{})
	for e := 0; e < tableEmitters; e++ {
		tab := l.Table(stressNames[e], stressNames[:2+e], stateNames)
		emitting.Add(1)
		go func() {
			defer emitting.Done()
			var rows []Row
			for k := 0; k < perEmitter; k++ {
				want := tableDecision(e, k)
				rows = rows[:0]
				for j, c := range want.Candidates {
					rows = append(rows, Row{
						Name: tab.Name(j), State: tab.State(1 + (k+j)%3), LBValue: c.LBValue,
						InFlight: int32(c.InFlight), FreeEndpoints: int32(c.FreeEndpoints),
						ProbeInFlight: c.ProbeInFlight, ProbeFresh: c.ProbeFresh,
					})
				}
				tab.Append(want.T, k%(2+e), rows)
			}
		}()
	}
	emitting.Add(1)
	go func() {
		defer emitting.Done()
		for i := 0; i < perEmitter; i++ {
			l.Append(Event{T: time.Duration(i), Kind: KindState, Backend: stressNames[i%5]})
		}
	}()

	consecutive := func(what string, evs []Event) bool {
		last := map[string]int{}
		for _, ev := range evs {
			if !checkTableEvent(t, what, ev) {
				return false
			}
			if ev.Kind != KindDecision {
				continue
			}
			k := int(ev.T) / tableEmitters
			if prev, ok := last[ev.Source]; ok && k != prev+1 {
				t.Errorf("%s: %s's decision %d follows its %d", what, ev.Source, k, prev)
				return false
			}
			last[ev.Source] = k
		}
		return true
	}
	readers := []func(){
		func() {
			for ok := true; ok; {
				select {
				case <-done:
					return
				default:
				}
				ok = consecutive("Events", l.Events())
			}
		},
		func() {
			for ok := true; ok; {
				select {
				case <-done:
					return
				default:
				}
				ok = consecutive("Kind", l.Kind(KindDecision))
			}
		},
		func() {
			for {
				select {
				case <-done:
					return
				default:
				}
				var buf bytes.Buffer
				if err := l.WriteJSONL(&buf); err != nil {
					t.Error(err)
					return
				}
				for sc := bufio.NewScanner(&buf); sc.Scan(); {
					var ev Event
					if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
						t.Errorf("WriteJSONL: line %q: %v", sc.Bytes(), err)
						return
					}
					if !checkTableEvent(t, "WriteJSONL", ev) {
						return
					}
				}
			}
		},
	}
	var reading sync.WaitGroup
	for _, r := range readers {
		reading.Add(1)
		go func() {
			defer reading.Done()
			r()
		}()
	}
	emitting.Wait()
	close(done)
	reading.Wait()

	if got := hooked.Load(); got != tableEmitters*perEmitter {
		t.Fatalf("the hook saw %d decisions, want %d", got, tableEmitters*perEmitter)
	}
	if got := l.Appended(); got != (tableEmitters+1)*perEmitter {
		t.Fatalf("Appended() = %d, want %d", got, (tableEmitters+1)*perEmitter)
	}
	consecutive("final Events", l.Events())
}
