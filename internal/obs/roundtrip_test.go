package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

// roundTripEvents is one event of every kind, with every field its kind
// carries set, as an emitter passes it to Append.
func roundTripEvents(i int) []Event {
	t := time.Duration(i) * time.Millisecond
	return []Event{
		{T: t, Kind: KindDecision, Source: "apache1", Chosen: "tomcat3", Candidates: []CandidateView{
			{Name: "tomcat1", LBValue: 1.5, State: "available", InFlight: 3, FreeEndpoints: 2,
				ProbeInFlight: 2, ProbeLatencyMs: 4.25, ProbeAgeMs: 0.5},
			{Name: "tomcat3", LBValue: float64(i), State: "busy", InFlight: -1,
				ProbeInFlight: 1, ProbeLatencyMs: 9, ProbeAgeMs: 12, ProbeFresh: true},
		}},
		{T: t + 1, Kind: KindState, Source: "apache1", Backend: "tomcat2", From: "available", To: "busy"},
		{T: t + 2, Kind: KindReject, Source: "apache2"},
		{T: t + 3, Kind: KindOnset, Source: "tomcat1", SpanStart: t - 50*time.Millisecond, SpanEnd: t},
		{T: t + 4, Kind: KindMillibottleneck, Source: "tomcat1", SpanStart: t - 300*time.Millisecond, SpanEnd: t,
			QueuePeak: 41.5, QueuePeakAt: t - 100*time.Millisecond},
		{T: t + 5, Kind: KindFaultStart, Source: "injector", Backend: "tomcat4", Fault: "stall", Window: 300 * time.Millisecond},
		{T: t + 6, Kind: KindFaultEnd, Source: "injector", Backend: "tomcat4", Fault: "stall", Window: 300 * time.Millisecond},
		{T: t + 7, Kind: KindShed, Source: "proxy"},
		{T: t + 8, Kind: KindRetry, Source: "proxy", Backend: "tomcat1"},
		{T: t + 9, Kind: KindAdmissionDrop, Source: "apache1", Reason: "codel", Class: "background"},
	}
}

// checkRendered fails unless every reader of l renders exactly want:
// Events, Kind for each kind in it, and WriteJSONL.
func checkRendered(t *testing.T, what string, l *EventLog, want []Event) {
	t.Helper()
	if got := l.Events(); !reflect.DeepEqual(got, want) {
		for i := range want {
			if i >= len(got) || !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("%s: Events()[%d] of %d:\n got %+v\nwant %+v", what, i, len(got), got[i:min(i+1, len(got))], want[i])
			}
		}
		t.Fatalf("%s: Events() has %d events, want %d", what, len(got), len(want))
	}
	byKind := map[string][]Event{}
	for _, ev := range want {
		byKind[ev.Kind] = append(byKind[ev.Kind], ev)
	}
	for kind, evs := range byKind {
		if got := l.Kind(kind); !reflect.DeepEqual(got, evs) {
			t.Fatalf("%s: Kind(%q) reads %+v, want %+v", what, kind, got, evs)
		}
	}
	var got, wantJSON bytes.Buffer
	if err := l.WriteJSONL(&got); err != nil {
		t.Fatal(err)
	}
	enc := json.NewEncoder(&wantJSON)
	for i := range want {
		if err := enc.Encode(&want[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got.Bytes(), wantJSON.Bytes()) {
		t.Fatalf("%s: WriteJSONL wrote\n%s\nwant\n%s", what, got.Bytes(), wantJSON.Bytes())
	}
}

// TestEventRoundTrip: every kind of event, appended through Append or a
// registered Table, reads back from every reader exactly as it went in,
// however the ring stores it — the slot, the chunk's ext entry, rows
// with ProbeFresh packed into the state id. Then a 300-event ring, two
// chunks, is filled with detector, state and fault events and lapped
// by decisions with a few of those mixed in: a decision stored over an
// event with ext fields reads none of them.
func TestEventRoundTrip(t *testing.T) {
	l := NewEventLog(1024)
	var want []Event
	for i := 0; i < 3; i++ {
		for _, ev := range roundTripEvents(i) {
			l.Append(ev)
			want = append(want, ev)
		}
	}

	// Through a Table: probe fields, and ProbeFresh on every state.
	names := []string{"tomcat1", "tomcat2", "tomcat3", "tomcat4"}
	tab := l.Table("apache2", names, stateNames)
	for s := range stateNames {
		for _, fresh := range []bool{false, true} {
			rows := make([]Row, len(names))
			views := make([]CandidateView, len(names))
			for i := range rows {
				rows[i] = Row{Name: tab.Name(i), State: tab.State(s), ProbeFresh: fresh, LBValue: float64(s*10 + i),
					InFlight: int32(i - 1), FreeEndpoints: int32(s), ProbeInFlight: float64(i), ProbeLatencyMs: 0.125, ProbeAgeMs: 3}
				views[i] = CandidateView{Name: names[i], State: stateNames[s], ProbeFresh: fresh, LBValue: float64(s*10 + i),
					InFlight: i - 1, FreeEndpoints: s, ProbeInFlight: float64(i), ProbeLatencyMs: 0.125, ProbeAgeMs: 3}
			}
			at := time.Duration(100+len(want)) * time.Millisecond
			tab.Append(at, s, rows)
			want = append(want, Event{T: at, Kind: KindDecision, Source: "apache2", Chosen: names[s], Candidates: views})
		}
	}
	checkRendered(t, "every kind", l, want)

	// Decisions alone leave a chunk without an ext array.
	dec := NewEventLog(300)
	decTab := dec.Table("apache1", names, stateNames)
	rows := []Row{{Name: decTab.Name(0), State: decTab.State(1), ProbeFresh: true}, {Name: decTab.Name(1)}}
	for i := 0; i < 300; i++ {
		decTab.Append(time.Duration(i), i%2, rows)
	}
	for c, x := range dec.ext {
		if x != nil {
			t.Fatalf("a log of decisions allocated an ext array for chunk %d", c)
		}
	}

	// Lap a two-chunk ring: non-decision events first, then decisions
	// with every seventh event of another kind.
	const capacity = 300
	l = NewEventLog(capacity)
	tab = l.Table("apache1", names, stateNames)
	want = want[:0]
	kinds := roundTripEvents(0)[1:] // every kind but the decision
	for i := 0; i < 3*capacity+17; i++ {
		if i < capacity || i%7 == 0 {
			ev := kinds[i%len(kinds)]
			ev.T = time.Duration(i)
			l.Append(ev)
			want = append(want, ev)
			continue
		}
		fresh := i%3 == 0
		rows := []Row{
			{Name: tab.Name(i % 4), State: tab.State(1 + i%3), LBValue: float64(i), ProbeFresh: fresh},
			{Name: tab.Name((i + 1) % 4), State: tab.State(1 + (i+1)%3), InFlight: int32(i % 5)},
		}
		tab.Append(time.Duration(i), (i+1)%4, rows)
		want = append(want, Event{T: time.Duration(i), Kind: KindDecision, Source: "apache1", Chosen: names[(i+1)%4],
			Candidates: []CandidateView{
				{Name: names[i%4], State: stateNames[1+i%3], LBValue: float64(i), ProbeFresh: fresh},
				{Name: names[(i+1)%4], State: stateNames[1+(i+1)%3], InFlight: i % 5},
			}})
		if i == capacity+ringChunk || i == 2*capacity+capacity/2 {
			checkRendered(t, "mid-lap", l, want[len(want)-capacity:])
		}
	}
	checkRendered(t, "after three laps", l, want[len(want)-capacity:])
}
