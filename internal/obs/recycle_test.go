package obs

import (
	"reflect"
	"testing"
	"time"
	"unsafe"
)

// fourCandidates is the paper testbed's decision: four application
// servers per balancer.
func fourCandidates(i int) []CandidateView {
	return []CandidateView{
		{Name: "tomcat1", LBValue: float64(i), State: "available", InFlight: 1, FreeEndpoints: 3},
		{Name: "tomcat2", LBValue: float64(i + 1), State: "busy", InFlight: 4},
		{Name: "tomcat3", LBValue: float64(i + 2), State: "available", FreeEndpoints: 4, ProbeInFlight: 2, ProbeFresh: true},
		{Name: "tomcat4", LBValue: float64(i + 3), State: "error"},
	}
}

// TestEventLogAppendZeroAlloc: once the ring has wrapped, every chunk
// owns row storage as wide as the decisions that come, and recording a
// decision passed as an Event copies into it and finds its strings
// already interned.
func TestEventLogAppendZeroAlloc(t *testing.T) {
	const capacity = 2*ringChunk + 10
	l := NewEventLog(capacity)
	views := fourCandidates(0)
	for i := 0; i < capacity+1; i++ {
		l.Append(Event{T: time.Duration(i), Kind: KindDecision, Source: "apache1", Chosen: "tomcat1", Candidates: views})
	}
	allocs := testing.AllocsPerRun(2*capacity, func() {
		views[0].LBValue++
		l.Append(Event{T: 1, Kind: KindDecision, Source: "apache1", Chosen: "tomcat1", Candidates: views})
	})
	if allocs != 0 {
		t.Fatalf("Append on a wrapped ring allocates %.2f objects per event, want 0", allocs)
	}
}

// TestTracerStartFinishZeroAlloc: a request's span comes off the free
// list and goes back on it.
func TestTracerStartFinishZeroAlloc(t *testing.T) {
	tr := NewTracer(ringChunk + 10)
	var id uint64
	request := func() {
		id++
		now := time.Duration(id) * time.Millisecond
		sp := tr.Start(id, now)
		sp.Enter(StageWebThread, now)
		sp.Add(StageLink, time.Microsecond)
		tr.Finish(sp, now+time.Millisecond, true)
	}
	for i := 0; i < ringChunk+11; i++ {
		request()
	}
	if allocs := testing.AllocsPerRun(1000, request); allocs != 0 {
		t.Fatalf("Start→Finish at steady state allocates %.2f objects per request, want 0", allocs)
	}
}

// TestRingsAllocateChunksOnDemand: constructing a paper-scale log or
// tracer allocates the chunk table and no storage; ten records allocate
// one chunk; a ring smaller than a chunk gets a chunk of its own size.
func TestRingsAllocateChunksOnDemand(t *testing.T) {
	l := NewEventLog(65536)
	tr := NewTracer(4096)
	chunks := func(table [][]slot) (n int) {
		for _, c := range table {
			if c != nil {
				n++
			}
		}
		return n
	}
	if got := len(l.ring.chunks); got != 65536/ringChunk {
		t.Fatalf("chunk table has %d entries, want %d", got, 65536/ringChunk)
	}
	if chunks(l.ring.chunks) != 0 || tr.ring.chunks[0] != nil {
		t.Fatal("a new ring already holds storage")
	}
	for i := 0; i < 10; i++ {
		l.Append(Event{T: time.Duration(i), Kind: KindReject})
	}
	if got := chunks(l.ring.chunks); got != 1 {
		t.Fatalf("ten events allocated %d chunks, want 1", got)
	}
	small := NewEventLog(3)
	small.Append(Event{Kind: KindReject})
	if got := len(small.ring.chunks[0]); got != 3 {
		t.Fatalf("a 3-event ring allocated a chunk of %d", got)
	}
}

// TestRingOrderAcrossChunks walks a ring whose capacity is not a
// multiple of the chunk size through several laps and checks the
// readers see the newest `capacity` records, oldest first, at every
// fill level on the way.
func TestRingOrderAcrossChunks(t *testing.T) {
	const capacity = 2*ringChunk + 37
	l := NewEventLog(capacity)
	for i := 1; i <= 3*capacity+5; i++ {
		l.Append(Event{T: time.Duration(i), Kind: KindReject})
		if i%97 != 0 && i != 3*capacity+5 {
			continue
		}
		evs := l.Events()
		want := min(i, capacity)
		if len(evs) != want || l.Len() != want || l.Overwritten() != uint64(i-want) {
			t.Fatalf("after %d appends: %d events, Len %d, Overwritten %d", i, len(evs), l.Len(), l.Overwritten())
		}
		for k, ev := range evs {
			if int(ev.T) != i-want+1+k {
				t.Fatalf("after %d appends: element %d is event %d, want %d", i, k, ev.T, i-want+1+k)
			}
		}
	}
}

// TestEventLogOwnsCandidateTables: the log copies the emitter's scratch
// in, the readers copy the slot out, and a slot overwritten by an event
// without candidates does not show its predecessor's.
func TestEventLogOwnsCandidateTables(t *testing.T) {
	l := NewEventLog(2)
	scratch := fourCandidates(10)
	want := fourCandidates(10)
	l.Append(Event{T: 1, Kind: KindDecision, Candidates: scratch})
	scratch[0].Name, scratch[3].LBValue = "overwritten", -1 // the emitter moves on

	first := l.Events()
	if !reflect.DeepEqual(first[0].Candidates, want) {
		t.Fatalf("stored table follows the emitter's scratch: %+v", first[0].Candidates)
	}
	first[0].Candidates[1].State = "scribbled" // a reader may do as it likes with its copy
	byKind := l.Kind(KindDecision)
	if !reflect.DeepEqual(byKind[0].Candidates, want) {
		t.Fatalf("one reader's copy aliases another's, or the slot: %+v", byKind[0].Candidates)
	}

	l.Append(Event{T: 2, Kind: KindState})
	l.Append(Event{T: 3, Kind: KindReject}) // overwrites the decision's slot
	l.Append(Event{T: 4, Kind: KindDecision, Candidates: scratch[:2]})
	evs := l.Events()
	if evs[0].Kind != KindReject || evs[0].Candidates != nil {
		t.Fatalf("reject in a reused slot carries candidates: %+v", evs[0])
	}
	if len(evs[1].Candidates) != 2 || evs[1].Candidates[0].Name != "overwritten" {
		t.Fatalf("decision in a reused slot: %+v", evs[1])
	}
	if !reflect.DeepEqual(byKind[0].Candidates, want) {
		t.Fatalf("an earlier reader's copy changed when its slot was reused: %+v", byKind[0].Candidates)
	}
}

// mustPanic runs fn and fails unless it panics.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s on a finished span did not panic", what)
		}
	}()
	fn()
}

// TestFinishedSpanIsPoisoned: Finish takes the span back, and until the
// tracer hands it out again every touch through the stale pointer is a
// panic — not a stage quietly written into the next request's span. The
// next Start returns the same span, clean.
func TestFinishedSpanIsPoisoned(t *testing.T) {
	tr := NewTracer(4)
	sp := tr.Start(1, 0)
	sp.Enter(StageDBCall, time.Millisecond)
	sp.Enter(StageWebThread, time.Millisecond)
	sp.Exit(StageDBCall, 3*time.Millisecond)
	if b := tr.Finish(sp, 5*time.Millisecond, true); b.DBCall != 2*time.Millisecond || b.WebThread != 4*time.Millisecond {
		t.Fatalf("Finish returned %+v", b)
	}

	mustPanic(t, "Enter", func() { sp.Enter(StageLink, 0) })
	mustPanic(t, "Exit", func() { sp.Exit(StageWebThread, 0) })
	mustPanic(t, "Add", func() { sp.Add(StageLink, time.Second) })
	mustPanic(t, "Duration", func() { sp.Duration(StageDBCall) })
	mustPanic(t, "Breakdown", func() { sp.Breakdown() })
	mustPanic(t, "Finish", func() { tr.Finish(sp, time.Second, false) })
	if tr.Finished() != 1 {
		t.Fatalf("a second Finish was recorded: finished=%d", tr.Finished())
	}

	again := tr.Start(2, 10*time.Millisecond)
	if again != sp {
		t.Fatal("Start did not reuse the finished span")
	}
	if again.RequestID != 2 || again.Breakdown() != (Breakdown{}) || again.EndAt != 0 || again.OK {
		t.Fatalf("reused span is not clean: %+v", *again)
	}
	again.Enter(StageDBCall, 10*time.Millisecond) // the old span left it closed
	tr.Finish(again, 11*time.Millisecond, false)
	spans := tr.Spans()
	if len(spans) != 2 || spans[0].Breakdown().DBCall != 2*time.Millisecond || spans[1].Breakdown().DBCall != time.Millisecond {
		t.Fatalf("ring copies were disturbed by the reuse: %+v", spans)
	}

	// Spans are handed out last in, first out.
	a, b := tr.Start(3, 0), tr.Start(4, 0)
	tr.Finish(a, 1, true)
	tr.Finish(b, 1, true)
	if tr.Start(5, 0) != b || tr.Start(6, 0) != a {
		t.Fatal("free list is not LIFO")
	}
}

// TestStoredRecordsArePointerFree: the event ring's slots and rows hold
// no pointer, so their arrays are memory the collector never scans and
// storing a record takes no write barrier. A field added later that
// holds a string, slice, map, interface or pointer fails here instead of
// quietly bringing the scanning back.
func TestStoredRecordsArePointerFree(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice, reflect.Map,
			reflect.Interface, reflect.Chan, reflect.Func:
			t.Errorf("%s is a %s: the event ring would be scanned by the collector", path, typ.Kind())
		}
	}
	walk("slot", reflect.TypeOf(slot{}))
	walk("ext", reflect.TypeOf(ext{}))
	walk("Row", reflect.TypeOf(Row{}))
	walk("storedRow", reflect.TypeOf(storedRow{}))
	walk("finishedSpan", reflect.TypeOf(finishedSpan{}))
}

// TestStoredRecordLayout pins the widths the rings store records at: a
// slot carries only what a decision fills in, the other events' fields
// live in the chunk's ext array, a row packs ProbeFresh into its state
// id, and a finished span drops the open-stage bookkeeping. At these
// widths a chunk of slots (6 KB), of ext entries (16 KB), of four-row
// tables (48 KB, six pages) and of spans (28 KB) each fill their
// allocation exactly. A field added later that widens one fails here.
func TestStoredRecordLayout(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"slot", unsafe.Sizeof(slot{}), 24},
		{"ext", unsafe.Sizeof(ext{}), 64},
		{"storedRow", unsafe.Sizeof(storedRow{}), 48},
		{"finishedSpan", unsafe.Sizeof(finishedSpan{}), 112},
	} {
		if c.got != c.want {
			t.Errorf("%s is %d bytes, want %d", c.name, c.got, c.want)
		}
	}
}

// stateNames are the state names the tests' tables register, indexed by
// state number the way lb.StateNames is.
var stateNames = []string{"State(0)", "available", "busy", "error"}

// TestTableAppendZeroAlloc: once the ring has wrapped, every chunk holds
// row storage as wide as the tables that come, and recording a decision
// through a registered table copies its rows into it and looks up no
// string.
func TestTableAppendZeroAlloc(t *testing.T) {
	const capacity = 2*ringChunk + 10
	l := NewEventLog(capacity)
	names := []string{"tomcat1", "tomcat2", "tomcat3", "tomcat4"}
	tab := l.Table("apache1", names, stateNames)
	rows := make([]Row, len(names))
	for i := range rows {
		rows[i] = Row{Name: tab.Name(i), State: tab.State(1 + i%3), InFlight: int32(i), FreeEndpoints: 3}
	}
	for i := 0; i < capacity+1; i++ {
		tab.Append(time.Duration(i), i%len(names), rows)
	}
	allocs := testing.AllocsPerRun(2*capacity, func() {
		rows[0].LBValue++
		tab.Append(1, 2, rows)
	})
	if allocs != 0 {
		t.Fatalf("Table.Append on a wrapped ring allocates %.2f objects per decision, want 0", allocs)
	}
	ev := l.Events()[capacity-1]
	if ev.Kind != KindDecision || ev.Source != "apache1" || ev.Chosen != "tomcat3" || len(ev.Candidates) != 4 ||
		ev.Candidates[3] != (CandidateView{Name: "tomcat4", State: "available", InFlight: 3, FreeEndpoints: 3}) {
		t.Fatalf("last decision reads %+v", ev)
	}
	var nilTab *Table
	nilTab.Append(0, 0, rows) // a nil log's table
	if (*EventLog)(nil).Table("x", names, stateNames) != nil {
		t.Fatal("a nil log registered a table")
	}
}

// TestTableWidensChunkRows: a chunk's row storage is as wide as the
// widest table it has stored; a wider one regrows it, and the narrower
// tables stored before read as they were.
func TestTableWidensChunkRows(t *testing.T) {
	l := NewEventLog(8)
	narrow := l.Table("a", []string{"x", "y"}, stateNames)
	wide := l.Table("b", []string{"x", "y", "z", "w", "v"}, stateNames)
	row := func(tab *Table, i int) Row { return Row{Name: tab.Name(i), State: tab.State(2), LBValue: float64(i)} }
	narrow.Append(1, 1, []Row{row(narrow, 0), row(narrow, 1)})
	l.Append(Event{T: 2, Kind: KindState, Backend: "x"})
	wide.Append(3, 4, []Row{row(wide, 0), row(wide, 1), row(wide, 2), row(wide, 3), row(wide, 4)})
	if got := l.rows[0].stride; got != 5 {
		t.Fatalf("chunk row stride %d after a 5-row table, want 5", got)
	}
	evs := l.Events()
	if len(evs) != 3 || len(evs[0].Candidates) != 2 || evs[0].Candidates[1] != (CandidateView{Name: "y", State: "busy", LBValue: 1}) ||
		evs[1].Candidates != nil || len(evs[2].Candidates) != 5 || evs[2].Chosen != "v" || evs[2].Candidates[4].Name != "v" {
		t.Fatalf("after regrowing: %+v", evs)
	}
}

// TestInternTableIsBounded: a long run of decisions (through a table
// and through Append) and state events over a fixed backend set leaves
// the intern table at the count of distinct strings it has seen.
func TestInternTableIsBounded(t *testing.T) {
	l := NewEventLog(300)
	names := []string{"tomcat1", "tomcat2", "tomcat3", "tomcat4"}
	tabs := []*Table{l.Table("apache1", names, stateNames), l.Table("apache2", names, stateNames)}
	distinct := map[string]bool{"": true, KindDecision: true, KindState: true, KindReject: true, "apache1": true, "apache2": true}
	for _, s := range append(names, stateNames...) {
		distinct[s] = true
	}
	rows := make([]Row, len(names))
	for i := 0; i < 50_000; i++ {
		tab := tabs[i%2]
		for j := range rows {
			rows[j] = Row{Name: tab.Name(j), State: tab.State(1 + (i+j)%3), LBValue: float64(i)}
		}
		switch i % 4 {
		case 0, 1:
			tab.Append(time.Duration(i), i%4, rows)
		case 2:
			l.Append(Event{T: time.Duration(i), Kind: KindState, Source: "apache1", Backend: names[i%4],
				From: stateNames[1+i%3], To: stateNames[1+(i+1)%3]})
		case 3:
			l.Append(Event{T: time.Duration(i), Kind: KindDecision, Source: "apache2", Chosen: names[i%4],
				Candidates: fourCandidates(i)})
			l.Append(Event{T: time.Duration(i), Kind: KindReject, Source: "apache2"})
		}
	}
	if len(l.strs) != len(distinct) || len(l.ids) != len(distinct) {
		t.Fatalf("intern table holds %d strings (%d ids) after 50 000 events over %d distinct ones: %q",
			len(l.strs), len(l.ids), len(distinct), l.strs)
	}
}
