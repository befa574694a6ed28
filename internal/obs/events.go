package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"millibalance/internal/stats"
)

// Event kinds recorded in an EventLog.
const (
	// KindDecision is one balancer dispatch: the chosen backend plus
	// every candidate's lb_value and state at decision time (the
	// Figs. 10–11 table, captured per decision instead of sampled).
	KindDecision = "decision"
	// KindState is one candidate state transition of the balancer's
	// 3-state machine (Available/Busy/Error).
	KindState = "state"
	// KindReject is a dispatch the balancer gave up on (no endpoint
	// within the mechanism's budget).
	KindReject = "reject"
	// KindOnset is emitted by the online detector the moment the first
	// saturated window of a (potential) millibottleneck is confirmed.
	KindOnset = "mb_onset"
	// KindMillibottleneck is emitted when a saturation span closes
	// inside the millibottleneck duration band, with the queue-peak
	// correlation attached.
	KindMillibottleneck = "millibottleneck"
	// KindFaultStart marks the opening of one injected fault window
	// (internal/faults): Source is the injector, Backend the target,
	// Fault the shape kind and Window the window length.
	KindFaultStart = "fault_start"
	// KindFaultEnd marks the close of that window.
	KindFaultEnd = "fault_end"
	// KindShed is a request fast-failed with 503 at the proxy door
	// because the worker pool stayed saturated past the shed budget —
	// the resilience layer's alternative to piling blocked goroutines.
	KindShed = "shed"
	// KindRetry is one resilience-layer retry hop after an upstream
	// failure (each hop spends one global retry-budget token).
	KindRetry = "retry"
	// KindAdmissionDrop is a request shed by the overload-control
	// plane (internal/admission): Reason carries why (priority,
	// queue_full, max_wait, codel) and Class the request's priority
	// class.
	KindAdmissionDrop = "admission_drop"
)

// CandidateView is one balancer candidate's load-balancing state as
// seen at a single decision.
type CandidateView struct {
	Name          string  `json:"name"`
	LBValue       float64 `json:"lb_value"`
	State         string  `json:"state"`
	InFlight      int     `json:"in_flight"`
	FreeEndpoints int     `json:"free_endpoints"`

	// Probe fields record the freshest probe-pool sample the prequal
	// policy saw for this candidate at decision time; absent for
	// non-probing policies and for candidates whose pool aged out.
	ProbeInFlight  float64 `json:"probe_in_flight,omitempty"`
	ProbeLatencyMs float64 `json:"probe_latency_ms,omitempty"`
	ProbeAgeMs     float64 `json:"probe_age_ms,omitempty"`
	ProbeFresh     bool    `json:"probe_fresh,omitempty"`
}

// Event is one observability event. Kind determines which optional
// fields are populated.
type Event struct {
	T    time.Duration `json:"t"`
	Kind string        `json:"kind"`
	// Source names the emitter: the balancer's host for decision /
	// state / reject events, the monitored server for detector events.
	Source string `json:"source,omitempty"`

	// Decision fields.
	Chosen     string          `json:"chosen,omitempty"`
	Candidates []CandidateView `json:"candidates,omitempty"`

	// State-transition fields.
	Backend string `json:"backend,omitempty"`
	From    string `json:"from,omitempty"`
	To      string `json:"to,omitempty"`

	// Detector fields.
	SpanStart   time.Duration `json:"span_start,omitempty"`
	SpanEnd     time.Duration `json:"span_end,omitempty"`
	QueuePeak   float64       `json:"queue_peak,omitempty"`
	QueuePeakAt time.Duration `json:"queue_peak_at,omitempty"`

	// Fault-injection fields.
	Fault  string        `json:"fault,omitempty"`
	Window time.Duration `json:"window,omitempty"`

	// Admission-drop fields.
	Reason string `json:"reason,omitempty"`
	Class  string `json:"class,omitempty"`
}

// Row is one candidate of a recorded decision: the CandidateView with
// its two strings replaced by ids in the log's intern table, so a row
// holds no pointer. Name and State are the ids a Table hands out
// (Table.Name, Table.State); the other fields are CandidateView's, the
// two counts narrowed to 32 bits (a backend's requests in flight and
// free endpoints).
type Row struct {
	LBValue        float64
	ProbeInFlight  float64
	ProbeLatencyMs float64
	ProbeAgeMs     float64
	InFlight       int32
	FreeEndpoints  int32
	Name           uint32
	State          uint32
	ProbeFresh     bool
}

// slot is one stored event: Event's times and numbers, its strings as
// intern-table ids, and how many rows of its chunk's row storage it
// owns. Like Row it holds no pointer, so the ring's arrays are memory
// the collector never scans and storing a record needs no write barrier.
type slot struct {
	t, spanStart, spanEnd, queuePeakAt, window time.Duration
	queuePeak                                  float64

	kind, source, chosen, backend, from, to, fault, reason, class uint32
	rows                                                          uint32
}

// chunkRows is the row storage of one ring chunk: slot j of the chunk
// owns rows[j*stride:][:slot.rows]. stride is the widest table the
// chunk has stored; a wider one regrows the chunk's rows by copying.
type chunkRows struct {
	rows   []Row
	stride int
}

// EventLog collects events into a bounded ring, overwriting the oldest
// when full. All methods are safe for concurrent use and nil-safe.
//
// The ring (ring.go) is chunked, and every record is stored without a
// pointer: a slot of times and interned string ids, and for a decision a
// run of Rows in storage the slot's chunk owns and keeps when the slot
// is overwritten. So recording allocates nothing once the ring has
// wrapped, and however large the ring, the collector never walks it.
// The intern table grows only with distinct strings — backend, emitter,
// kind, state and reason names, a bounded set for a given deployment —
// and a record's strings are looked up only when it is stored through
// Append or when an emitter registers its Table. The readers render the
// records back into Events that alias no storage of the log.
type EventLog struct {
	mu   sync.Mutex
	ring ring[slot]
	rows []chunkRows // one per ring chunk

	strs     []string // id → string; id 0 is ""
	ids      map[string]uint32
	decision uint32 // the id of KindDecision

	hook          func(Event)
	hookDecisions bool
}

// NewEventLog returns a log bounded at capacity events (minimum one).
func NewEventLog(capacity int) *EventLog {
	l := &EventLog{ring: newRing[slot](capacity), strs: []string{""}, ids: map[string]uint32{"": 0}}
	l.rows = make([]chunkRows, len(l.ring.chunks))
	l.decision = l.intern(KindDecision)
	return l
}

// intern returns the id of s, adding it to the table if it is new. The
// caller holds l.mu.
func (l *EventLog) intern(s string) uint32 {
	if s == "" {
		return 0
	}
	id, ok := l.ids[s]
	if !ok {
		id = uint32(len(l.strs))
		l.strs = append(l.strs, s)
		l.ids[s] = id
	}
	return id
}

// rowsFor returns the storage of record seq's rows, room for n. The
// caller holds l.mu and has pushed the record but not yet written its
// slot, which still counts its predecessor's rows.
func (l *EventLog) rowsFor(seq uint64, n int) []Row {
	c, off := l.ring.place(seq)
	cr := &l.rows[c]
	if n > cr.stride {
		slots := l.ring.chunks[c]
		grown := make([]Row, len(slots)*n)
		for j := range slots {
			copy(grown[j*n:], cr.rows[j*cr.stride:][:slots[j].rows])
		}
		cr.rows, cr.stride = grown, n
	}
	return cr.rows[off*cr.stride:][:n]
}

// Append records an event, copying ev.Candidates: the caller may reuse
// the slice as soon as Append returns. Every string of the event is
// interned. Nil-safe.
func (l *EventLog) Append(ev Event) {
	if l == nil {
		return
	}
	l.mu.Lock()
	seq := l.ring.appended
	s := slot{
		t: ev.T, spanStart: ev.SpanStart, spanEnd: ev.SpanEnd, queuePeakAt: ev.QueuePeakAt, window: ev.Window,
		queuePeak: ev.QueuePeak,
		kind:      l.intern(ev.Kind), source: l.intern(ev.Source), chosen: l.intern(ev.Chosen),
		backend: l.intern(ev.Backend), from: l.intern(ev.From), to: l.intern(ev.To),
		fault: l.intern(ev.Fault), reason: l.intern(ev.Reason), class: l.intern(ev.Class),
		rows: uint32(len(ev.Candidates)),
	}
	p := l.ring.push()
	if len(ev.Candidates) > 0 {
		rows := l.rowsFor(seq, len(ev.Candidates))
		for i, c := range ev.Candidates {
			rows[i] = Row{
				LBValue: c.LBValue, ProbeInFlight: c.ProbeInFlight, ProbeLatencyMs: c.ProbeLatencyMs, ProbeAgeMs: c.ProbeAgeMs,
				InFlight: int32(c.InFlight), FreeEndpoints: int32(c.FreeEndpoints),
				Name: l.intern(c.Name), State: l.intern(c.State), ProbeFresh: c.ProbeFresh,
			}
		}
	}
	*p = s
	hook := l.hook
	if s.kind == l.decision && !l.hookDecisions {
		hook = nil
	}
	l.mu.Unlock()
	if hook != nil {
		hook(ev)
	}
}

// Table is one decision emitter's registration with a log: its source
// and its candidates' and states' names, interned once, so that
// recording a decision looks up no string.
type Table struct {
	log    *EventLog
	source uint32
	names  []uint32
	states []uint32
}

// Table registers a decision emitter: source names it, names[i] is
// candidate i and states[s] the name of state s. A nil log returns a
// nil Table, whose Append does nothing.
func (l *EventLog) Table(source string, names, states []string) *Table {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	t := &Table{log: l, source: l.intern(source), names: make([]uint32, len(names)), states: make([]uint32, len(states))}
	for i, s := range names {
		t.names[i] = l.intern(s)
	}
	for i, s := range states {
		t.states[i] = l.intern(s)
	}
	return t
}

// Name is the id a Row carries for candidate i.
func (t *Table) Name(i int) uint32 { return t.names[i] }

// State is the id a Row carries for state s.
func (t *Table) State(s int) uint32 { return t.states[s] }

// Append records a decision made at time at: candidate chosen, and the
// candidate table rows, which the log copies — the caller may reuse the
// slice as soon as Append returns. A hook subscribed to decisions gets
// the decision rendered as an Event. Nil-safe.
func (t *Table) Append(at time.Duration, chosen int, rows []Row) {
	if t == nil {
		return
	}
	l := t.log
	l.mu.Lock()
	seq := l.ring.appended
	s := slot{t: at, kind: l.decision, source: t.source, chosen: t.names[chosen], rows: uint32(len(rows))}
	p := l.ring.push()
	if len(rows) > 0 {
		copy(l.rowsFor(seq, len(rows)), rows)
	}
	*p = s
	var hook func(Event)
	var ev []Event
	if l.hook != nil && l.hookDecisions {
		// Rendered under the lock from the caller's rows, into a table of
		// its own: a concurrent emitter may overwrite the slot as soon as
		// the lock is released.
		hook = l.hook
		ev, _ = l.render(make([]Event, 0, 1), make([]CandidateView, 0, len(rows)), &s, rows)
	}
	l.mu.Unlock()
	if hook != nil {
		hook(ev[0])
	}
}

// SetAppendHook registers a single callback invoked after every append,
// outside the log's lock — the subscription point for online consumers
// such as the adaptive control plane, which may react by appending
// further events or actuating the balancer. Decisions, the bulk of a
// busy log, reach the hook only when decisions is set: rendering one for
// it costs its candidate table. The Candidates of an event the hook gets
// are valid only during the call: a hook that keeps a decision copies
// its table (appending the event to another log does). Nil-safe.
func (l *EventLog) SetAppendHook(hook func(Event), decisions bool) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.hook, l.hookDecisions = hook, decisions
	l.mu.Unlock()
}

// Len reports stored events.
func (l *EventLog) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ring.len()
}

// Appended reports the lifetime event count.
func (l *EventLog) Appended() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ring.appended
}

// Overwritten reports events evicted by the ring bound.
func (l *EventLog) Overwritten() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ring.oldest()
}

// Events returns the stored events oldest-first.
func (l *EventLog) Events() []Event {
	if l == nil {
		return nil
	}
	return l.snapshot(func(*slot) bool { return true })
}

// Kind returns the stored events of one kind, oldest-first.
func (l *EventLog) Kind(kind string) []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	id, ok := l.ids[kind]
	l.mu.Unlock()
	if !ok {
		return nil
	}
	return l.snapshot(func(s *slot) bool { return s.kind == id })
}

// stored returns record seq's slot and rows. The caller holds l.mu.
func (l *EventLog) stored(seq uint64) (*slot, []Row) {
	s := l.ring.at(seq)
	if s.rows == 0 {
		return s, nil
	}
	c, off := l.ring.place(seq)
	cr := &l.rows[c]
	return s, cr.rows[off*cr.stride:][:s.rows]
}

// snapshot renders the stored events that match, oldest-first, as of one
// instant. It sizes the result in a first pass over the slots, so
// picking a handful of state events out of a full ring renders a
// handful of events, and all candidate tables of the result share one
// array.
func (l *EventLog) snapshot(match func(*slot) bool) []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	from, to := l.ring.oldest(), l.ring.appended
	events, views := 0, 0
	for seq := from; seq < to; seq++ {
		if s := l.ring.at(seq); match(s) {
			events++
			views += int(s.rows)
		}
	}
	if events == 0 {
		return nil
	}
	out := make([]Event, 0, events)
	table := make([]CandidateView, 0, views)
	for seq := from; seq < to; seq++ {
		if s, rows := l.stored(seq); match(s) {
			out, table = l.render(out, table, s, rows)
		}
	}
	return out
}

// render appends the event s stores, with rows as its candidate table,
// to out, the table's views to table (an event without rows reads nil
// Candidates, as it was appended), and returns both. The caller holds
// l.mu.
func (l *EventLog) render(out []Event, table []CandidateView, s *slot, rows []Row) ([]Event, []CandidateView) {
	str := l.strs
	ev := Event{
		T: s.t, Kind: str[s.kind], Source: str[s.source], Chosen: str[s.chosen],
		Backend: str[s.backend], From: str[s.from], To: str[s.to],
		SpanStart: s.spanStart, SpanEnd: s.spanEnd, QueuePeak: s.queuePeak, QueuePeakAt: s.queuePeakAt,
		Fault: str[s.fault], Window: s.window, Reason: str[s.reason], Class: str[s.class],
	}
	if n := len(rows); n > 0 {
		for _, r := range rows {
			table = append(table, CandidateView{
				Name: str[r.Name], LBValue: r.LBValue, State: str[r.State],
				InFlight: int(r.InFlight), FreeEndpoints: int(r.FreeEndpoints),
				ProbeInFlight: r.ProbeInFlight, ProbeLatencyMs: r.ProbeLatencyMs, ProbeAgeMs: r.ProbeAgeMs,
				ProbeFresh: r.ProbeFresh,
			})
		}
		ev.Candidates = table[len(table)-n : len(table) : len(table)]
	}
	return append(out, ev), table
}

// WriteJSONL writes the events stored when it is called, oldest-first,
// as JSON Lines. It renders and encodes one chunk of the ring at a time,
// the encoding off the lock, so serving a full log neither copies it
// whole nor stalls the emitters; events a live system overwrites while
// an earlier chunk is being written are skipped, never torn.
func (l *EventLog) WriteJSONL(w io.Writer) error {
	if l == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	var batch []Event
	var table []CandidateView
	end := l.Appended()
	for seq := uint64(0); seq < end; {
		l.mu.Lock()
		seq = max(seq, l.ring.oldest())
		batch, table = batch[:0], table[:0]
		for ; seq < end && len(batch) < ringChunk; seq++ {
			s, rows := l.stored(seq)
			batch, table = l.render(batch, table, s, rows)
		}
		l.mu.Unlock()
		for i := range batch {
			if err := enc.Encode(&batch[i]); err != nil {
				return fmt.Errorf("obs: encode event: %w", err)
			}
		}
	}
	return nil
}

// LBValueSeries rebuilds per-candidate lb_value time series from
// decision events alone — the Figs. 10–11 curves, with no sampler
// involved. Each decision contributes every candidate's lb_value at
// the decision's time.
func LBValueSeries(events []Event, width time.Duration) map[string]*stats.Series {
	out := make(map[string]*stats.Series)
	for _, ev := range events {
		if ev.Kind != KindDecision {
			continue
		}
		for _, c := range ev.Candidates {
			s := out[c.Name]
			if s == nil {
				s = stats.NewSeries(width)
				out[c.Name] = s
			}
			s.Add(ev.T, c.LBValue)
		}
	}
	return out
}
