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

// EventLog collects events into a bounded ring, overwriting the oldest
// when full. All methods are safe for concurrent use and nil-safe.
//
// Recording allocates nothing once the ring has wrapped. The ring is
// chunked (ring.go), and a decision's candidate table is copied into
// storage its slot owns and keeps when the slot is overwritten, so an
// emitter fills one scratch buffer per decision and the log never holds
// a caller's slice. The readers hand out copies that alias no slot.
type EventLog struct {
	mu   sync.Mutex
	ring ring[Event]
	hook func(Event)
}

// NewEventLog returns a log bounded at capacity events (minimum one).
func NewEventLog(capacity int) *EventLog {
	return &EventLog{ring: newRing[Event](capacity)}
}

// Append records an event, copying ev.Candidates: the caller may reuse
// the slice as soon as Append returns. Nil-safe.
func (l *EventLog) Append(ev Event) {
	if l == nil {
		return
	}
	l.mu.Lock()
	slot := l.ring.push()
	views := append(slot.Candidates[:0], ev.Candidates...)
	*slot = ev
	slot.Candidates = views
	hook := l.hook
	l.mu.Unlock()
	if hook != nil {
		hook(ev)
	}
}

// SetAppendHook registers a single callback invoked after every Append,
// outside the log's lock — the subscription point for online consumers
// such as the adaptive control plane, which may react by appending
// further events or actuating the balancer. The event's Candidates are
// the emitter's scratch buffer, valid only during the call: a hook that
// keeps a decision copies its table (appending the event to another log
// does). Nil-safe.
func (l *EventLog) SetAppendHook(hook func(Event)) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.hook = hook
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
	return l.snapshot(func(*Event) bool { return true })
}

// Kind returns the stored events of one kind, oldest-first.
func (l *EventLog) Kind(kind string) []Event {
	if l == nil {
		return nil
	}
	return l.snapshot(func(ev *Event) bool { return ev.Kind == kind })
}

// snapshot copies the stored events that match, oldest-first, as of one
// instant. It sizes the result in a first pass over the slots, so
// picking a handful of state events out of a full ring copies a handful
// of events, and all candidate tables of the result share one array.
func (l *EventLog) snapshot(match func(*Event) bool) []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	from, to := l.ring.oldest(), l.ring.appended
	events, views := 0, 0
	for seq := from; seq < to; seq++ {
		if ev := l.ring.at(seq); match(ev) {
			events++
			views += len(ev.Candidates)
		}
	}
	if events == 0 {
		return nil
	}
	out := make([]Event, 0, events)
	table := make([]CandidateView, 0, views)
	for seq := from; seq < to; seq++ {
		if ev := l.ring.at(seq); match(ev) {
			out, table = appendCopy(out, table, ev)
		}
	}
	return out
}

// appendCopy appends a copy of a stored event to out, its candidate
// table to table (an event without candidates reads nil, as it was
// appended), and returns both.
func appendCopy(out []Event, table []CandidateView, ev *Event) ([]Event, []CandidateView) {
	cp := *ev
	cp.Candidates = nil
	if n := len(ev.Candidates); n > 0 {
		table = append(table, ev.Candidates...)
		cp.Candidates = table[len(table)-n : len(table) : len(table)]
	}
	return append(out, cp), table
}

// WriteJSONL writes the events stored when it is called, oldest-first,
// as JSON Lines. It copies and encodes one chunk of the ring at a time,
// off the lock, so serving a full log neither copies it whole nor stalls
// the emitters; events a live system overwrites while an earlier chunk
// is being written are skipped, never torn.
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
			batch, table = appendCopy(batch, table, l.ring.at(seq))
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
