// Package obs is the observability layer: request-lifecycle span
// tracing, the balancer decision log, and online millibottleneck
// detection.
//
// The paper's diagnostic method is exactly this kind of instrumentation:
// it decomposes each very-long-response-time (VLRT) request into
// retransmission waits and queue amplification by correlating
// fine-grained per-tier measurements (Section III), and it explains the
// load-balancer instability by reading the lb_value table at decision
// time (Figs. 10–11). This package makes both first-class signals
// recorded while the run progresses, instead of aggregates assembled
// afterwards:
//
//   - Span: one request's timeline decomposed into typed stages
//     (retransmit wait, web accept-queue wait, web CPU, get_endpoint
//     sleep/retry, app accept-queue wait, app thread, DB call,
//     stall-frozen time). Tracer collects completed spans in a bounded
//     ring.
//   - Event / EventLog: every balancer routing decision with each
//     candidate's lb_value and 3-state-machine state at decision time,
//     every candidate state transition, and every online detection.
//   - Detector: a streaming version of mbneck.Analyze that consumes
//     utilization and queue samples as they are taken and emits
//     detection events while the millibottleneck is still fresh.
//
// Every entry point is nil-safe: a nil *Span, *Tracer or *EventLog
// turns the corresponding call into a no-op, so instrumented code pays
// only a nil check when observability is disabled.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Stage is one typed stage of a request's lifecycle timeline.
type Stage int

const (
	// StageRetransmitWait is the client-side wait between a dropped
	// connection attempt and the attempt that was admitted (or the
	// give-up) — the paper's source of the 1/2/3 s VLRT clusters.
	StageRetransmitWait Stage = iota
	// StageWebAcceptQueue is time spent in the web server's accept
	// backlog waiting for a worker thread.
	StageWebAcceptQueue
	// StageWebCPU is the web server's CPU processing (including run-queue
	// wait, excluding stall-frozen time).
	StageWebCPU
	// StageGetEndpoint is time inside the balancer's endpoint
	// acquisition: mechanism sleeps/retries and inter-sweep pauses.
	StageGetEndpoint
	// StageLink is inter-tier network transit.
	StageLink
	// StageAppAcceptQueue is the wait for an application-server servlet
	// thread.
	StageAppAcceptQueue
	// StageAppThread is the application server's CPU processing
	// (including run-queue wait, excluding DB calls and stall-frozen
	// time).
	StageAppThread
	// StageDBCall is the database phase: connection-pool wait, link
	// transit and query service.
	StageDBCall
	// StageStallFrozen is progress frozen by writeback (or injected)
	// stall windows while the request held a CPU burst.
	StageStallFrozen
	// StageWebThread is web worker-thread occupancy, from acquiring the
	// worker to responding. It OVERLAPS the downstream stages (the
	// worker stays held across get_endpoint and the app/db round trip)
	// and is therefore excluded from the timeline sum; it exists because
	// worker occupancy is how queue amplification reaches the web tier.
	StageWebThread

	numStages
)

// stageNames are the JSON/report names, index-aligned with the Stage
// constants.
var stageNames = [numStages]string{
	"retransmit_wait",
	"web_accept_queue",
	"web_cpu",
	"get_endpoint",
	"link",
	"app_accept_queue",
	"app_thread",
	"db_call",
	"stall_frozen",
	"web_thread",
}

// String returns the stage's snake_case name.
func (s Stage) String() string {
	if s < 0 || s >= numStages {
		return fmt.Sprintf("Stage(%d)", int(s))
	}
	return stageNames[s]
}

// TimelineStages lists the non-overlapping stages, in request-lifecycle
// order. Their durations partition the request's response time (up to
// instrumentation gaps), so summing them decomposes a VLRT request the
// way the paper's Section III analysis does.
func TimelineStages() []Stage {
	return []Stage{
		StageRetransmitWait, StageWebAcceptQueue, StageWebCPU,
		StageGetEndpoint, StageLink, StageAppAcceptQueue,
		StageAppThread, StageDBCall, StageStallFrozen,
	}
}

// Span is one request's recorded lifecycle. Spans are created by
// Tracer.Start. A span is owned by the single request flowing through
// the system and must not be shared across requests; Tracer.Finish
// copies it into the ring under the tracer's lock and takes the span
// back for the next Start, so Finish is the owner's last touch of it:
// any later call through the stale pointer panics while the span waits
// for reuse, instead of writing into the request that gets it next.
type Span struct {
	// RequestID identifies the request.
	RequestID uint64
	// StartAt and EndAt bound the request in run time.
	StartAt, EndAt time.Duration
	// OK mirrors the request outcome.
	OK bool

	durs   [numStages]time.Duration
	openAt [numStages]time.Duration
	opened [numStages]bool
	// recycled marks a span Finish has taken back (never set on what
	// Spans returns).
	recycled bool
}

// live reports whether the span records anything: false for nil, a
// panic for a span that was finished and is waiting on its tracer's free
// list — only a bug reaches it there.
func (s *Span) live() bool {
	if s == nil {
		return false
	}
	if s.recycled {
		panic("obs: span used after Finish")
	}
	return true
}

// Enter marks the start of a stage at now. Entering an already-open
// stage is a no-op (the first entry wins). Nil-safe.
func (s *Span) Enter(st Stage, now time.Duration) {
	if !s.live() || s.opened[st] {
		return
	}
	s.opened[st] = true
	s.openAt[st] = now
}

// Exit closes an open stage at now, accumulating the elapsed time.
// Exiting a stage that is not open is a no-op. Nil-safe.
func (s *Span) Exit(st Stage, now time.Duration) {
	if !s.live() || !s.opened[st] {
		return
	}
	s.opened[st] = false
	if d := now - s.openAt[st]; d > 0 {
		s.durs[st] += d
	}
}

// Add accumulates d directly into a stage, for durations known without
// an open/close pair (link hops, stall-frozen attribution). Nil-safe.
func (s *Span) Add(st Stage, d time.Duration) {
	if !s.live() || d <= 0 {
		return
	}
	s.durs[st] += d
}

// Duration returns the accumulated time in a stage.
func (s *Span) Duration(st Stage) time.Duration {
	if !s.live() {
		return 0
	}
	return s.durs[st]
}

// ResponseTime returns the span's total lifetime.
func (s *Span) ResponseTime() time.Duration { return s.EndAt - s.StartAt }

// Breakdown is the per-stage decomposition in exportable form. Zero
// stages are omitted from JSON.
type Breakdown struct {
	RetransmitWait time.Duration `json:"retransmit_wait,omitempty"`
	WebAcceptQueue time.Duration `json:"web_accept_queue,omitempty"`
	WebCPU         time.Duration `json:"web_cpu,omitempty"`
	GetEndpoint    time.Duration `json:"get_endpoint,omitempty"`
	Link           time.Duration `json:"link,omitempty"`
	AppAcceptQueue time.Duration `json:"app_accept_queue,omitempty"`
	AppThread      time.Duration `json:"app_thread,omitempty"`
	DBCall         time.Duration `json:"db_call,omitempty"`
	StallFrozen    time.Duration `json:"stall_frozen,omitempty"`
	WebThread      time.Duration `json:"web_thread,omitempty"`
}

// Breakdown extracts the span's stage durations.
func (s *Span) Breakdown() Breakdown {
	if !s.live() {
		return Breakdown{}
	}
	return Breakdown{
		RetransmitWait: s.durs[StageRetransmitWait],
		WebAcceptQueue: s.durs[StageWebAcceptQueue],
		WebCPU:         s.durs[StageWebCPU],
		GetEndpoint:    s.durs[StageGetEndpoint],
		Link:           s.durs[StageLink],
		AppAcceptQueue: s.durs[StageAppAcceptQueue],
		AppThread:      s.durs[StageAppThread],
		DBCall:         s.durs[StageDBCall],
		StallFrozen:    s.durs[StageStallFrozen],
		WebThread:      s.durs[StageWebThread],
	}
}

// Get returns the breakdown's duration for a timeline stage.
func (b Breakdown) Get(st Stage) time.Duration {
	switch st {
	case StageRetransmitWait:
		return b.RetransmitWait
	case StageWebAcceptQueue:
		return b.WebAcceptQueue
	case StageWebCPU:
		return b.WebCPU
	case StageGetEndpoint:
		return b.GetEndpoint
	case StageLink:
		return b.Link
	case StageAppAcceptQueue:
		return b.AppAcceptQueue
	case StageAppThread:
		return b.AppThread
	case StageDBCall:
		return b.DBCall
	case StageStallFrozen:
		return b.StallFrozen
	case StageWebThread:
		return b.WebThread
	default:
		return 0
	}
}

// TimelineSum returns the sum of the non-overlapping timeline stages —
// the part of the response time the decomposition accounts for.
func (b Breakdown) TimelineSum() time.Duration {
	var sum time.Duration
	for _, st := range TimelineStages() {
		sum += b.Get(st)
	}
	return sum
}

// Dominant returns the largest timeline stage and its duration.
func (b Breakdown) Dominant() (Stage, time.Duration) {
	best, bestD := StageRetransmitWait, time.Duration(-1)
	for _, st := range TimelineStages() {
		if d := b.Get(st); d > bestD {
			best, bestD = st, d
		}
	}
	return best, bestD
}

// Coverage reports what fraction of rt the timeline stages account for
// (zero when rt is zero).
func (b Breakdown) Coverage(rt time.Duration) float64 {
	if rt <= 0 {
		return 0
	}
	return float64(b.TimelineSum()) / float64(rt)
}

// spanRecord is the JSONL wire form of a completed span.
type spanRecord struct {
	ID     uint64        `json:"id"`
	Start  time.Duration `json:"start"`
	End    time.Duration `json:"end"`
	OK     bool          `json:"ok"`
	Stages Breakdown     `json:"stages"`
}

// finishedSpan is a span as the tracer's ring keeps it: what a finished
// span holds, without the open-stage bookkeeping (openAt, opened,
// recycled) that only a live span needs — 112 bytes instead of Span's
// 208.
type finishedSpan struct {
	id         uint64
	start, end time.Duration
	durs       [numStages]time.Duration
	ok         bool
}

// Tracer collects completed spans into a bounded ring: when the
// capacity is reached the oldest spans are overwritten, so a live
// system keeps the most recent history. All methods are safe for
// concurrent use and nil-safe.
//
// Tracing allocates nothing at steady state: the ring is chunked
// (ring.go) and holds finished spans by value, and the span a request
// carried is recycled through a free list — last in, first out, under
// the mutex Start already takes and owned by this tracer alone, so the
// order spans are reused in is a function of the Start/Finish sequence
// and a simulated run replays. The list grows to the peak number of
// requests in flight; a span that is never finished is simply collected.
type Tracer struct {
	mu      sync.Mutex
	ring    ring[finishedSpan]
	free    []*Span
	started uint64
}

// NewTracer returns a tracer bounded at capacity spans (minimum one).
func NewTracer(capacity int) *Tracer {
	return &Tracer{ring: newRing[finishedSpan](capacity)}
}

// Start opens a span for a request at now. It returns nil when the
// tracer is nil, so disabled tracing costs callers only nil checks.
func (t *Tracer) Start(id uint64, now time.Duration) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.started++
	var sp *Span
	if k := len(t.free) - 1; k >= 0 {
		sp, t.free[k] = t.free[k], nil
		t.free = t.free[:k]
	}
	t.mu.Unlock()
	if sp == nil {
		sp = new(Span)
	}
	*sp = Span{RequestID: id, StartAt: now}
	return sp
}

// Finish closes any stages still open, stamps the end time and outcome,
// records the span into the ring and returns its stage breakdown — the
// last the caller sees of the span, which goes back to the tracer for
// reuse: sp must not be touched again. Nil tracer or span is a no-op.
func (t *Tracer) Finish(sp *Span, now time.Duration, ok bool) Breakdown {
	if t == nil || sp == nil {
		return Breakdown{}
	}
	for st := Stage(0); st < numStages; st++ {
		sp.Exit(st, now)
	}
	sp.EndAt = now
	sp.OK = ok
	b := sp.Breakdown()
	t.mu.Lock()
	f := t.ring.push()
	f.id, f.start, f.end, f.durs, f.ok = sp.RequestID, sp.StartAt, sp.EndAt, sp.durs, sp.OK
	sp.recycled = true
	t.free = append(t.free, sp)
	t.mu.Unlock()
	return b
}

// Len reports stored spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.len()
}

// Started and Finished report lifetime counters.
func (t *Tracer) Started() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.started
}

// Finished reports how many spans completed (recorded or overwritten).
func (t *Tracer) Finished() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.appended
}

// Overwritten reports spans evicted by the ring bound.
func (t *Tracer) Overwritten() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.oldest()
}

// Spans returns the stored spans oldest-first.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, t.ring.len())
	for seq := t.ring.oldest(); seq < t.ring.appended; seq++ {
		f := t.ring.at(seq)
		out = append(out, Span{RequestID: f.id, StartAt: f.start, EndAt: f.end, OK: f.ok, durs: f.durs})
	}
	return out
}

// WriteJSONL writes the stored spans oldest-first as JSON Lines.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, sp := range t.Spans() {
		rec := spanRecord{ID: sp.RequestID, Start: sp.StartAt, End: sp.EndAt, OK: sp.OK, Stages: sp.Breakdown()}
		if err := enc.Encode(rec); err != nil {
			return fmt.Errorf("obs: encode span: %w", err)
		}
	}
	return nil
}
