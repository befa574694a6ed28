// Package netmodel models the slice of TCP behaviour that matters for the
// paper's very-long-response-time (VLRT) mechanics: a bounded listen
// backlog that drops connection attempts when full, client-side
// retransmission of dropped attempts on a fixed schedule (the source of
// the paper's 1 s / 2 s / 3 s response-time clusters, Fig. 4), and a
// fixed-latency LAN link.
package netmodel

import (
	"time"

	"millibalance/internal/obs"
	"millibalance/internal/sim"
)

// RetransmitSchedule lists the delays between successive connection
// attempts after drops. When the schedule is exhausted the request fails.
type RetransmitSchedule []sim.Time

// DefaultRetransmitSchedule mirrors the retransmission timing observed in
// the paper's environment: three retries spaced one second apart, which
// stamps dropped requests into response-time clusters at ≈1 s, 2 s, 3 s.
func DefaultRetransmitSchedule() RetransmitSchedule {
	return RetransmitSchedule{time.Second, time.Second, time.Second}
}

// Listener is a bounded accept queue (listen backlog). Connections that
// arrive while the backlog is full are dropped — the paper's
// "Cross-Tier Queue Overflow".
type Listener struct {
	backlog int
	queue   sim.FIFO[sim.Event]
	drops   uint64
	offered uint64
}

// NewListener returns a listener with the given backlog capacity.
// A negative capacity is treated as zero (every queued offer drops).
func NewListener(backlog int) *Listener {
	if backlog < 0 {
		backlog = 0
	}
	return &Listener{backlog: backlog}
}

// Backlog returns the queue capacity.
func (l *Listener) Backlog() int { return l.backlog }

// Len reports how many connections are waiting to be accepted.
func (l *Listener) Len() int { return l.queue.Len() }

// Drops reports how many offers have been dropped.
func (l *Listener) Drops() uint64 { return l.drops }

// Offered reports how many offers have been made.
func (l *Listener) Offered() uint64 { return l.offered }

// Offer enqueues accept to fire when the connection is accepted. It
// reports false — and drops the connection — when the backlog is full.
func (l *Listener) Offer(accept sim.Event) bool {
	l.offered++
	if l.queue.Len() >= l.backlog {
		l.drops++
		return false
	}
	l.queue.Push(accept)
	return true
}

// Accept dequeues and fires the oldest waiting connection, reporting
// whether one was waiting.
func (l *Listener) Accept() bool {
	accept, ok := l.queue.Pop()
	if !ok {
		return false
	}
	accept.Fire()
	return true
}

// Retransmitter retries dropped connection attempts on a schedule.
type Retransmitter struct {
	eng      *sim.Engine
	schedule RetransmitSchedule

	retransmits uint64
	failures    uint64
}

// NewRetransmitter returns a retransmitter using the given schedule; a
// nil schedule uses the default.
func NewRetransmitter(eng *sim.Engine, schedule RetransmitSchedule) *Retransmitter {
	if schedule == nil {
		schedule = DefaultRetransmitSchedule()
	}
	return &Retransmitter{eng: eng, schedule: schedule}
}

// Retransmits reports how many retry attempts have been scheduled.
func (r *Retransmitter) Retransmits() uint64 { return r.retransmits }

// Failures reports how many sends exhausted the schedule and failed.
func (r *Retransmitter) Failures() uint64 { return r.failures }

// Sender is the client side of one send: the record that knows how to
// make a connection attempt and what giving up means.
type Sender interface {
	// Connect makes one connection attempt and reports whether the
	// connection was admitted.
	Connect() bool
	// Abandon runs when the retransmission schedule is exhausted.
	Abandon()
}

// Transmission is the transport's state for one send — who is sending,
// how many attempts were dropped so far — and the event the retry timer
// fires. A sender embeds it in its own record, so a send that is
// dropped and retried allocates nothing.
type Transmission struct {
	r     *Retransmitter
	from  Sender
	span  *obs.Span
	tries int
}

// Transmit starts a send through tx: from.Connect runs now and, while
// it reports a drop, again after each schedule delay; when the schedule
// is exhausted from.Abandon runs. sp (which may be nil) records the
// retransmit-wait stage from the first drop until the attempt that is
// finally admitted or the schedule is exhausted — the wait that stamps
// VLRT requests into the 1 s / 2 s / 3 s clusters.
func (r *Retransmitter) Transmit(tx *Transmission, sp *obs.Span, from Sender) {
	*tx = Transmission{r: r, from: from, span: sp}
	tx.attempt()
}

// Fire is the retry timer.
func (tx *Transmission) Fire() {
	tx.tries++
	tx.attempt()
}

func (tx *Transmission) attempt() {
	r := tx.r
	if tx.from.Connect() {
		tx.span.Exit(obs.StageRetransmitWait, r.eng.Now())
		return
	}
	if tx.tries >= len(r.schedule) {
		r.failures++
		tx.span.Exit(obs.StageRetransmitWait, r.eng.Now())
		tx.from.Abandon()
		return
	}
	r.retransmits++
	tx.span.Enter(obs.StageRetransmitWait, r.eng.Now())
	r.eng.ScheduleEvent(r.schedule[tx.tries], tx)
}

// Link is a fixed-latency network hop. Bandwidth is not modelled; the
// paper's gigabit LAN never saturates.
type Link struct {
	eng     *sim.Engine
	latency sim.Time
}

// NewLink returns a link with the given one-way latency (clamped at
// zero).
func NewLink(eng *sim.Engine, latency sim.Time) *Link {
	if latency < 0 {
		latency = 0
	}
	return &Link{eng: eng, latency: latency}
}

// Latency returns the one-way latency.
func (l *Link) Latency() sim.Time { return l.latency }

// Deliver runs fn after one link traversal.
func (l *Link) Deliver(fn func()) {
	if l.latency == 0 {
		fn()
		return
	}
	l.eng.Schedule(l.latency, fn)
}
