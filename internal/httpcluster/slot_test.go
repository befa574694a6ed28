package httpcluster

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestForwardBodyLifecycle: on forward's arm a closed body stays closed.
// A second Close returns nil, a Read after Close reports
// http.ErrBodyReadAfterClose, and neither reaches the exchange that pops
// the body's connection next, on another slot — not even while that
// exchange runs on another goroutine.
func TestForwardBodyLifecycle(t *testing.T) {
	p := startPeer(t, always(chunkedReply(10000)))
	tr := newUpstreamTransport(1)
	defer tr.CloseIdleConnections()
	base := mustParse(t, p.url())
	read := func(s *exchangeSlot) io.ReadCloser {
		t.Helper()
		status, _, body, err := tr.forward(context.Background(), s, time.Now().Add(5*time.Second), base, []byte("/x"))
		if err != nil || status != http.StatusOK {
			t.Fatalf("status %d, %v", status, err)
		}
		return body
	}

	var a, b exchangeSlot
	stale := read(&a)
	if n, err := io.Copy(io.Discard, stale); err != nil || n != 10000 {
		t.Fatalf("first body: %d bytes, %v", n, err)
	}
	if err := stale.Close(); err != nil {
		t.Fatal(err)
	}
	if err := stale.Close(); err != nil {
		t.Errorf("second Close: %v, want nil", err)
	}
	var buf [64]byte
	if n, err := stale.Read(buf[:]); n != 0 || err != http.ErrBodyReadAfterClose {
		t.Errorf("Read after Close: %d, %v; want 0, http.ErrBodyReadAfterClose", n, err)
	}

	live := read(&b) // pops the connection the stale body gave back
	if p.accepted.Load() != 1 {
		t.Fatalf("%d connections accepted, want the one reused", p.accepted.Load())
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // stale calls while the live exchange reads
		defer wg.Done()
		var buf [64]byte
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n, err := stale.Read(buf[:]); n != 0 || err != http.ErrBodyReadAfterClose {
				t.Errorf("stale Read: %d, %v", n, err)
				return
			}
			if err := stale.Close(); err != nil {
				t.Errorf("stale Close: %v", err)
				return
			}
		}
	}()
	n, err := io.Copy(io.Discard, live)
	close(stop)
	wg.Wait()
	if err != nil || n != 10000 {
		t.Fatalf("the next exchange's body: %d bytes, %v", n, err)
	}
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}
	if idleConns(tr) != 1 || p.accepted.Load() != 1 {
		t.Fatalf("%d connections parked, %d accepted; want the one, parked again", idleConns(tr), p.accepted.Load())
	}
}

// TestExchangeSlotAbortBetweenExchanges: a slot aborted between two of
// its exchanges fails the next one at once, with context.Canceled and
// without a dial, and leaves the connection it gave back to the exchange
// of another slot that pops it.
func TestExchangeSlotAbortBetweenExchanges(t *testing.T) {
	p := startPeer(t, always(lengthReply(128)))
	tr := newUpstreamTransport(1)
	defer tr.CloseIdleConnections()
	base := mustParse(t, p.url())
	get := func(s *exchangeSlot) error {
		_, _, body, err := tr.forward(context.Background(), s, time.Now().Add(5*time.Second), base, []byte("/x"))
		if err != nil {
			return err
		}
		_, err = io.Copy(io.Discard, body)
		_ = body.Close()
		return err
	}
	var a, b exchangeSlot
	if err := get(&a); err != nil {
		t.Fatal(err)
	}
	a.abort()
	start := time.Now()
	if err := get(&a); !errors.Is(err, context.Canceled) || time.Since(start) > 100*time.Millisecond {
		t.Fatalf("exchange on an aborted slot: %v after %v; want context.Canceled at once", err, time.Since(start))
	}
	if idleConns(tr) != 1 {
		t.Fatalf("%d connections parked, want the one the first exchange gave back", idleConns(tr))
	}
	if err := get(&b); err != nil {
		t.Fatalf("another slot's exchange on the parked connection: %v", err)
	}
	if p.accepted.Load() != 1 {
		t.Fatalf("%d connections accepted, want 1", p.accepted.Load())
	}
}

// The two slots of TestExchangeSlotAbortRacesArm set attempt deadlines
// this far ahead, so a socket tells whose exchange set its deadline last.
const (
	abortedSlotAhead = 5 * time.Second
	otherSlotAhead   = 60 * time.Second
)

// abortedConn watches the deadlines set on a socket. An abort moves the
// deadline to time.Unix(1, 0); the connection it reached must be closed,
// never given a deadline for a later exchange, and the exchange it cuts
// must be the aborted slot's, which set the deadline before it.
type abortedConn struct {
	net.Conn
	aborted atomic.Bool
	last    atomic.Int64 // the last deadline an exchange set, in Unix nanoseconds
	st      *abortStats
}

type abortStats struct {
	hits    atomic.Int64 // aborts that reached a socket
	reused  atomic.Int64 // deadlines set after an abort
	foreign atomic.Int64 // aborts that cut the other slot's exchange
}

func (c *abortedConn) SetDeadline(d time.Time) error {
	switch {
	case d.Equal(time.Unix(1, 0)):
		c.aborted.Store(true)
		c.st.hits.Add(1)
		if time.Until(time.Unix(0, c.last.Load())) > (abortedSlotAhead+otherSlotAhead)/2 {
			c.st.foreign.Add(1)
		}
	case c.aborted.Load():
		c.st.reused.Add(1)
	default:
		c.last.Store(d.UnixNano())
	}
	return c.Conn.SetDeadline(d)
}

// TestExchangeSlotAbortRacesArm: an abort fired at any moment of a
// slot's exchanges — before the connection is armed, while it is, as the
// body is closed — ends that slot's exchanges at once, and never lands on
// an exchange of another slot running on the same transport, whose
// connections pass between the two. Run it under -race -count=20.
func TestExchangeSlotAbortRacesArm(t *testing.T) {
	p := startPeer(t, always(lengthReply(256)))
	tr := newUpstreamTransport(2)
	defer tr.CloseIdleConnections()
	var st abortStats
	dial := tr.dial
	tr.dial = func(ctx context.Context, network, addr string) (net.Conn, error) {
		c, err := dial(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		return &abortedConn{Conn: c, st: &st}, nil
	}
	base := mustParse(t, p.url())
	var other exchangeSlot // never aborted
	get := func(s *exchangeSlot) error {
		ahead := abortedSlotAhead
		if s == &other {
			ahead = otherSlotAhead
		}
		_, _, body, err := tr.forward(context.Background(), s, time.Now().Add(ahead), base, []byte("/x"))
		if err != nil {
			return err
		}
		n, err := io.Copy(io.Discard, body)
		_ = body.Close()
		if err == nil && n != 256 {
			err = io.ErrUnexpectedEOF
		}
		return err
	}

	const rounds = 50
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	done := make(chan struct{})
	otherErr := make(chan error, 1)
	go func() {
		defer close(otherErr)
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := get(&other); err != nil {
				otherErr <- err
				return
			}
		}
	}()
	for r := 0; r < rounds; r++ {
		var s exchangeSlot
		fire := time.Duration(rng.Intn(300)) * time.Microsecond
		fired := make(chan struct{})
		go func() {
			time.Sleep(fire)
			s.abort()
			close(fired)
		}()
		var err error
		for err == nil {
			err = get(&s)
		}
		<-fired
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("round %d: the aborted slot's exchange failed with %v, want context.Canceled", r, err)
		}
		if err := get(&s); !errors.Is(err, context.Canceled) {
			t.Fatalf("round %d: an exchange after the abort: %v, want context.Canceled", r, err)
		}
		if s.conn.Load() != nil {
			t.Fatalf("round %d: the aborted slot still holds a connection", r)
		}
	}
	close(done)
	if err := <-otherErr; err != nil {
		t.Fatalf("the other slot's exchange failed: %v", err)
	}
	if n := st.reused.Load(); n > 0 {
		t.Errorf("%d deadlines set on connections an abort had reached", n)
	}
	if n := st.foreign.Load(); n > 0 {
		t.Errorf("%d aborts cut the other slot's exchange", n)
	}
	t.Logf("%d rounds, %d aborts reached a socket, %d connections dialled", rounds, st.hits.Load(), p.accepted.Load())

	// Against a peer that never answers, every exchange waits for its
	// abort, wherever the abort falls: before the pop, during the dial,
	// between the dial and the arming. An abort the arming missed would
	// leave the exchange to its deadline.
	hung := startPeer(t, func(int, int, *http.Request, []byte) reply { return reply{hang: true} })
	hungBase := mustParse(t, hung.url())
	for r := 0; r < rounds; r++ {
		var s exchangeSlot
		fire := time.Duration(rng.Intn(300)) * time.Microsecond
		go func() {
			time.Sleep(fire)
			s.abort()
		}()
		start := time.Now()
		_, _, _, err := tr.forward(context.Background(), &s, time.Now().Add(5*time.Second), hungBase, []byte("/x"))
		if took := time.Since(start); !errors.Is(err, context.Canceled) || took > time.Second {
			t.Fatalf("round %d, abort after %v: the exchange ended after %v with %v, want context.Canceled at once", r, fire, took, err)
		}
	}
}
