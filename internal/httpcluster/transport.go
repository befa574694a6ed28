package httpcluster

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"millibalance/internal/h1"
)

// upstreamIdleAge is how long a parked connection stays usable. The
// servers of this package keep an idle connection open for longer
// (serverIdleTimeout), so a popped connection is almost never one the
// peer has already closed.
const upstreamIdleAge = 90 * time.Second

// UpstreamTransport is the one transport between the tiers: the proxy's
// hop to the app servers (and the prober's probes), and the app server's
// hop to the database. Like a mod_jk worker thread on a persistent
// endpoint it performs the whole HTTP/1.1 exchange on the caller's
// goroutine — one buffered write, one in-place read of the reply's head —
// over a bounded LIFO stack of idle connections per host. It starts no
// goroutine and no timer per connection or per request; it speaks plain
// http only, and is a driver of the HTTP/1.1 codec in internal/h1, which
// writes the request and reads the reply.
//
// Its one entry point, forward, is the tiers' own hop: it writes GET
// <base path><path> and Host from its arguments under the caller's
// context, its exchangeSlot and an attempt deadline, and returns the
// status and the body — no request object, no derived context, no header
// map, and on a reused connection no allocation.
//
// The exchange: pop the youngest idle connection to the host or dial one;
// set the socket deadline to the earlier of the attempt deadline and the
// context's; arm the caller's slot with the connection, so that the
// slot's abort forces the deadline into the past and fails the pending
// read or write at once; write the request; read the reply's head on the
// connection's bufio.Reader into the connection's h1.Head, keeping the
// framing fields. The body reads through an h1.Body on the same buffer,
// and decides the connection's fate when it is closed. The caller fires
// its slot when its context ends. DESIGN.md §17 lists where the exchange
// differs from net/http's.
//
// Reuse. A connection goes back on the stack only if all of these hold:
// the body was read to EOF (a chunked body's trailer section included);
// the reply was a final one that did not say "Connection: close", was not
// an HTTP/1.0 reply without "Connection: keep-alive", was not read to the
// peer's EOF, and left nothing unread behind it; the slot's abort did not
// take the connection; the stack has room; and CloseIdleConnections has
// not been called. Anything else closes the socket. Connections parked for
// longer than upstreamIdleAge are closed when a pop finds them, not by a
// timer.
//
// Replay. The transport does not watch idle connections, so it learns
// that the peer closed one only by using it. A reused connection that
// fails before one byte of the reply arrived, while the context is still
// live, is replayed exactly once on a fresh dial. Every other error — a
// failure on a fresh connection, or after the first reply byte — goes to
// the caller.
//
// CloseIdleConnections is the owner's release and is final: the transport
// keeps working afterwards, but every exchange then dials its own
// connection and closes it, so neither a request in flight at that moment
// nor one that starts later leaves a socket behind.
//
// A reply body's Read and Close may be called from different goroutines,
// but to interrupt a Read fire the slot.
type UpstreamTransport struct {
	maxIdle int
	dial    func(ctx context.Context, network, addr string) (net.Conn, error)

	mu     sync.Mutex
	idle   map[string][]*upstreamConn // per host address; the last element is the youngest
	closed bool
}

// upstreamConn is one kept-alive connection and the buffers that live as
// long as it does.
type upstreamConn struct {
	nc     net.Conn
	br     *bufio.Reader
	bw     *bufio.Writer
	head   h1.Head // the reply being read
	idleAt time.Time
}

// abort fails the connection's pending read or write at once. On a closed
// socket it fails, and a closed socket needs no abort.
func (c *upstreamConn) abort() { _ = c.nc.SetDeadline(time.Unix(1, 0)) }

// exchangeSlot is where one caller runs its exchanges, one at a time: the
// connection of the exchange in flight, whether the caller has gone, and
// the body of the slot's latest reply. A front connection owns one for
// the proxy's hop, the app server one per request for its DB queries, the
// prober one per target. Its abort may run on any goroutine, at any time,
// any number of times.
//
// The hand-off: an exchange sets its connection's deadline, then stores
// the connection in the slot and checks fired; abort sets fired, then
// swaps the connection out and forces its deadline into the past. Either
// the exchange sees fired, or abort sees the connection. The exchange
// takes its connection back with a compare-and-swap when it ends, and a
// connection that abort swapped out is closed, never parked, so an abort
// never lands on another caller's exchange.
//
// A body lives in the slot, not in the connection, because a connection
// passes from caller to caller: a stale Read or Close of a closed body
// reaches only the slot that read it, never the exchange that pops its
// connection next.
type exchangeSlot struct {
	conn  atomic.Pointer[upstreamConn] // the exchange in flight's; nil between exchanges
	fired atomic.Bool                  // the caller has gone: no exchange goes on or starts
	body  upstreamBody
}

// abort ends the slot: the exchange in flight fails at once, and every
// exchange after it before it starts.
func (s *exchangeSlot) abort() {
	s.fired.Store(true)
	if c := s.conn.Swap(nil); c != nil {
		c.abort()
	}
}

// arm makes c the slot's connection, once the exchange has set c's
// deadline. It reports false when the slot has fired; the caller then
// closes c.
func (s *exchangeSlot) arm(c *upstreamConn) bool {
	s.conn.Store(c)
	if !s.fired.Load() {
		return true
	}
	s.disarm(c)
	return false
}

// disarm takes c back from the slot. It reports false when abort took it
// first: c's deadline is in the past, or about to be, and c must be
// closed.
func (s *exchangeSlot) disarm(c *upstreamConn) bool { return s.conn.CompareAndSwap(c, nil) }

// cause reports a failure as the context's error when the context has
// ended, as context.Canceled when the slot fired without it, and a socket
// timeout otherwise as context.DeadlineExceeded: the attempt deadline
// passed.
func (s *exchangeSlot) cause(ctx context.Context, err error) error {
	switch {
	case ctx.Err() != nil:
		return ctx.Err()
	case s.fired.Load():
		return context.Canceled
	case errors.Is(err, os.ErrDeadlineExceeded):
		return context.DeadlineExceeded
	}
	return err
}

// upstreamRequest is what one exchange writes: GET, the target uri then
// path, and Host.
type upstreamRequest struct {
	uri, host string
	path      []byte
}

// newUpstreamTransport returns a transport that parks up to maxIdle
// connections per host: the concurrency of the hop it serves.
func newUpstreamTransport(maxIdle int) *UpstreamTransport {
	if maxIdle < 1 {
		maxIdle = 1
	}
	return &UpstreamTransport{
		maxIdle: maxIdle,
		dial:    (&net.Dialer{Timeout: 30 * time.Second, KeepAlive: 30 * time.Second}).DialContext,
		idle:    make(map[string][]*upstreamConn),
	}
}

// forward sends GET <base's escaped path><path> ("/" when both are empty)
// with base's Host and no other header or body, on slot s. The socket
// deadline is the earlier of deadline and ctx's, and it covers the body
// read as well; s's abort ends the exchange at once, and ctx ends a dial.
// The caller reads the body to EOF and closes it to give the connection
// back, before it starts another exchange on s. It returns the reply's
// status, its Content-Length (-1 when chunked or read until the peer
// closes) and its body.
func (t *UpstreamTransport) forward(ctx context.Context, s *exchangeSlot, deadline time.Time, base *url.URL, path []byte) (status int, length int64, body io.ReadCloser, err error) {
	uri := base.EscapedPath()
	if uri == "" && len(path) == 0 {
		uri = "/"
	}
	if base.Scheme != "http" || base.Host == "" || !h1.ValidHost(base.Host) || !h1.ValidTarget(uri) || !h1.ValidTarget(path) {
		return 0, 0, nil, fmt.Errorf("httpcluster: upstream transport: cannot send GET %q to %s", uri+string(path), base.Redacted())
	}
	rq := upstreamRequest{uri: uri, path: path, host: base.Host}
	b, err := t.do(ctx, s, deadline, hostAddr(base), &rq)
	if err != nil {
		return 0, 0, nil, err
	}
	return b.c.head.Status, b.c.head.Length, b, nil // the body owns the connection, and its head
}

// do runs one exchange of rq with addr on s under ctx and deadline (the
// zero time: ctx's alone), replaying it once on a fresh dial when a
// reused connection fails before the reply began.
func (t *UpstreamTransport) do(ctx context.Context, s *exchangeSlot, deadline time.Time, addr string, rq *upstreamRequest) (*upstreamBody, error) {
	if d, ok := ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
		deadline = d
	}
	if err := ctx.Err(); err != nil || s.fired.Load() {
		return nil, exchangeError(ctx, s, addr, err)
	}
	c := t.popIdle(addr)
	reused := c != nil
	for {
		if c == nil {
			var err error
			if c, err = t.dialConn(ctx, deadline, addr); err != nil {
				return nil, exchangeError(ctx, s, addr, err)
			}
		}
		early, err := t.exchange(ctx, s, deadline, c, rq, addr)
		if err == nil {
			return &s.body, nil
		}
		if !reused || !early || ctx.Err() != nil || s.fired.Load() {
			return nil, exchangeError(ctx, s, addr, err)
		}
		reused, c = false, nil
	}
}

// dialConn dials addr, bounded by deadline as well as by ctx.
func (t *UpstreamTransport) dialConn(ctx context.Context, deadline time.Time, addr string) (*upstreamConn, error) {
	if !deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}
	nc, err := t.dial(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	return &upstreamConn{nc: nc, br: bufio.NewReader(nc), bw: bufio.NewWriter(nc)}, nil
}

// exchange writes rq on c and reads the reply's head into s's body. On
// failure it closes c and reports whether that was before any byte of a
// reply.
func (t *UpstreamTransport) exchange(ctx context.Context, s *exchangeSlot, deadline time.Time, c *upstreamConn, rq *upstreamRequest, addr string) (early bool, err error) {
	// The zero time clears the previous exchange's deadline. A socket that
	// cannot take a deadline is closed; the write reports it. The deadline
	// is set before the slot is armed, so it cannot undo an abort.
	_ = c.nc.SetDeadline(deadline)
	if !s.arm(c) {
		_ = c.nc.Close() // never used
		return true, context.Canceled
	}
	early = true
	if err = c.writeRequest(rq); err == nil {
		_, err = c.br.Peek(1)
	}
	if err == nil {
		early = false
		if err = h1.ReadStatusLine(c.br, &c.head); err == nil {
			err = c.head.ReadFields(c.br, nil)
		}
	}
	if err != nil {
		s.disarm(c)
		_ = c.nc.Close() // discarded after a failure that is already reported
		return early, err
	}
	h, b := &c.head, &s.body
	b.t, b.s, b.c, b.ctx, b.addr = t, s, c, ctx, addr
	// An informational reply would leave the final one unread.
	b.keep = !h.Close && h.Status >= 200
	b.body.Reset(c.br, h)
	b.eof.Store(h.Length == 0)
	b.done.Store(false)
	return false, nil
}

// writeRequest sends the request head in one write. The request has been
// checked.
func (c *upstreamConn) writeRequest(rq *upstreamRequest) error {
	h1.WriteRequestLine(c.bw, http.MethodGet, rq.uri, rq.path, rq.host)
	c.bw.WriteString("\r\n")
	return c.bw.Flush()
}

// hostAddr is the address to dial for u: its host, port 80 if it names
// none.
func hostAddr(u *url.URL) string {
	if u.Port() == "" {
		return net.JoinHostPort(u.Hostname(), "80")
	}
	return u.Host
}

// exchangeError names the hop in an error and turns a socket deadline
// into what caused it.
func exchangeError(ctx context.Context, s *exchangeSlot, addr string, err error) error {
	return fmt.Errorf("httpcluster: upstream %s: %w", addr, s.cause(ctx, err))
}

// popIdle takes the youngest idle connection to addr. If even that one is
// too old, so are all below it, and the stack is emptied.
func (t *UpstreamTransport) popIdle(addr string) *upstreamConn {
	var c *upstreamConn
	var expired []*upstreamConn
	now := time.Now()
	t.mu.Lock()
	if s := t.idle[addr]; len(s) > 0 {
		if top := len(s) - 1; now.Sub(s[top].idleAt) < upstreamIdleAge {
			c, s[top] = s[top], nil
			t.idle[addr] = s[:top]
		} else {
			expired = append(expired, s...)
			clear(s)
			t.idle[addr] = s[:0]
		}
	}
	t.mu.Unlock()
	for _, old := range expired {
		_ = old.nc.Close() // never used again
	}
	return c
}

// pushIdle parks c, or reports that it may not be kept.
func (t *UpstreamTransport) pushIdle(addr string, c *upstreamConn) bool {
	c.idleAt = time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.idle[addr]
	if t.closed || len(s) >= t.maxIdle {
		return false
	}
	if s == nil {
		s = make([]*upstreamConn, 0, t.maxIdle)
	}
	t.idle[addr] = append(s, c)
	return true
}

// CloseIdleConnections closes every parked connection and stops the
// transport parking any other, whether its exchange is in flight now or
// starts later.
func (t *UpstreamTransport) CloseIdleConnections() {
	t.mu.Lock()
	idle := t.idle
	t.idle = make(map[string][]*upstreamConn)
	t.closed = true
	t.mu.Unlock()
	for _, s := range idle {
		for _, c := range s {
			_ = c.nc.Close() // never used again
		}
	}
}

// upstreamBody is the body of one reply. It owns the connection until it
// is closed; after that, Read reports http.ErrBodyReadAfterClose and Close
// nil, until the slot it lives in starts its next exchange.
type upstreamBody struct {
	t    *UpstreamTransport
	s    *exchangeSlot
	c    *upstreamConn
	ctx  context.Context
	addr string
	body h1.Body // the framing on c.br
	eof  atomic.Bool
	done atomic.Bool
	keep bool
}

func (b *upstreamBody) Read(p []byte) (n int, err error) {
	if b.done.Load() {
		return 0, http.ErrBodyReadAfterClose
	}
	if b.eof.Load() {
		return 0, io.EOF
	}
	n, err = b.body.Read(p)
	switch {
	case err == io.EOF:
		b.eof.Store(true)
	case err != nil:
		err = b.s.cause(b.ctx, err)
	}
	return n, err
}

// Close applies the reuse rule. A body closed short of EOF is not
// drained.
func (b *upstreamBody) Close() error {
	if b.done.Swap(true) {
		return nil
	}
	live := b.s.disarm(b.c)
	if live && b.keep && b.eof.Load() && b.c.br.Buffered() == 0 && b.t.pushIdle(b.addr, b.c) {
		return nil
	}
	_ = b.c.nc.Close() // discarded; there is no one to tell
	return nil
}
