package httpcluster

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
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
// goroutine — one buffered write, one parse of the reply — over a bounded
// LIFO stack of idle connections per host. It starts no goroutine and no
// timer per connection or per request; it speaks plain http only.
//
// The exchange: pop the youngest idle connection to the host or dial one;
// set the socket deadline to the request context's deadline; register a
// context.AfterFunc that forces the deadline into the past, so a
// cancelled context fails the pending read or write at once; write
// method, request-URI, Host, the request's headers and — when it has a
// body — Content-Length and the body; parse the reply with
// http.ReadResponse. The response body it hands back decides the
// connection's fate when it is closed.
//
// Reuse. A connection goes back on the stack only if all of these hold:
// the body was read to EOF and its Close returned nil; the reply was a
// final one that did not say "Connection: close" and left nothing unread
// behind it; the context's AfterFunc did not run; the stack has room; and
// CloseIdleConnections has not been called. Anything else closes the
// socket. Connections parked for longer than upstreamIdleAge are closed
// when a pop finds them, not by a timer.
//
// Replay. The transport does not watch idle connections, so it learns
// that the peer closed one only by using it. A reused connection that
// fails before one byte of the reply arrived, on a request without a
// body whose context is still live, is replayed exactly once on a fresh
// dial. Every other error — a failure on a fresh connection, after the
// first reply byte, or with a request body — goes to the caller.
//
// CloseIdleConnections is the owner's release and is final: the transport
// keeps working afterwards, but every exchange then dials its own
// connection and closes it, so neither a request in flight at that moment
// nor one that starts later leaves a socket behind.
//
// A response body's Read and Close may be called from different
// goroutines, but to interrupt a Read cancel the request's context.
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
	abort  func() // what the context's AfterFunc runs
	idleAt time.Time
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

// NewUpstreamTransport returns the transport StartProxy builds for
// itself when ProxyConfig.Transport is nil: one idle connection per
// endpoint of the largest backend pool, as mod_jk keeps one connection
// per endpoint. It is exported for callers that wrap the upstream hop
// (internal/faults' Transport) and still want the pooled base; whoever
// calls it owns the transport and closes its idle connections.
func NewUpstreamTransport(backends []*Backend) *UpstreamTransport {
	idle := 0
	for _, be := range backends {
		if be.capacity > idle {
			idle = be.capacity
		}
	}
	return newUpstreamTransport(idle)
}

// RoundTrip implements http.RoundTripper.
func (t *UpstreamTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	bodyless := req.Body == nil || req.Body == http.NoBody
	if !bodyless {
		defer func() { _ = req.Body.Close() }() // only read here
	}
	addr, uri, err := checkRequest(req)
	if err != nil {
		return nil, err
	}
	ctx := req.Context()
	if err := ctx.Err(); err != nil {
		return nil, exchangeError(ctx, addr, err)
	}
	c := t.popIdle(addr)
	reused := c != nil
	for {
		if c == nil {
			nc, err := t.dial(ctx, "tcp", addr)
			if err != nil {
				return nil, exchangeError(ctx, addr, err)
			}
			c = &upstreamConn{nc: nc, br: bufio.NewReader(nc), bw: bufio.NewWriter(nc)}
			c.abort = func() { _ = nc.SetDeadline(time.Unix(1, 0)) } // fails on a closed socket, which needs no abort
		}
		resp, early, err := t.exchange(ctx, c, req, addr, uri)
		if err == nil {
			return resp, nil
		}
		if !reused || !early || !bodyless || ctx.Err() != nil {
			return nil, exchangeError(ctx, addr, err)
		}
		reused, c = false, nil
	}
}

// exchange writes req on c and reads the reply's header. On failure it
// closes c and reports whether that was before any byte of a reply.
func (t *UpstreamTransport) exchange(ctx context.Context, c *upstreamConn, req *http.Request, addr, uri string) (resp *http.Response, early bool, err error) {
	deadline, _ := ctx.Deadline() // the zero time clears the previous exchange's
	// A socket that cannot take a deadline is closed; the write reports it.
	_ = c.nc.SetDeadline(deadline)
	stop := context.AfterFunc(ctx, c.abort)
	early = true
	if err = c.writeRequest(req, uri); err == nil {
		_, err = c.br.Peek(1)
	}
	if err == nil {
		early = false
		resp, err = http.ReadResponse(c.br, req)
	}
	if err != nil {
		stop()
		_ = c.nc.Close() // discarded after a failure that is already reported
		return nil, early, err
	}
	b := &upstreamBody{
		t: t, c: c, rc: resp.Body, ctx: ctx, stop: stop, addr: addr,
		// An informational reply would leave the final one unread.
		keep: !resp.Close && !req.Close && resp.StatusCode >= 200,
	}
	b.eof.Store(resp.Body == http.NoBody)
	resp.Body = b
	return resp, false, nil
}

// writeRequest sends the request line, the headers and the body, if any,
// in as few writes as the buffer allows. checkRequest has passed req.
func (c *upstreamConn) writeRequest(req *http.Request, uri string) error {
	bw := c.bw
	method, host := req.Method, req.Host
	if method == "" {
		method = http.MethodGet
	}
	if host == "" {
		host = req.URL.Host
	}
	// bufio.Writer keeps its first error and returns it from Flush.
	bw.WriteString(method)
	bw.WriteByte(' ')
	bw.WriteString(uri)
	bw.WriteString(" HTTP/1.1\r\nHost: ")
	bw.WriteString(host)
	bw.WriteString("\r\n")
	for name, values := range req.Header {
		if framingHeader(name) {
			continue
		}
		for _, v := range values {
			bw.WriteString(name)
			bw.WriteString(": ")
			bw.WriteString(v)
			bw.WriteString("\r\n")
		}
	}
	if req.Close {
		bw.WriteString("Connection: close\r\n")
	}
	if req.ContentLength > 0 {
		var num [20]byte
		bw.WriteString("Content-Length: ")
		bw.Write(strconv.AppendInt(num[:0], req.ContentLength, 10))
		bw.WriteString("\r\n\r\n")
		if _, err := io.CopyN(bw, req.Body, req.ContentLength); err != nil {
			return fmt.Errorf("request body: %w", err)
		}
	} else {
		bw.WriteString("\r\n")
	}
	return bw.Flush()
}

// framingHeader names the header fields the transport writes from the
// request's own fields, never from its header map.
func framingHeader(name string) bool {
	switch name {
	case "Host", "Content-Length", "Transfer-Encoding", "Trailer":
		return true
	}
	return false
}

// checkRequest rejects what this transport cannot send — anything but
// plain http to a host, a body of unknown length — and anything that
// would end a line of the request early, before a connection is touched.
// It returns the address to dial and the request-URI.
func checkRequest(req *http.Request) (addr, uri string, err error) {
	u := req.URL
	if u == nil || u.Scheme != "http" || u.Host == "" {
		return "", "", fmt.Errorf("httpcluster: upstream transport: want an http://host URL, got %q", u)
	}
	addr = u.Host
	if u.Port() == "" {
		addr = net.JoinHostPort(u.Hostname(), "80")
	}
	uri = u.RequestURI()
	ok := (req.Method == "" || validToken(req.Method)) && validValue(uri, false) && validValue(u.Host, false) && validValue(req.Host, false)
	for name, values := range req.Header {
		ok = ok && validToken(name)
		for _, v := range values {
			ok = ok && validValue(v, true)
		}
	}
	if !ok {
		return "", "", fmt.Errorf("httpcluster: upstream transport: %s %s: control character or space in method, URL, host or header", req.Method, u.Redacted())
	}
	if req.Body != nil && req.Body != http.NoBody && req.ContentLength <= 0 {
		return "", "", fmt.Errorf("httpcluster: upstream transport: %s %s: request body without a Content-Length", req.Method, u.Redacted())
	}
	return addr, uri, nil
}

// validToken reports whether s can stand as a method or a header name.
func validToken(s string) bool {
	return s != "" && validValue(s, false) && !strings.Contains(s, ":")
}

// validValue reports whether s holds no control byte and, unless
// spaces are allowed (header values), no space or tab.
func validValue(s string, spaces bool) bool {
	for i := 0; i < len(s); i++ {
		switch b := s[i]; {
		case b == ' ' || b == '\t':
			if !spaces {
				return false
			}
		case b < ' ' || b == 0x7f:
			return false
		}
	}
	return true
}

// exchangeError names the hop in an error and turns a socket deadline
// into what caused it: the transport sets deadlines only from the
// context, so a timeout is the context's expiry or its cancellation.
func exchangeError(ctx context.Context, addr string, err error) error {
	return fmt.Errorf("httpcluster: upstream %s: %w", addr, contextCause(ctx, err))
}

func contextCause(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	if errors.Is(err, os.ErrDeadlineExceeded) {
		// The socket's timer ran ahead of the context's.
		return context.DeadlineExceeded
	}
	return err
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
// is closed.
type upstreamBody struct {
	t    *UpstreamTransport
	c    *upstreamConn
	rc   io.ReadCloser // what http.ReadResponse made of the framing
	ctx  context.Context
	stop func() bool // the AfterFunc's
	addr string
	keep bool
	eof  atomic.Bool
	done atomic.Bool
}

func (b *upstreamBody) Read(p []byte) (int, error) {
	if b.done.Load() {
		return 0, http.ErrBodyReadAfterClose
	}
	n, err := b.rc.Read(p)
	if err == io.EOF {
		b.eof.Store(true)
	} else if err != nil {
		err = contextCause(b.ctx, err)
	}
	return n, err
}

// Close applies the reuse rule. Short of EOF the framing's own Close is
// not called: it would read the rest of the body first.
func (b *upstreamBody) Close() error {
	if b.done.Swap(true) {
		return nil
	}
	live := b.stop()
	if live && b.keep && b.eof.Load() && b.rc.Close() == nil && b.c.br.Buffered() == 0 && b.t.pushIdle(b.addr, b.c) {
		return nil
	}
	_ = b.c.nc.Close() // discarded; there is no one to tell
	return nil
}
