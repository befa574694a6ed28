package httpcluster

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
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
// goroutine — one buffered write, one in-place read of the reply's head —
// over a bounded LIFO stack of idle connections per host. It starts no
// goroutine and no timer per connection or per request; it speaks plain
// http only.
//
// Two entry points share the exchange. forward is the tiers' own hop: it
// writes GET <uri> and Host from its arguments under the caller's context
// and an attempt deadline, and returns the status and the body — no
// request object, no derived context, no header map. RoundTrip is the
// http.RoundTripper for everything else (probes, tests, wrappers such as
// internal/faults' Transport): it writes the request's method, headers
// and body, and returns an *http.Response with Status, StatusCode,
// Proto*, Header, ContentLength, Close and Request set.
//
// The exchange: pop the youngest idle connection to the host or dial one;
// set the socket deadline to the earlier of the attempt deadline and the
// context's; register one context.AfterFunc on the caller's context that
// forces the deadline into the past, so a cancelled context fails the
// pending read or write at once; write the request; read the status line
// and scan the header lines with ReadSlice on the connection's
// bufio.Reader for the framing fields — Content-Length,
// Transfer-Encoding, Connection — and, for RoundTrip, every header. The
// body reads through an io.LimitedReader or httputil's chunked reader on
// the same buffer, and decides the connection's fate when it is closed.
// A head line longer than that 4 KiB buffer fails the exchange, where
// net/http would accept it.
//
// Reuse. A connection goes back on the stack only if all of these hold:
// the body was read to EOF (a chunked body's trailer section included);
// the reply was a final one that did not say "Connection: close", was not
// an HTTP/1.0 reply without "Connection: keep-alive", was not read to the
// peer's EOF, and left nothing unread behind it; the context's AfterFunc
// did not run; the stack has room; and CloseIdleConnections has not been
// called. Anything else closes the socket. Connections parked for longer
// than upstreamIdleAge are closed when a pop finds them, not by a timer.
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

// upstreamRequest is what one exchange writes.
type upstreamRequest struct {
	method, uri, host string
	header            http.Header // written as it stands, framing fields aside
	close             bool        // ask the peer to close after its reply
	body              io.Reader   // length bytes of it
	length            int64
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

// forward sends GET uri with base's Host and no other header or body. The
// socket deadline is the earlier of deadline and ctx's, and it covers the
// body read as well; a cancelled ctx ends the exchange at once. The
// caller reads the body to EOF and closes it to give the connection back.
func (t *UpstreamTransport) forward(ctx context.Context, deadline time.Time, base *url.URL, uri string) (int, io.ReadCloser, error) {
	if base.Scheme != "http" || base.Host == "" || !validValue(base.Host, false) || !validValue(uri, false) {
		return 0, nil, fmt.Errorf("httpcluster: upstream transport: cannot send GET %q to %s", uri, base.Redacted())
	}
	rq := upstreamRequest{method: http.MethodGet, uri: uri, host: base.Host}
	b, err := t.do(ctx, deadline, hostAddr(base), &rq, nil)
	if err != nil {
		return 0, nil, err
	}
	return b.status, b, nil
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
	rq := upstreamRequest{method: req.Method, uri: uri, host: req.Host, header: req.Header, close: req.Close}
	if rq.method == "" {
		rq.method = http.MethodGet
	}
	if rq.host == "" {
		rq.host = req.URL.Host
	}
	if !bodyless {
		rq.body, rq.length = req.Body, req.ContentLength
	}
	resp := &http.Response{Header: make(http.Header), Request: req}
	b, err := t.do(req.Context(), time.Time{}, addr, &rq, resp)
	if err != nil {
		return nil, err
	}
	resp.Body = b
	return resp, nil
}

// do runs one exchange of rq with addr under ctx and deadline (the zero
// time: ctx's alone), replaying it once on a fresh dial when a reused
// connection fails before the reply began. A non-nil sink receives the
// reply's head.
func (t *UpstreamTransport) do(ctx context.Context, deadline time.Time, addr string, rq *upstreamRequest, sink *http.Response) (*upstreamBody, error) {
	if d, ok := ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
		deadline = d
	}
	if err := ctx.Err(); err != nil {
		return nil, exchangeError(ctx, addr, err)
	}
	c := t.popIdle(addr)
	reused := c != nil
	for {
		if c == nil {
			var err error
			if c, err = t.dialConn(ctx, deadline, addr); err != nil {
				return nil, exchangeError(ctx, addr, err)
			}
		}
		b, early, err := t.exchange(ctx, deadline, c, rq, addr, sink)
		if err == nil {
			return b, nil
		}
		if !reused || !early || rq.length > 0 || ctx.Err() != nil {
			return nil, exchangeError(ctx, addr, err)
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
	c := &upstreamConn{nc: nc, br: bufio.NewReader(nc), bw: bufio.NewWriter(nc)}
	c.abort = func() { _ = nc.SetDeadline(time.Unix(1, 0)) } // fails on a closed socket, which needs no abort
	return c, nil
}

// exchange writes rq on c and reads the reply's head. On failure it
// closes c and reports whether that was before any byte of a reply.
func (t *UpstreamTransport) exchange(ctx context.Context, deadline time.Time, c *upstreamConn, rq *upstreamRequest, addr string, sink *http.Response) (b *upstreamBody, early bool, err error) {
	// The zero time clears the previous exchange's deadline. A socket that
	// cannot take a deadline is closed; the write reports it.
	_ = c.nc.SetDeadline(deadline)
	stop := context.AfterFunc(ctx, c.abort)
	early = true
	if err = c.writeRequest(rq); err == nil {
		_, err = c.br.Peek(1)
	}
	var h replyHead
	if err == nil {
		early = false
		h, err = readHead(c.br, rq.method == http.MethodHead, sink)
	}
	if err != nil {
		stop()
		_ = c.nc.Close() // discarded after a failure that is already reported
		return nil, early, err
	}
	b = &upstreamBody{
		t: t, c: c, ctx: ctx, stop: stop, addr: addr, status: h.status,
		// An informational reply would leave the final one unread.
		keep: !h.close && !rq.close && h.status >= 200,
	}
	switch {
	case h.chunked:
		b.chunks = httputil.NewChunkedReader(c.br)
	case h.length == 0:
		b.eof.Store(true)
	case h.length > 0:
		b.lr = io.LimitedReader{R: c.br, N: h.length}
	default: // until the peer closes
		b.lr = io.LimitedReader{R: c.br, N: math.MaxInt64}
		b.toEOF = true
	}
	return b, false, nil
}

// writeRequest sends the request line, the headers and the body, if any,
// in as few writes as the buffer allows. The request has been checked.
func (c *upstreamConn) writeRequest(rq *upstreamRequest) error {
	bw := c.bw
	// bufio.Writer keeps its first error and returns it from Flush.
	bw.WriteString(rq.method)
	bw.WriteByte(' ')
	bw.WriteString(rq.uri)
	bw.WriteString(" HTTP/1.1\r\nHost: ")
	bw.WriteString(rq.host)
	bw.WriteString("\r\n")
	for name, values := range rq.header {
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
	if rq.close {
		bw.WriteString("Connection: close\r\n")
	}
	if rq.length > 0 {
		bw.WriteString("Content-Length: ")
		bw.Write(strconv.AppendInt(bw.AvailableBuffer(), rq.length, 10))
		bw.WriteString("\r\n\r\n")
		if _, err := io.CopyN(bw, rq.body, rq.length); err != nil {
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
	return hostAddr(u), uri, nil
}

// hostAddr is the address to dial for u: its host, port 80 if it names
// none.
func hostAddr(u *url.URL) string {
	if u.Port() == "" {
		return net.JoinHostPort(u.Hostname(), "80")
	}
	return u.Host
}

// validToken reports whether s can stand as a method or a header name.
func validToken(s string) bool {
	return s != "" && validValue(s, false) && !strings.Contains(s, ":")
}

// validValue reports whether s holds no control byte and, unless
// spaces are allowed (header values), no space or tab.
func validValue[T string | []byte](s T, spaces bool) bool {
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

// replyHead is what the transport keeps of a reply's head.
type replyHead struct {
	status  int
	length  int64 // body bytes; -1 when chunked or read until the peer closes
	chunked bool
	close   bool // the connection carries nothing after this reply
}

var (
	errHeadCut     = errors.New("httpcluster: reply ends inside its head")
	errLineTooLong = errors.New("httpcluster: reply head line longer than the read buffer")
	errTrailerCut  = errors.New("httpcluster: reply ends inside its chunked trailer")
)

// readHead parses a reply's status line and header lines in place on br,
// keeping only what framing needs, as net/http frames a reply: no body
// after a HEAD request or a 1xx, 204 or 304 status; chunked encoding wins
// over Content-Length and is ignored in an HTTP/1.0 reply; two different
// Content-Length values, or one that does not parse, are an error; a
// reply with neither is read until the peer closes. An HTTP/1.0 reply
// closes the connection unless it says "Connection: keep-alive". A
// non-nil sink also receives the status, the protocol and every header
// but Transfer-Encoding.
func readHead(br *bufio.Reader, head bool, sink *http.Response) (h replyHead, err error) {
	line, err := readLine(br)
	if err != nil {
		return h, err
	}
	sp := bytes.IndexByte(line, ' ')
	if sp < 0 {
		return h, fmt.Errorf("httpcluster: malformed HTTP response %q", line)
	}
	proto, status := line[:sp], bytes.TrimLeft(line[sp+1:], " ")
	code, _, _ := bytes.Cut(status, []byte{' '})
	if len(code) != 3 || !isDigit(code[0]) || !isDigit(code[1]) || !isDigit(code[2]) {
		return h, fmt.Errorf("httpcluster: malformed HTTP status code %q", code)
	}
	h.status = int(code[0]-'0')*100 + int(code[1]-'0')*10 + int(code[2]-'0')
	if len(proto) != len("HTTP/1.1") || !bytes.HasPrefix(proto, []byte("HTTP/")) || proto[6] != '.' || !isDigit(proto[5]) || !isDigit(proto[7]) {
		return h, fmt.Errorf("httpcluster: malformed HTTP version %q", proto)
	}
	major, minor := int(proto[5]-'0'), int(proto[7]-'0')
	if sink != nil {
		sink.Status, sink.StatusCode, sink.Proto = string(status), h.status, string(proto)
		sink.ProtoMajor, sink.ProtoMinor = major, minor
	}

	var (
		length             int64 = -1 // the first Content-Length
		lengths, badLength bool       // more than one value; one that does not parse
		encodings          int
		chunked            bool
		closes, keepAlive  bool
		lastKey            string // the sink's, for a folded line
		lastFraming        = true // no fold continues a framing field, or nothing
	)
	for {
		line, err := readLine(br)
		if err == io.ErrUnexpectedEOF {
			err = errHeadCut
		}
		if err != nil {
			return h, err
		}
		if len(line) == 0 {
			break
		}
		if line[0] == ' ' || line[0] == '\t' { // a folded continuation line
			if lastFraming {
				return h, fmt.Errorf("httpcluster: malformed header continuation %q", line)
			}
			if sink != nil {
				v := sink.Header[lastKey]
				v[len(v)-1] += " " + string(bytes.TrimSpace(line))
			}
			continue
		}
		colon := bytes.IndexByte(line, ':')
		if colon <= 0 || !validValue(line[:colon], false) {
			return h, fmt.Errorf("httpcluster: malformed header line %q", line)
		}
		name, value := line[:colon], bytes.Trim(line[colon+1:], " \t")
		lastFraming = true
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			n, ok := parseLength(value)
			switch {
			case !ok:
				badLength = true
			case length < 0:
				length = n
			case n != length:
				lengths = true
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			encodings++
			chunked = bytes.EqualFold(value, []byte("chunked"))
			continue // net/http takes it out of the header, too
		case bytes.EqualFold(name, []byte("Connection")):
			closes = closes || hasToken(value, []byte("close"))
			keepAlive = keepAlive || hasToken(value, []byte("keep-alive"))
		default:
			lastFraming = false
		}
		if sink != nil {
			lastKey = http.CanonicalHeaderKey(string(name))
			sink.Header[lastKey] = append(sink.Header[lastKey], string(value))
		}
	}

	if major >= 1 && (major > 1 || minor >= 1) && encodings > 0 {
		if encodings > 1 || !chunked {
			return h, errors.New("httpcluster: unsupported transfer encoding")
		}
	} else {
		chunked = false
	}
	if !chunked && lengths {
		return h, errors.New("httpcluster: reply carries two different Content-Length values")
	}
	h.close = closes || major < 1 || (major == 1 && minor == 0 && !keepAlive)
	switch {
	case head || h.status/100 == 1 || h.status == 204 || h.status == 304:
		h.length = 0
	case chunked:
		h.chunked, h.length = true, -1
	case badLength:
		return h, errors.New("httpcluster: reply carries a bad Content-Length")
	default:
		h.length = length
		h.close = h.close || length < 0
	}
	if sink != nil {
		if chunked {
			delete(sink.Header, "Content-Length")
		}
		sink.ContentLength, sink.Close = h.length, h.close
	}
	return h, nil
}

// readLine returns the next line on br without its line ending. The
// slice points into br's buffer and is valid until the next read.
func readLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	switch err {
	case nil:
	case bufio.ErrBufferFull:
		return nil, errLineTooLong
	case io.EOF:
		return nil, io.ErrUnexpectedEOF
	default:
		return nil, err
	}
	line = line[:len(line)-1]
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, nil
}

// skipTrailer consumes a chunked body's trailer section, up to and
// including its blank line.
func skipTrailer(br *bufio.Reader) error {
	for {
		line, err := readLine(br)
		if err == io.ErrUnexpectedEOF {
			return errTrailerCut
		}
		if err != nil || len(line) == 0 {
			return err
		}
	}
}

func isDigit(b byte) bool { return '0' <= b && b <= '9' }

// parseLength parses a Content-Length value: decimal digits only, at
// most 18 of them.
func parseLength(v []byte) (int64, bool) {
	if len(v) == 0 || len(v) > 18 {
		return 0, false
	}
	var n int64
	for _, b := range v {
		if !isDigit(b) {
			return 0, false
		}
		n = n*10 + int64(b-'0')
	}
	return n, true
}

// hasToken reports whether the comma-separated list v holds token,
// ignoring case.
func hasToken(v []byte, token []byte) bool {
	for len(v) > 0 {
		var item []byte
		item, v, _ = bytes.Cut(v, []byte{','})
		if bytes.EqualFold(bytes.Trim(item, " \t"), token) {
			return true
		}
	}
	return false
}

// exchangeError names the hop in an error and turns a socket deadline
// into what caused it.
func exchangeError(ctx context.Context, addr string, err error) error {
	return fmt.Errorf("httpcluster: upstream %s: %w", addr, contextCause(ctx, err))
}

// contextCause reports a failure as the context's error when the context
// has ended — the AfterFunc's forced deadline, or the context's own — and
// a socket timeout under a live context as context.DeadlineExceeded: the
// attempt deadline passed.
func contextCause(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	if errors.Is(err, os.ErrDeadlineExceeded) {
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
	t      *UpstreamTransport
	c      *upstreamConn
	ctx    context.Context
	stop   func() bool // the AfterFunc's
	addr   string
	status int
	keep   bool
	lr     io.LimitedReader // the framing, unless chunks is set
	toEOF  bool             // lr runs until the peer closes
	chunks io.Reader        // httputil's chunked reader on c.br
	eof    atomic.Bool
	done   atomic.Bool
}

func (b *upstreamBody) Read(p []byte) (n int, err error) {
	if b.done.Load() {
		return 0, http.ErrBodyReadAfterClose
	}
	if b.eof.Load() {
		return 0, io.EOF
	}
	if b.chunks != nil {
		n, err = b.chunks.Read(p)
		if err == io.EOF {
			if err = skipTrailer(b.c.br); err == nil {
				err = io.EOF
			}
		}
	} else {
		n, err = b.lr.Read(p)
		switch {
		case err == io.EOF && b.lr.N > 0 && !b.toEOF:
			err = io.ErrUnexpectedEOF
		case err == nil && b.lr.N == 0:
			err = io.EOF // with the last bytes, which saves the caller a read
		}
	}
	switch {
	case err == io.EOF:
		b.eof.Store(true)
	case err != nil:
		err = contextCause(b.ctx, err)
	}
	return n, err
}

// Close applies the reuse rule. A body closed short of EOF is not
// drained.
func (b *upstreamBody) Close() error {
	if b.done.Swap(true) {
		return nil
	}
	live := b.stop()
	if live && b.keep && b.eof.Load() && b.c.br.Buffered() == 0 && b.t.pushIdle(b.addr, b.c) {
		return nil
	}
	_ = b.c.nc.Close() // discarded; there is no one to tell
	return nil
}
