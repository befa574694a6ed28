package httpcluster

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"millibalance/internal/h1"
)

// A front is an HTTP/1.1 server on the codec in internal/h1: an accept
// loop, and per connection a goroutine that reads each request head with
// the codec on the connection's bufio.Reader and hands a handler what it
// uses of it, which writes the reply into the connection's bufio.Writer.
// A second goroutine per connection peeks the socket while a request is
// handled, so a client that goes away cancels the request at once: it
// cancels the connection's context and aborts its exchangeSlot, the one
// the proxy's upstream exchanges run on. The connection's two buffers come
// from a pool and go back to it when both goroutines have returned. It has
// two users: the proxy (Proxy.serve), whose connection goroutine is the
// Apache worker thread that holds the client connection and copies the
// backend's reply back to it, and the DB stub (DBServer.serve).
//
// A request keeps: its method; its path, escaped as sent, from an
// origin-form or absolute-form target (the query is not forwarded); the
// body's framing, Content-Length or chunked; Connection and the HTTP
// version, which decide keep-alive as net/http decides it; the JSESSIONID
// cookie; whether X-Priority says background. The codec checks every
// other field's syntax and drops it. DESIGN.md §16 and §17 list where a
// front answers otherwise than net/http's server.

const (
	// frontBufSize sizes each connection's read and write buffers, and so
	// bounds a request head line.
	frontBufSize = 4 << 10
	// frontMaxDrain is how much of a request body the front reads and
	// drops before dispatch. A longer body is left unread and the
	// connection closes after the reply, as net/http does after a handler.
	frontMaxDrain = 256 << 10
	// sniffLen is how much of a reply body decides its Content-Type.
	sniffLen = 512
)

// requestHead is what the front keeps of one request. Its slices point
// into the connection's head and are valid until the next request.
type requestHead struct {
	method     string
	target     []byte // the request-target as sent
	path       []byte // its path, escaped as sent
	minor      int    // HTTP/1.minor
	length     int64  // the body's Content-Length; -1 when chunked
	keepAlive  bool   // the connection may carry another request
	expect     bool   // Expect: 100-continue
	session    string // the JSESSIONID cookie
	background bool   // X-Priority: background
}

// frontHandler answers one request: it writes the reply into fc.bw and
// reports false when the reply was cut short, which ends the connection.
type frontHandler func(fc *frontConn, h *requestHead) bool

// front is one server: its listener, its handler and its open
// connections, which Close closes.
type front struct {
	ln      net.Listener
	handler frontHandler
	wg      sync.WaitGroup // the accept loop and each connection's two goroutines

	mu      sync.Mutex // guards conns and closing
	conns   map[*frontConn]struct{}
	closing bool
}

// frontConn is one client connection: its buffers, and the context and
// the exchange slot that end when the client goes away, shared by every
// request it carries.
type frontConn struct {
	f      *front
	nc     net.Conn
	br     *bufio.Reader
	bw     *bufio.Writer
	ctx    context.Context
	cancel context.CancelFunc
	slot   exchangeSlot  // the proxy's upstream exchanges run on it
	arm    chan struct{} // serve → watch: peek the socket
	peeked chan error    // watch → serve: the peek returned; closed when watch returns
	head   h1.Head       // the head being read
	body   h1.Body       // its body, drained before dispatch
	req    requestHead   // what the handler uses of it
	sniff  [sniffLen]byte
}

// The pools of the connections' buffers, as net/http's server pools them.
var (
	frontReaders = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, frontBufSize) }}
	frontWriters = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, frontBufSize) }}
)

// frontBuffersReturned, when set by a test, runs as a connection's
// buffers go back to their pools.
var frontBuffersReturned func(*frontConn)

// startFront serves ln with handler until Close.
func startFront(ln net.Listener, handler frontHandler) *front {
	f := &front{ln: ln, handler: handler, conns: make(map[*frontConn]struct{})}
	f.wg.Add(1)
	go f.accept()
	return f
}

// addr returns the address the front listens on.
func (f *front) addr() string { return f.ln.Addr().String() }

// Close closes the listener and every open connection, cancels each
// connection's context, and waits for the accept loop and every
// connection's goroutines, handlers included.
func (f *front) Close() error {
	f.mu.Lock()
	f.closing = true
	err := f.ln.Close()
	for fc := range f.conns {
		_ = fc.nc.Close() // its goroutines see the failure and return
		// The watch sees the closed socket only when a peek is pending, and
		// none is while pipelined bytes or an unread body sit in the buffer.
		fc.abort()
	}
	f.mu.Unlock()
	f.wg.Wait()
	return err
}

// accept runs the accept loop until the listener closes.
func (f *front) accept() {
	defer f.wg.Done()
	var backoff time.Duration
	for {
		nc, err := f.ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			// A transient failure, such as running out of descriptors:
			// back off as net/http does, from 5 ms up to a second.
			backoff = min(max(2*backoff, 5*time.Millisecond), time.Second)
			time.Sleep(backoff)
			continue
		}
		backoff = 0
		f.mu.Lock()
		if f.closing {
			f.mu.Unlock()
			_ = nc.Close() // accepted as the listener closed
			return
		}
		ctx, cancel := context.WithCancel(context.Background())
		fc := &frontConn{
			f: f, nc: nc, ctx: ctx, cancel: cancel,
			br:     frontReaders.Get().(*bufio.Reader),
			bw:     frontWriters.Get().(*bufio.Writer),
			arm:    make(chan struct{}, 1),
			peeked: make(chan error, 1),
		}
		fc.br.Reset(nc)
		fc.bw.Reset(nc)
		f.conns[fc] = struct{}{}
		f.wg.Add(2)
		f.mu.Unlock()
		go fc.serve()
		go fc.watch()
	}
}

// serve reads requests off the connection and answers them in order until
// the client or the server closes it, a reply ends it, or it sits idle for
// serverIdleTimeout. A head must arrive within serverReadHeaderTimeout of
// its first byte.
func (fc *frontConn) serve() {
	defer fc.f.wg.Done()
	defer fc.close()
	fc.arm <- struct{}{} // the first peek waits for the first request
	for {
		_ = fc.nc.SetReadDeadline(time.Now().Add(serverIdleTimeout))
		if err := <-fc.peeked; err != nil {
			return
		}
		_ = fc.nc.SetReadDeadline(time.Now().Add(serverReadHeaderTimeout))
		h := &fc.req
		*h = requestHead{}
		if !fc.readRequest(h) {
			return
		}
		// The body has no deadline, as under net/http without a ReadTimeout.
		_ = fc.nc.SetReadDeadline(time.Time{})
		if !fc.drainBody(h) {
			return
		}
		fc.arm <- struct{}{} // watch the socket while the handler runs
		if !fc.f.handler(fc, h) {
			h.keepAlive = false // a reply cut short ends the connection
		}
		if err := fc.bw.Flush(); err != nil || !h.keepAlive {
			return
		}
	}
}

// watch peeks the socket each time serve arms it. The peek returns when
// the next request begins, which serve then reads, or when the socket
// fails: the client closed or reset it, it sat idle too long, or the
// server closed it. A failure cancels the connection's context, and with
// it the request in flight. Bytes that arrive early stay buffered.
func (fc *frontConn) watch() {
	defer fc.f.wg.Done()
	defer close(fc.peeked)
	for range fc.arm {
		_, err := fc.br.Peek(1)
		if err != nil {
			fc.abort()
		}
		fc.peeked <- err
	}
}

// abort cancels the connection's context, then aborts its slot, so a
// failure the abort causes reads as the context's.
func (fc *frontConn) abort() {
	fc.cancel()
	fc.slot.abort()
}

// close ends the connection: the socket, the context, the watcher. Once
// the watcher has returned — at most one peek result is left unread, so
// it never blocks — nothing else touches the buffers, and they go back to
// their pools.
func (fc *frontConn) close() {
	fc.cancel()
	_ = fc.nc.Close() // nobody is left to tell
	close(fc.arm)
	for range fc.peeked {
	}
	fc.f.mu.Lock()
	delete(fc.f.conns, fc)
	fc.f.mu.Unlock()
	if frontBuffersReturned != nil {
		frontBuffersReturned(fc)
	}
	fc.br.Reset(nil)
	fc.bw.Reset(nil)
	frontReaders.Put(fc.br)
	frontWriters.Put(fc.bw)
	fc.br, fc.bw = nil, nil
}

// readRequest reads one request head into h through the codec, keeping
// the Cookie and X-Priority fields beside the framing ones. A head it will
// not serve is answered as net/http answers it; that, and a client that
// went away mid-head, report false.
func (fc *frontConn) readRequest(h *requestHead) bool {
	hd := &fc.head
	err := h1.ReadRequestLine(fc.br, hd)
	if err == nil {
		h.method, h.minor, h.target = hd.Method, hd.Minor, hd.Target()
		var ok bool
		if h.path, ok = escapedPath(h.target); !ok {
			return fc.reject(http.StatusBadRequest, "")
		}
		err = hd.ReadFields(fc.br, frontFields)
	}
	if err != nil {
		if e, ok := err.(*h1.Error); ok {
			return fc.reject(e.Status, e.Text)
		}
		return false // the socket's failure, which takes no reply
	}
	h.length, h.keepAlive, h.expect = hd.Length, !hd.Close, hd.Continue
	haveSession, priority := false, false // only the first of each counts
	for i := 0; i < hd.NumFields(); i++ {
		name, value := hd.Field(i)
		switch {
		case !haveSession && h1.EqualFold(name, "Cookie"):
			var session []byte
			if session, haveSession = cookieValue(value, []byte("JSESSIONID")); haveSession {
				h.session = string(session)
			}
		case !priority && h1.EqualFold(name, "X-Priority"):
			priority, h.background = true, h1.EqualFold(value, "background")
		}
	}
	return true
}

// frontFields names the fields the front reads beside the framing ones.
func frontFields(name []byte) bool {
	return h1.EqualFold(name, "Cookie") || h1.EqualFold(name, "X-Priority")
}

// reject answers a head the front will not serve with net/http's bytes
// for the same case — the status, text's detail if any, and a body that
// repeats them — and reports false: the connection closes.
func (fc *frontConn) reject(code int, text string) bool {
	status := strconv.Itoa(code) + " " + http.StatusText(code)
	if text != "" {
		status += ": " + text
	}
	body := status
	if code == http.StatusNotImplemented {
		body = "Unsupported transfer encoding"
	}
	bw := fc.bw
	bw.WriteString("HTTP/1.1 " + status + "\r\n")
	h1.WriteField(bw, "Content-Type", "text/plain; charset=utf-8")
	h1.WriteField(bw, "Connection", "close")
	bw.WriteString("\r\n" + body)
	if bw.Flush() == nil {
		fc.lingerClose()
	}
	return false
}

// lingerClose ends the connection's sending side and reads what the
// client still sends, until it closes or for at most half a second, as
// net/http does: closing a socket with unread bytes resets it, and a
// reset can destroy a reply the client has not read yet.
func (fc *frontConn) lingerClose() {
	cw, ok := fc.nc.(interface{ CloseWrite() error })
	if !ok || cw.CloseWrite() != nil {
		return
	}
	_ = fc.nc.SetReadDeadline(time.Now().Add(500 * time.Millisecond))
	_, _ = io.Copy(io.Discard, fc.nc)
}

// drainBody reads the request body and drops it, so the watch that
// follows sees the client's next bytes, not the body. It leaves the body
// unread, and the connection to close after the reply, when the client
// waits for a 100 Continue no handler sends or the body is longer
// than frontMaxDrain. It reports false when the body broke off.
func (fc *frontConn) drainBody(h *requestHead) bool {
	switch {
	case h.length == 0:
		return true
	case h.expect && h.minor >= 1, h.length > frontMaxDrain:
		h.keepAlive = false
		return true
	}
	// The sniff buffer is free until the reply, and a read loop on it
	// allocates nothing where io.CopyN builds a LimitReader.
	fc.body.Reset(fc.br, &fc.head)
	for n := 0; n <= frontMaxDrain; {
		m, err := fc.body.Read(fc.sniff[:])
		n += m
		switch {
		case err == io.EOF:
			return true
		case err != nil:
			return false
		}
	}
	h.keepAlive = false // a chunked body longer than frontMaxDrain
	return true
}

// writeReply writes a forwarded reply: the upstream's status, the
// Content-Type sniffed from the body's first bytes as net/http sniffs
// them, X-Backend, and the body in the upstream's framing — its
// Content-Length when it had one, otherwise chunked, or to the close of
// the connection for an HTTP/1.0 client. A HEAD reply carries the
// framing and no body. The body is read to its end either way, so the
// upstream connection can be reused. It reports the body bytes read and
// the first failure, the upstream's or the client's.
func (fc *frontConn) writeReply(h *requestHead, status int, backend string, length int64, body io.Reader) (int64, error) {
	bodyless := !h1.BodyAllowed(status)
	n, ended := 0, bodyless || length == 0
	if !ended {
		want := sniffLen
		if length > 0 && length < sniffLen {
			want = int(length)
		}
		var err error
		n, err = io.ReadFull(body, fc.sniff[:want])
		switch {
		case err == nil:
			ended = int64(n) == length
		case length < 0 && (err == io.EOF || err == io.ErrUnexpectedEOF):
			ended = true
		case err == io.EOF:
			return 0, io.ErrUnexpectedEOF
		default:
			return int64(n), err
		}
	}

	bw := fc.bw
	h1.WriteStatusLine(bw, h.minor, status)
	if n > 0 {
		h1.WriteField(bw, "Content-Type", http.DetectContentType(fc.sniff[:n]))
	}
	h1.WriteField(bw, "X-Backend", backend)
	h1.WriteDate(bw)
	chunked := false
	switch {
	case bodyless:
	case length >= 0:
		h1.WriteLength(bw, length)
	case h.method == http.MethodHead: // net/http, too, names no framing for a HEAD reply of unknown length
	case h.minor >= 1:
		h1.WriteField(bw, "Transfer-Encoding", "chunked")
		chunked = true
	default:
		h.keepAlive = false // the body ends with the connection
	}
	h1.WriteConnection(bw, h.minor, h.keepAlive)
	bw.WriteString("\r\n")

	if h.method == http.MethodHead || bodyless {
		m, err := io.Copy(io.Discard, body)
		return int64(n) + m, err
	}
	if chunked && n > 0 {
		h1.WriteChunk(bw, fc.sniff[:n])
	} else {
		bw.Write(fc.sniff[:n])
	}
	written := int64(n)
	if !ended {
		limit := int64(-1)
		if length > 0 {
			limit = length - written
		}
		m, err := h1.CopyBody(bw, body, limit, chunked)
		written += m
		if err != nil {
			return written, err
		}
	}
	if chunked {
		h1.WriteLastChunk(bw)
	}
	return written, nil
}

// writeError writes a reply shaped as http.Error shapes it.
func (fc *frontConn) writeError(h *requestHead, code int, msg string) {
	bw := fc.bw
	h1.WriteStatusLine(bw, h.minor, code)
	h1.WriteField(bw, "Content-Type", "text/plain; charset=utf-8")
	h1.WriteField(bw, "X-Content-Type-Options", "nosniff")
	h1.WriteDate(bw)
	h1.WriteLength(bw, int64(len(msg)+1))
	h1.WriteConnection(bw, h.minor, h.keepAlive)
	bw.WriteString("\r\n")
	if h.method != http.MethodHead {
		bw.WriteString(msg)
		bw.WriteByte('\n')
	}
}

// serveAdmin runs an admin handler on an *http.Request built from the
// head, and ends the reply by closing the connection: the one path where
// the front builds objects per request.
func (fc *frontConn) serveAdmin(h *requestHead, handler http.HandlerFunc) {
	h.keepAlive = false
	u, err := url.ParseRequestURI(string(h.target))
	if err != nil { // the target parsed once already
		u = &url.URL{Path: string(h.path)}
	}
	r := (&http.Request{
		Method: h.method, URL: u, RequestURI: string(h.target),
		Proto: "HTTP/1." + strconv.Itoa(h.minor), ProtoMajor: 1, ProtoMinor: h.minor,
		Header: make(http.Header), Body: http.NoBody, RemoteAddr: fc.nc.RemoteAddr().String(),
	}).WithContext(fc.ctx)
	w := &adminWriter{fc: fc, h: h, header: make(http.Header)}
	handler(w, r)
	w.WriteHeader(http.StatusOK) // a no-op once the head is out
}

// adminWriter is the http.ResponseWriter an admin handler writes to: the
// head goes out on the first Write or WriteHeader, with the Content-Type
// sniffed if the handler set none, and the body follows unframed.
type adminWriter struct {
	fc     *frontConn
	h      *requestHead
	header http.Header
	wrote  bool
}

func (w *adminWriter) Header() http.Header { return w.header }

func (w *adminWriter) WriteHeader(code int) {
	if w.wrote {
		return
	}
	w.wrote = true
	bw := w.fc.bw
	h1.WriteStatusLine(bw, w.h.minor, code)
	_ = w.header.Write(bw) // net/http writes the handler's fields; bw keeps its first error for the flush
	h1.WriteDate(bw)
	h1.WriteConnection(bw, w.h.minor, w.h.keepAlive)
	bw.WriteString("\r\n")
}

func (w *adminWriter) Write(p []byte) (int, error) {
	if !w.wrote {
		if _, ok := w.header["Content-Type"]; !ok && len(p) > 0 {
			w.header.Set("Content-Type", http.DetectContentType(p))
		}
		w.WriteHeader(http.StatusOK)
	}
	if w.h.method == http.MethodHead {
		return len(p), nil
	}
	return w.fc.bw.Write(p)
}

// escapedPath returns the path a target names, escaped as url.URL's
// EscapedPath returns it after url.ParseRequestURI: the target's own
// bytes up to the query when the path holds nothing EscapedPath would
// re-escape, a parse otherwise. It reports false for a target that does
// not parse, which net/http answers 400.
func escapedPath(target []byte) ([]byte, bool) {
	if len(target) > 0 && target[0] == '/' {
		path := target
		if q := bytes.IndexByte(target, '?'); q >= 0 {
			path = target[:q]
		}
		if keptAsSent(path) {
			return path, true
		}
	}
	u, err := url.ParseRequestURI(string(target))
	if err != nil {
		return nil, false
	}
	return []byte(u.EscapedPath()), true
}

// keptAsSent reports whether EscapedPath keeps path as it is: every byte
// unreserved, a sub-delimiter, ':', '@', '/', '[' or ']', or a '%' with
// two hex digits.
func keptAsSent(path []byte) bool {
	for i := 0; i < len(path); i++ {
		c := path[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
		case strings.IndexByte("-._~!$&'()*+,;=:@/[]", c) >= 0:
		case c == '%' && i+2 < len(path) && isHex(path[i+1]) && isHex(path[i+2]):
			i += 2
		default:
			return false
		}
	}
	return true
}

func isHex(c byte) bool { return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F' }

// cookieValue finds the cookie name in one Cookie header value as
// net/http's Request.Cookie finds it: pairs split on ';' and trimmed, a
// token for a name, the value unquoted and made of cookie-value bytes.
func cookieValue(v, name []byte) ([]byte, bool) {
	for len(v) > 0 {
		var part []byte
		part, v, _ = bytes.Cut(v, []byte{';'})
		k, val, _ := bytes.Cut(bytes.Trim(part, " \t"), []byte{'='})
		if !bytes.Equal(bytes.Trim(k, " \t"), name) {
			continue
		}
		if len(val) > 1 && val[0] == '"' && val[len(val)-1] == '"' {
			val = val[1 : len(val)-1]
		}
		ok := true
		for _, b := range val {
			ok = ok && 0x20 <= b && b < 0x7f && b != '"' && b != ';' && b != '\\'
		}
		if ok {
			return val, true
		}
	}
	return nil, false
}
