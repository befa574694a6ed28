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
	"time"

	"millibalance/internal/h1"
)

// The proxy's front is its only server, a driver of the HTTP/1.1 codec in
// internal/h1. Like an Apache worker thread that holds the client
// connection and copies the backend's reply back to it, one goroutine per
// client connection reads each request head with the codec on the
// connection's bufio.Reader, hands Proxy.handle what it uses of it, and
// writes the reply into the connection's bufio.Writer with the upstream
// reply's own framing. A second goroutine per connection peeks the socket
// while an exchange runs, so a client that goes away cancels the exchange
// at once.
//
// A request keeps: its method; its path, escaped as sent, from an
// origin-form or absolute-form target (the query is not forwarded); the
// body's framing, Content-Length or chunked; Connection and the HTTP
// version, which decide keep-alive as net/http decides it; the JSESSIONID
// cookie; whether X-Priority says background. The codec checks every
// other field's syntax and drops it. DESIGN.md §17 lists where the front
// answers otherwise than net/http's server.

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

// frontConn is one client connection: its buffers, and the context that
// ends when the client goes away, shared by every exchange it carries.
type frontConn struct {
	p      *Proxy
	nc     net.Conn
	br     *bufio.Reader
	bw     *bufio.Writer
	ctx    context.Context
	cancel context.CancelFunc
	arm    chan struct{} // serve → watch: peek the socket
	peeked chan error    // watch → serve: the peek returned
	head   h1.Head       // the head being read
	body   h1.Body       // its body, drained before dispatch
	req    requestHead   // what the proxy uses of it
	sniff  [sniffLen]byte
}

// accept runs the proxy's accept loop until the listener closes.
func (p *Proxy) accept() {
	defer p.wg.Done()
	var backoff time.Duration
	for {
		nc, err := p.ln.Accept()
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
		ctx, cancel := context.WithCancel(context.Background())
		fc := &frontConn{
			p: p, nc: nc, ctx: ctx, cancel: cancel,
			br:     bufio.NewReaderSize(nc, frontBufSize),
			bw:     bufio.NewWriterSize(nc, frontBufSize),
			arm:    make(chan struct{}, 1),
			peeked: make(chan error, 1),
		}
		p.connMu.Lock()
		if p.closing {
			p.connMu.Unlock()
			cancel()
			_ = nc.Close() // accepted as the listener closed
			return
		}
		p.conns[fc] = struct{}{}
		p.wg.Add(2)
		p.connMu.Unlock()
		go fc.serve()
		go fc.watch()
	}
}

// serve reads requests off the connection and answers them in order until
// the client or the proxy closes it, a reply ends it, or it sits idle for
// serverIdleTimeout. A head must arrive within serverReadHeaderTimeout of
// its first byte.
func (fc *frontConn) serve() {
	defer fc.p.wg.Done()
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
		fc.arm <- struct{}{} // watch the socket while the exchange runs
		if admin := fc.p.adminHandler(h.path); admin != nil {
			fc.serveAdmin(h, admin)
		} else if !fc.p.handle(fc, h) {
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
// proxy closed it. A failure cancels the connection's context, and with
// it the exchange in flight. Bytes that arrive early stay buffered.
func (fc *frontConn) watch() {
	defer fc.p.wg.Done()
	for range fc.arm {
		_, err := fc.br.Peek(1)
		if err != nil {
			fc.cancel()
		}
		fc.peeked <- err
	}
}

// close ends the connection: the socket, the context, the watcher.
func (fc *frontConn) close() {
	fc.cancel()
	_ = fc.nc.Close() // nobody is left to tell
	close(fc.arm)
	fc.p.connMu.Lock()
	delete(fc.p.conns, fc)
	fc.p.connMu.Unlock()
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
// waits for a 100 Continue the proxy never sends or the body is longer
// than frontMaxDrain. It reports false when the body broke off.
func (fc *frontConn) drainBody(h *requestHead) bool {
	switch {
	case h.length == 0:
		return true
	case h.expect && h.minor >= 1, h.length > frontMaxDrain:
		h.keepAlive = false
		return true
	}
	fc.body.Reset(fc.br, &fc.head)
	switch _, err := io.CopyN(io.Discard, &fc.body, frontMaxDrain+1); err {
	case io.EOF:
		return true
	case nil: // a chunked body longer than frontMaxDrain
		h.keepAlive = false
		return true
	}
	return false
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
