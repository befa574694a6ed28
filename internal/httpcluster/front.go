package httpcluster

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// The proxy's front is its only server. Like an Apache worker thread that
// holds the client connection and copies the backend's reply back to it,
// one goroutine per client connection reads each request head in place
// on the connection's bufio.Reader, hands Proxy.handle what it uses of
// it, and writes the reply into the connection's bufio.Writer with the
// upstream reply's own framing. A second goroutine per connection peeks
// the socket while an exchange runs, so a client that goes away cancels
// the exchange at once.
//
// A request keeps: its method; its path, escaped as sent, from an
// origin-form or absolute-form target (the query is not forwarded); the
// body's framing, Content-Length or chunked; Connection and the HTTP
// version, which decide keep-alive as net/http decides it; the JSESSIONID
// cookie; whether X-Priority says background. Every other header is
// checked for syntax and dropped.
//
// Where the front answers differently from net/http's server (the reply
// golden, testdata/front/replies.golden, lists the cases): a reply keeps
// the upstream's Content-Length where net/http chunked a body over 2 KiB,
// and is chunked only when the upstream's length is unknown; a head line
// longer than the 4 KiB read buffer is answered 431, where net/http
// allows a 1 MB head; an admin reply ends by closing the connection; a
// request body that breaks off or is malformed ends the connection
// without a reply.

const (
	// frontBufSize sizes each connection's read and write buffers, and so
	// bounds a request head line.
	frontBufSize = 4 << 10
	// frontMaxHead bounds a whole request head, as net/http's default.
	frontMaxHead = http.DefaultMaxHeaderBytes
	// frontMaxDrain is how much of a request body the front reads and
	// drops before dispatch. A longer body is left unread and the
	// connection closes after the reply, as net/http does after a handler.
	frontMaxDrain = 256 << 10
	// sniffLen is how much of a reply body decides its Content-Type.
	sniffLen = 512
	// chunkHead is the room a chunk-size line takes in front of a chunk
	// of at most frontBufSize bytes: four hex digits and CRLF.
	chunkHead = 6
)

// requestHead is what the front keeps of one request. Its slices point
// into the connection's buffers and are valid until the next request.
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
	req    requestHead   // the request being served
	target []byte        // backs req.target
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

// readRequest parses one request head into h. A head it will not serve
// is answered as net/http answers it; that, and a client that went away
// mid-head, report false.
func (fc *frontConn) readRequest(h *requestHead) bool {
	total := 0
	line, err := fc.readHeadLine(&total)
	if err != nil {
		return fc.headFailed(err)
	}
	method, rest, ok1 := bytes.Cut(line, []byte{' '})
	target, proto, ok2 := bytes.Cut(rest, []byte{' '})
	major, minor, ok3 := parseVersion(proto)
	if !ok1 || !ok2 || !ok3 || !isToken(method) {
		return fc.reject(http.StatusBadRequest, "")
	}
	h.method, h.minor = internMethod(method), minor
	fc.target = append(fc.target[:0], target...)
	h.target = fc.target
	var ok bool
	if h.path, ok = escapedPath(h.target); !ok {
		return fc.reject(http.StatusBadRequest, "")
	}

	var (
		hosts             int
		badHost           bool
		length            int64 = -1 // the first Content-Length
		lengths, badLen   bool       // more than one value; one that does not parse
		encodings         int
		chunked           bool
		closes, keepAlive bool
		session           []byte
		haveSession       bool
		priority          bool // only the first X-Priority counts
		foldable          bool // the previous line was a field dropped here
	)
	for {
		line, err := fc.readHeadLine(&total)
		if err != nil {
			return fc.headFailed(err)
		}
		if len(line) == 0 {
			break
		}
		if line[0] == ' ' || line[0] == '\t' { // a folded continuation line
			if !foldable || !validValue(line, true) {
				return fc.reject(http.StatusBadRequest, "")
			}
			continue
		}
		colon := bytes.IndexByte(line, ':')
		if colon <= 0 || !isToken(line[:colon]) {
			return fc.reject(http.StatusBadRequest, "")
		}
		name, value := line[:colon], bytes.Trim(line[colon+1:], " \t")
		if !validValue(value, true) {
			return fc.reject(http.StatusBadRequest, "")
		}
		foldable = false
		switch {
		case bytes.EqualFold(name, []byte("Host")):
			hosts++
			badHost = badHost || !validValue(value, false)
		case bytes.EqualFold(name, []byte("Content-Length")):
			n, ok := parseLength(value)
			switch {
			case !ok:
				badLen = true
			case length < 0:
				length = n
			case n != length:
				lengths = true
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			encodings++
			chunked = bytes.EqualFold(value, []byte("chunked"))
		case bytes.EqualFold(name, []byte("Connection")):
			closes = closes || hasToken(value, []byte("close"))
			keepAlive = keepAlive || hasToken(value, []byte("keep-alive"))
		case bytes.EqualFold(name, []byte("Expect")):
			h.expect = h.expect || bytes.EqualFold(value, []byte("100-continue"))
		case bytes.EqualFold(name, []byte("Cookie")):
			if !haveSession {
				session, haveSession = cookieValue(value, []byte("JSESSIONID"))
			}
		case bytes.EqualFold(name, []byte("X-Priority")):
			if !priority {
				priority = true
				h.background = bytes.EqualFold(value, []byte("background"))
			}
		default:
			foldable = true
		}
	}

	switch {
	case major != 1:
		return fc.reject(http.StatusHTTPVersionNotSupported, "unsupported protocol version")
	case minor >= 1 && hosts == 0:
		return fc.reject(http.StatusBadRequest, "missing required Host header")
	case hosts > 1:
		return fc.reject(http.StatusBadRequest, "too many Host headers")
	case badHost:
		return fc.reject(http.StatusBadRequest, "malformed Host header")
	}
	// Framing as net/http frames a request: Transfer-Encoding counts from
	// HTTP/1.1 on and must be one "chunked", which then wins over any
	// Content-Length; otherwise the Content-Length values must parse and
	// agree; no framing means no body.
	switch {
	case minor >= 1 && encodings > 0:
		if encodings > 1 || !chunked {
			return fc.reject(http.StatusNotImplemented, "")
		}
		h.length = -1
	case badLen || lengths:
		return fc.reject(http.StatusBadRequest, "")
	case length > 0:
		h.length = length
	}
	h.keepAlive = !closes && (minor >= 1 || keepAlive)
	h.session = string(session)
	return true
}

// readHeadLine reads one head line in place, counting it against
// frontMaxHead.
func (fc *frontConn) readHeadLine(total *int) ([]byte, error) {
	line, err := readLine(fc.br)
	if err == errLineTooLong {
		return nil, errHeadTooLarge
	}
	if *total += len(line) + 2; *total > frontMaxHead {
		return nil, errHeadTooLarge
	}
	return line, err
}

// errHeadTooLarge marks a head line past the read buffer, or a head past
// frontMaxHead.
var errHeadTooLarge = errors.New("httpcluster: request head too large")

// headFailed answers a head too large with 431. Any other failure is the
// socket's, which takes no reply.
func (fc *frontConn) headFailed(err error) bool {
	if err == errHeadTooLarge {
		return fc.reject(http.StatusRequestHeaderFieldsTooLarge, "")
	}
	return false
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
	_, _ = fc.bw.WriteString("HTTP/1.1 " + status + "\r\nContent-Type: text/plain; charset=utf-8\r\nConnection: close\r\n\r\n" + body)
	if fc.bw.Flush() == nil {
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
	case h.length > 0:
		_, err := fc.br.Discard(int(h.length))
		return err == nil
	}
	_, err := io.CopyN(io.Discard, httputil.NewChunkedReader(fc.br), frontMaxDrain+1)
	switch err {
	case io.EOF:
		return skipTrailer(fc.br) == nil
	case nil: // more than frontMaxDrain
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
	bodyless := status < 200 || status == http.StatusNoContent || status == http.StatusNotModified
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
	writeStatusLine(bw, h.minor, status)
	if n > 0 {
		writeField(bw, "Content-Type", http.DetectContentType(fc.sniff[:n]))
	}
	writeField(bw, "X-Backend", backend)
	writeDate(bw)
	chunked := false
	switch {
	case bodyless:
	case length >= 0:
		writeLength(bw, length)
	case h.method == http.MethodHead: // net/http, too, names no framing for a HEAD reply of unknown length
	case h.minor >= 1:
		writeField(bw, "Transfer-Encoding", "chunked")
		chunked = true
	default:
		h.keepAlive = false // the body ends with the connection
	}
	writeConnection(bw, h)
	bw.WriteString("\r\n")

	if h.method == http.MethodHead || bodyless {
		m, err := io.Copy(io.Discard, body)
		return int64(n) + m, err
	}
	if chunked && n > 0 {
		bw.Write(strconv.AppendUint(bw.AvailableBuffer(), uint64(n), 16))
		bw.WriteString("\r\n")
		bw.Write(fc.sniff[:n])
		bw.WriteString("\r\n")
	} else {
		bw.Write(fc.sniff[:n])
	}
	written := int64(n)
	if !ended {
		limit := int64(-1)
		if length > 0 {
			limit = length - written
		}
		m, err := copyBody(bw, body, limit, chunked)
		written += m
		if err != nil {
			return written, err
		}
	}
	if chunked {
		bw.WriteString("0\r\n\r\n")
	}
	return written, nil
}

// copyBody copies body into bw's free space, framing each read as a chunk
// when chunked, until EOF or, when limit >= 0, limit bytes.
func copyBody(bw *bufio.Writer, body io.Reader, limit int64, chunked bool) (int64, error) {
	var written int64
	for limit < 0 || written < limit {
		if bw.Available() < 64 {
			if err := bw.Flush(); err != nil {
				return written, err
			}
		}
		buf := bw.AvailableBuffer()[:bw.Available()]
		data := buf
		if chunked {
			data = buf[chunkHead : len(buf)-2]
		}
		if limit >= 0 && int64(len(data)) > limit-written {
			data = data[:limit-written]
		}
		m, err := body.Read(data)
		if m > 0 {
			written += int64(m)
			out := buf[:m]
			if chunked {
				out = frameChunk(buf, m)
			}
			if _, werr := bw.Write(out); werr != nil {
				return written, werr
			}
		}
		switch {
		case err == io.EOF && limit >= 0 && written < limit:
			return written, io.ErrUnexpectedEOF
		case err == io.EOF:
			return written, nil
		case err != nil:
			return written, err
		}
	}
	return written, nil
}

// frameChunk turns the m bytes at buf[chunkHead:] into a chunk at the
// start of buf: its size line, the bytes, CRLF.
func frameChunk(buf []byte, m int) []byte {
	var hex [8]byte
	size := strconv.AppendUint(hex[:0], uint64(m), 16)
	l := len(size) + 2
	copy(buf[l:], buf[chunkHead:chunkHead+m])
	copy(buf, size)
	buf[l-2], buf[l-1] = '\r', '\n'
	buf[l+m], buf[l+m+1] = '\r', '\n'
	return buf[:l+m+2]
}

// writeError writes a reply shaped as http.Error shapes it.
func (fc *frontConn) writeError(h *requestHead, code int, msg string) {
	bw := fc.bw
	writeStatusLine(bw, h.minor, code)
	writeField(bw, "Content-Type", "text/plain; charset=utf-8")
	writeField(bw, "X-Content-Type-Options", "nosniff")
	writeDate(bw)
	writeLength(bw, int64(len(msg)+1))
	writeConnection(bw, h)
	bw.WriteString("\r\n")
	if h.method != http.MethodHead {
		bw.WriteString(msg)
		bw.WriteByte('\n')
	}
}

// writeStatusLine writes the status line as net/http does, in the
// request's HTTP version.
func writeStatusLine(bw *bufio.Writer, minor, code int) {
	if minor >= 1 {
		bw.WriteString("HTTP/1.1 ")
	} else {
		bw.WriteString("HTTP/1.0 ")
	}
	bw.Write(strconv.AppendInt(bw.AvailableBuffer(), int64(code), 10))
	bw.WriteByte(' ')
	if text := http.StatusText(code); text != "" {
		bw.WriteString(text)
	} else {
		bw.WriteString("status code " + strconv.Itoa(code))
	}
	bw.WriteString("\r\n")
}

func writeField(bw *bufio.Writer, name, value string) {
	bw.WriteString(name)
	bw.WriteString(": ")
	bw.WriteString(value)
	bw.WriteString("\r\n")
}

func writeDate(bw *bufio.Writer) {
	bw.WriteString("Date: ")
	bw.Write(time.Now().UTC().AppendFormat(bw.AvailableBuffer(), http.TimeFormat))
	bw.WriteString("\r\n")
}

func writeLength(bw *bufio.Writer, n int64) {
	bw.WriteString("Content-Length: ")
	bw.Write(strconv.AppendInt(bw.AvailableBuffer(), n, 10))
	bw.WriteString("\r\n")
}

// writeConnection says "close" to an HTTP/1.1 client when the connection
// ends after this reply, and "keep-alive" to an HTTP/1.0 client when it
// does not, as net/http does.
func writeConnection(bw *bufio.Writer, h *requestHead) {
	switch {
	case !h.keepAlive && h.minor >= 1:
		writeField(bw, "Connection", "close")
	case h.keepAlive && h.minor == 0:
		writeField(bw, "Connection", "keep-alive")
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
	writeStatusLine(bw, w.h.minor, code)
	_ = w.header.Write(bw) // bw keeps its first error for the flush
	writeDate(bw)
	writeConnection(bw, w.h)
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

// parseVersion parses "HTTP/x.y" with single digits, as
// http.ParseHTTPVersion does.
func parseVersion(v []byte) (major, minor int, ok bool) {
	if len(v) != len("HTTP/1.1") || !bytes.HasPrefix(v, []byte("HTTP/")) || v[6] != '.' || !isDigit(v[5]) || !isDigit(v[7]) {
		return 0, 0, false
	}
	return int(v[5] - '0'), int(v[7] - '0'), true
}

// internMethod returns the method as a string, without a copy for the
// common ones.
func internMethod(m []byte) string {
	switch string(m) {
	case http.MethodGet:
		return http.MethodGet
	case http.MethodHead:
		return http.MethodHead
	case http.MethodPost:
		return http.MethodPost
	}
	return string(m)
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

// isToken reports whether b is an HTTP token: a method or a field name.
func isToken(b []byte) bool {
	for _, c := range b {
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || isDigit(c) || strings.IndexByte("!#$%&'*+-.^_`|~", c) >= 0) {
			return false
		}
	}
	return len(b) > 0
}

func isHex(c byte) bool { return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F' }

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
