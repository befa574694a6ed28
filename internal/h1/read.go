// Package h1 is the HTTP/1.1 codec of both of the proxy's hops: the web
// tier's front reads request heads and writes replies with it, the
// upstream transport writes requests and reads reply heads. It owns the
// start lines, the field scan with its token and value checks, the body
// framing of requests and replies, chunked bodies and their trailers, and
// the writers of field lines and chunks. It knows nothing of connections,
// deadlines or pools: a driver hands it a bufio.Reader or bufio.Writer.
//
// It reads a head as net/http does — http.ReadRequest and the checks
// net/http's server adds, or http.ReadResponse — apart from the
// divergences FuzzHead names.
package h1

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math"
	"net/http"
	"strings"
)

// A head's bound, as net/http's: its server reads a request head of up
// to 1 MB, its client a reply head of up to 10 MB.
const (
	maxRequestHead = http.DefaultMaxHeaderBytes
	maxReplyHead   = 10 << 20
)

// Head is one message head. A driver keeps one per connection and reads
// every head into it, so a connection's heads allocate nothing once its
// buffers have grown. The request-target or the reply's status, and the
// fields the head keeps, are copied into the head's own buffer and held
// as positions in it, valid until the next read into the head.
type Head struct {
	Method       string // a request's
	Status       int    // a reply's status code
	Major, Minor int    // HTTP/Major.Minor

	// The body's framing, as net/http resolves it.
	Length   int64 // body bytes; -1 when chunked, or for a reply read until the peer closes
	Chunked  bool  // Transfer-Encoding: chunked (Length is 0 where no body may follow)
	Close    bool  // the connection carries no message after this one
	Continue bool  // a request waits for a 100 Continue before it sends its body

	reply, head bool // a reply's head; a reply to a HEAD request
	limit, size int  // the head's bound and the bytes read of it
	line        span // the request-target, or the status code and reason
	fields      []field
	buf         []byte // what line and fields point into
}

type span struct{ at, end int }

// field is one kept field; kind indexes framing, 0 for any other name.
type field struct {
	kind        uint8
	name, value span
}

// framing names the fields a head always keeps: what resolves the
// framing, and a request's Host and Expect.
var framing = [...]string{1: "Host", "Content-Length", "Transfer-Encoding", "Connection", "Expect", "Trailer"}

// Error is a head h1 refuses. Status is what a server answers a request
// head with — 400, 431, 501 or 505 — and Text the detail net/http's
// server adds to that status line, if any.
type Error struct {
	Status int
	Text   string
	what   string
}

func (e *Error) Error() string { return "h1: " + e.what }

var (
	errTooLarge   = &Error{Status: http.StatusRequestHeaderFieldsTooLarge, what: "head line longer than the read buffer, or head too large"}
	errStartLine  = &Error{Status: http.StatusBadRequest, what: "malformed start line"}
	errField      = &Error{Status: http.StatusBadRequest, what: "malformed field line"}
	errVersion    = &Error{Status: http.StatusHTTPVersionNotSupported, Text: "unsupported protocol version", what: "unsupported protocol version"}
	errNoHost     = &Error{Status: http.StatusBadRequest, Text: "missing required Host header", what: "missing Host field"}
	errHosts      = &Error{Status: http.StatusBadRequest, Text: "too many Host headers", what: "more than one Host field"}
	errHost       = &Error{Status: http.StatusBadRequest, Text: "malformed Host header", what: "malformed Host field"}
	errEncoding   = &Error{Status: http.StatusNotImplemented, what: "unsupported transfer encoding"}
	errLength     = &Error{Status: http.StatusBadRequest, what: "bad or conflicting Content-Length"}
	errTrailer    = &Error{Status: http.StatusBadRequest, what: "Trailer names a framing field"}
	errHeadCut    = errors.New("h1: message ends inside its head")
	errTrailerCut = errors.New("h1: message ends inside its chunked trailer")
)

// ReadRequestLine resets h and reads a request line into it: a token for
// the method, a target and an HTTP/x.y version, split by single spaces.
// The driver parses Target before ReadFields reads the rest of the head.
func ReadRequestLine(br *bufio.Reader, h *Head) error {
	h.reset(false, false, maxRequestHead)
	line, err := h.readLine(br)
	if err != nil {
		return err
	}
	method, rest, ok1 := bytes.Cut(line, []byte{' '})
	target, proto, ok2 := bytes.Cut(rest, []byte{' '})
	var ok3 bool
	h.Major, h.Minor, ok3 = version(proto)
	if !ok1 || !ok2 || !ok3 || !ValidToken(method) {
		return errStartLine
	}
	h.Method, h.line = internMethod(method), h.keep(target)
	return nil
}

// ReadStatusLine resets h and reads a reply's status line into it, as
// http.ReadResponse reads one. head says the request was a HEAD, whose
// reply carries no body.
func ReadStatusLine(br *bufio.Reader, h *Head, head bool) error {
	h.reset(true, head, maxReplyHead)
	line, err := h.readLine(br)
	if err != nil {
		return err
	}
	proto, status, _ := bytes.Cut(line, []byte{' '})
	status = bytes.TrimLeft(status, " ")
	code, _, _ := bytes.Cut(status, []byte{' '})
	var ok1, ok2 bool
	h.Status, ok1 = statusCode(code)
	h.Major, h.Minor, ok2 = version(proto)
	if !ok1 || !ok2 {
		return errStartLine
	}
	h.line = h.keep(status)
	return nil
}

// ReadFields reads the field lines up to the blank line that ends the
// head, then resolves the body's framing. Every name must be a token and
// every value free of control bytes but tab; a folded line joins its
// field with one space, as net/http joins it. The head keeps the framing
// fields and the fields keep names (nil: none) for Field.
func (h *Head) ReadFields(br *bufio.Reader, keep func(name []byte) bool) error {
	fields := false // a field line came before, which a fold may continue
	kept := false   // that field is kept: a fold extends its value
	for {
		line, err := h.readLine(br)
		if err == io.ErrUnexpectedEOF {
			err = errHeadCut
		}
		if err != nil {
			return err
		}
		if len(line) == 0 {
			return h.frame()
		}
		if line[0] == ' ' || line[0] == '\t' {
			if line = trim(line); !fields || !ValidValue(line) {
				return errField
			}
			if kept {
				f := &h.fields[len(h.fields)-1]
				if f.value.end > f.value.at { // one space between, none in front
					h.buf = append(h.buf, ' ')
				}
				h.buf = append(h.buf, line...)
				f.value.end = len(h.buf)
			}
			continue
		}
		name, value, ok := bytes.Cut(line, []byte{':'})
		if value = trim(value); !ok || !ValidToken(name) || !ValidValue(value) {
			return errField
		}
		fields = true
		kind := uint8(len(framing) - 1)
		for ; kind > 0 && !EqualFold(name, framing[kind]); kind-- {
		}
		if kept = kind > 0 || keep != nil && keep(name); kept {
			h.fields = append(h.fields, field{kind: kind, name: h.keep(name), value: h.keep(value)})
		}
	}
}

// frame resolves the body's framing from the framing fields as net/http's
// readTransfer does, after a request's version and Host as net/http's
// server checks them.
func (h *Head) frame() error {
	var (
		hosts, encodings, lengths int
		hostValue, coding, length []byte
		lengthsDiffer, badTrailer bool
		closes, keepAlive         bool
	)
	for _, f := range h.fields {
		v := h.bytes(f.value)
		switch framing[f.kind] {
		case "Host":
			hosts, hostValue = hosts+1, v
		case "Content-Length":
			if v = trim(v); lengths == 0 {
				length = v
			}
			lengthsDiffer = lengthsDiffer || !bytes.Equal(v, length)
			lengths++
		case "Transfer-Encoding":
			encodings, coding = encodings+1, v
		case "Connection":
			closes = closes || hasToken(v, "close")
			keepAlive = keepAlive || hasToken(v, "keep-alive")
		case "Expect":
			h.Continue = h.Continue || hasToken(v, "100-continue")
		case "Trailer":
			badTrailer = badTrailer || hasToken(v, "Transfer-Encoding") || hasToken(v, "Trailer") || hasToken(v, "Content-Length")
		}
	}
	if !h.reply {
		switch {
		case h.Major != 1:
			return errVersion
		case h.Minor >= 1 && hosts == 0 && h.Method != http.MethodConnect:
			return errNoHost
		case hosts > 1:
			return errHosts
		case hosts == 1 && !ValidHost(hostValue):
			return errHost
		}
	}
	// Transfer-Encoding counts from HTTP/1.1 on (net/http reads HTTP/0.0
	// as 1.1 here) and must be one "chunked", which wins over any
	// Content-Length. The Content-Length values must parse and agree all
	// the same.
	if encodings > 0 && (h.Major > 1 || h.Major == 1 && h.Minor >= 1 || h.Major == 0 && h.Minor == 0) {
		if encodings > 1 || !EqualFold(coding, "chunked") {
			return errEncoding
		}
		h.Chunked = true
	}
	n, ok := parseLength(length)
	switch {
	case lengths > 0 && (!ok || lengthsDiffer):
		return errLength
	case h.Chunked && badTrailer:
		return errTrailer
	}
	h.Close = closes || h.Major < 1 || h.Major == 1 && h.Minor == 0 && !keepAlive
	switch {
	case h.reply && (h.head || !BodyAllowed(h.Status)):
		h.Length = 0
	case h.Chunked:
		h.Length = -1
	case lengths > 0:
		h.Length = n
	case h.reply: // until the peer closes
		h.Length, h.Close = -1, true
	default:
		h.Length = 0
	}
	return nil
}

// Target is a request's target as sent.
func (h *Head) Target() []byte { return h.bytes(h.line) }

// StatusText is a reply's status line past its version: the code and
// the reason, as http.Response.Status holds them.
func (h *Head) StatusText() []byte { return h.bytes(h.line) }

// NumFields is the number of fields the head kept.
func (h *Head) NumFields() int { return len(h.fields) }

// Field returns the i-th kept field's name as sent and its value, folded
// lines joined, trimmed of spaces and tabs.
func (h *Head) Field(i int) (name, value []byte) {
	return h.bytes(h.fields[i].name), h.bytes(h.fields[i].value)
}

func (h *Head) reset(reply, head bool, limit int) {
	buf, fields := h.buf[:0], h.fields[:0]
	if cap(buf) > 64<<10 { // the last head was unusually large: let it go
		buf = nil
	}
	*h = Head{reply: reply, head: head, limit: limit, buf: buf, fields: fields}
}

// readLine reads one line of the head, counting it against its bound.
func (h *Head) readLine(br *bufio.Reader) ([]byte, error) {
	line, err := readLine(br)
	if h.size += len(line) + 2; err == nil && h.size > h.limit {
		return nil, errTooLarge
	}
	return line, err
}

// keep copies b into the head's buffer.
func (h *Head) keep(b []byte) span {
	at := len(h.buf)
	h.buf = append(h.buf, b...)
	return span{at, len(h.buf)}
}

func (h *Head) bytes(s span) []byte { return h.buf[s.at:s.end:s.end] }

// Body reads one message body off the connection's reader in the framing
// its head resolved: Content-Length bytes, chunks and the trailer section
// after them, or everything up to the peer's close. The last bytes of a
// body with a length come with io.EOF; a body cut short of its framing
// reads io.ErrUnexpectedEOF. The first error, io.EOF included, sticks.
//
// A chunked body is decoded in place, its state in the Body, as
// httputil.NewChunkedReader decodes it and with its bounds: a size line
// of fewer than maxChunkLine bytes, at most 16 hex digits, extensions
// dropped, and at most 16 KiB of framing beyond what the data pays for.
type Body struct {
	br      *bufio.Reader
	left    int64 // bytes left of a body with a length; -1: until the peer closes
	chunked bool
	chunk   uint64 // bytes left of the current chunk
	crlf    bool   // the current chunk's data is read; its CRLF is not
	excess  int64  // framing bytes read beyond the allowance
	err     error
}

// maxChunkLine bounds a chunk-size line, line end included, as
// net/http's chunked reader bounds it.
const maxChunkLine = 4096

var (
	errChunkLine   = errors.New("h1: malformed chunk size line")
	errChunkEnd    = errors.New("h1: malformed chunked encoding")
	errChunkSize   = errors.New("h1: chunk size too large")
	errChunkExcess = errors.New("h1: chunked encoding contains too much non-data")
)

// Reset points b at the body of the message whose head h read off br.
func (b *Body) Reset(br *bufio.Reader, h *Head) {
	*b = Body{br: br, left: h.Length, chunked: h.Chunked && h.Length != 0}
}

func (b *Body) Read(p []byte) (n int, err error) {
	switch {
	case b.err != nil:
		return 0, b.err
	case b.chunked:
		n, err = b.readChunked(p)
	case b.left < 0:
		n, err = b.br.Read(p)
	default:
		if int64(len(p)) > b.left {
			p = p[:b.left]
		}
		n, err = b.br.Read(p)
		switch b.left -= int64(n); {
		case err == io.EOF:
			err = io.ErrUnexpectedEOF
		case err == nil && b.left == 0:
			err = io.EOF // with the last bytes, which saves the caller a read
		}
	}
	b.err = err
	return n, err
}

// readChunked reads chunk data into p. Once it holds some, it returns
// rather than wait for a chunk's CRLF or the next size line; after the
// last chunk it reads the trailer section, then reports io.EOF.
func (b *Body) readChunked(p []byte) (n int, err error) {
	for {
		if b.crlf {
			if n > 0 && b.br.Buffered() < 2 {
				return n, nil
			}
			if err = b.chunkEnd(); err != nil {
				return n, err
			}
		}
		if b.chunk == 0 {
			if n > 0 && !b.lineBuffered() {
				return n, nil
			}
			if err = b.chunkSize(); err != nil {
				return n, err
			}
			if b.chunk == 0 { // the last chunk
				if err = skipTrailer(b.br); err == nil {
					err = io.EOF
				}
				return n, err
			}
			continue
		}
		if len(p) == 0 {
			return n, nil
		}
		q := p
		if uint64(len(q)) > b.chunk {
			q = q[:b.chunk]
		}
		m, err := b.br.Read(q)
		n, p, b.chunk = n+m, p[m:], b.chunk-uint64(m)
		switch {
		case err == io.EOF:
			return n, io.ErrUnexpectedEOF
		case err != nil:
			return n, err
		}
		b.crlf = b.chunk == 0
	}
}

// chunkEnd reads the CRLF after a chunk's data.
func (b *Body) chunkEnd() error {
	end, err := b.br.Peek(2)
	switch {
	case err == io.EOF:
		return io.ErrUnexpectedEOF
	case err != nil:
		return err
	case end[0] != '\r' || end[1] != '\n':
		return errChunkEnd
	}
	_, _ = b.br.Discard(2)
	b.crlf = false
	return nil
}

// lineBuffered reports whether a whole line waits in the buffer.
func (b *Body) lineBuffered() bool {
	n := b.br.Buffered()
	if n == 0 {
		return false
	}
	buf, _ := b.br.Peek(n)
	return bytes.IndexByte(buf, '\n') >= 0
}

// chunkSize reads a chunk-size line: hex digits, then anything after a
// ';' (extensions), with trailing white space trimmed first.
func (b *Body) chunkSize() error {
	line, err := b.br.ReadSlice('\n')
	switch {
	case err == io.EOF:
		return io.ErrUnexpectedEOF
	case err == bufio.ErrBufferFull, err == nil && len(line) >= maxChunkLine:
		return errTooLarge
	case err != nil:
		return err
	}
	b.excess += int64(len(line)) + 2 // the line, and the CRLF after the data
	for len(line) > 0 && isSpace(line[len(line)-1]) {
		line = line[:len(line)-1]
	}
	digits, _, _ := bytes.Cut(line, []byte{';'})
	if len(digits) == 0 {
		return errChunkLine
	}
	var n uint64
	for i, c := range digits {
		var v byte
		switch {
		case isDigit(c):
			v = c - '0'
		case 'a' <= c|0x20 && c|0x20 <= 'f':
			v = (c | 0x20) - 'a' + 10
		default:
			return errChunkLine
		}
		if i == 16 {
			return errChunkSize
		}
		n = n<<4 | uint64(v)
	}
	b.chunk = n
	// Framing may cost 16 bytes a chunk plus twice the chunk's data; the
	// last chunk is not held to it.
	if b.excess = max(b.excess-16-2*int64(n), 0); n > 0 && b.excess > 16<<10 {
		return errChunkExcess
	}
	return nil
}

// skipTrailer reads a chunked body's trailer section, up to and including
// its blank line.
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

// readLine returns the next line on br without its line ending: in place,
// valid until the next read. A line longer than br's buffer is
// errTooLarge, one the peer's close cuts short io.ErrUnexpectedEOF.
func readLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	switch err {
	case nil:
	case bufio.ErrBufferFull:
		return nil, errTooLarge
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

// version parses "HTTP/x.y" with single digits, as
// http.ParseHTTPVersion does.
func version(v []byte) (major, minor int, ok bool) {
	if len(v) != len("HTTP/1.1") || !bytes.HasPrefix(v, []byte("HTTP/")) || v[6] != '.' || !isDigit(v[5]) || !isDigit(v[7]) {
		return 0, 0, false
	}
	return int(v[5] - '0'), int(v[7] - '0'), true
}

// statusCode parses a status code as http.ReadResponse does: three bytes
// that strconv.Atoi takes, sign and all, for a number that is not
// negative.
func statusCode(c []byte) (int, bool) {
	if len(c) != 3 {
		return 0, false
	}
	digits := c
	if c[0] == '+' || c[0] == '-' {
		digits = c[1:]
	}
	n, ok := parseLength(digits)
	return int(n), ok && (c[0] != '-' || n == 0)
}

// parseLength parses a Content-Length as net/http does: decimal digits
// only, at most math.MaxInt64.
func parseLength(v []byte) (int64, bool) {
	var n int64
	for _, c := range v {
		if !isDigit(c) || n > (math.MaxInt64-int64(c-'0'))/10 {
			return 0, false
		}
		n = n*10 + int64(c-'0')
	}
	return n, len(v) > 0
}

// hasToken reports whether the comma-separated list v holds token,
// ignoring ASCII case.
func hasToken(v []byte, token string) bool {
	for len(v) > 0 {
		var item []byte
		item, v, _ = bytes.Cut(v, []byte{','})
		if EqualFold(trim(item), token) {
			return true
		}
	}
	return false
}

// internMethod returns the method as a string, without a copy for the
// common ones.
func internMethod(m []byte) string {
	for _, known := range [...]string{http.MethodGet, http.MethodHead, http.MethodPost} {
		if string(m) == known {
			return known
		}
	}
	return string(m)
}

// BodyAllowed reports whether a reply with this status may carry a body:
// not a 1xx, 204 or 304.
func BodyAllowed(status int) bool {
	return (status < 100 || status > 199) && status != http.StatusNoContent && status != http.StatusNotModified
}

// EqualFold reports whether b is s, ignoring ASCII case.
func EqualFold(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := range b {
		if b[i] != s[i] && (b[i]|0x20 != s[i]|0x20 || !isLetter(b[i])) {
			return false
		}
	}
	return true
}

// All keeps every field of a head.
func All([]byte) bool { return true }

// The byte classes of the checks below.
const (
	tokenByte = 1 << iota
	valueByte
	targetByte
	hostByte
)

// classes holds each byte's classes: a token's bytes; a field value's,
// every byte but a control byte other than tab; a request-target's,
// neither a control byte nor a space; the bytes net/http allows in a Host.
var classes = func() (t [256]uint8) {
	for i := range t {
		c, alnum := byte(i), isDigit(byte(i)) || isLetter(byte(i))
		if alnum || strings.IndexByte("!#$%&'*+-.^_`|~", c) >= 0 {
			t[i] |= tokenByte
		}
		if c >= ' ' && c != 0x7f || c == '\t' {
			t[i] |= valueByte
		}
		if c > ' ' && c != 0x7f {
			t[i] |= targetByte
		}
		if alnum || strings.IndexByte("!$%&'()*+,-.:;=[]_~", c) >= 0 {
			t[i] |= hostByte
		}
	}
	return t
}()

func all[T string | []byte](s T, class uint8) bool {
	for i := 0; i < len(s); i++ {
		if classes[s[i]]&class == 0 {
			return false
		}
	}
	return true
}

// ValidToken reports whether s is a token, as a method and a field name
// must be.
func ValidToken[T string | []byte](s T) bool { return len(s) > 0 && all(s, tokenByte) }

// ValidValue reports whether s can stand as a field value.
func ValidValue[T string | []byte](s T) bool { return all(s, valueByte) }

// ValidTarget reports whether s can stand as a request-target.
func ValidTarget[T string | []byte](s T) bool { return all(s, targetByte) }

// ValidHost reports whether s can stand as a Host value.
func ValidHost[T string | []byte](s T) bool { return all(s, hostByte) }

// trim cuts spaces and tabs off both ends of b; bytes.Trim with a cutset
// builds its byte set on every call.
func trim(b []byte) []byte {
	for len(b) > 0 && (b[0] == ' ' || b[0] == '\t') {
		b = b[1:]
	}
	for len(b) > 0 && (b[len(b)-1] == ' ' || b[len(b)-1] == '\t') {
		b = b[:len(b)-1]
	}
	return b
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }

func isLetter(c byte) bool { return 'a' <= c|0x20 && c|0x20 <= 'z' }
