package h1

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/textproto"
	"net/url"
	"strings"
	"testing"
)

// The bytes net/http's server allows in a Host value, and in a token.
const (
	alnum      = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	hostBytes  = alnum + "!$%&'()*+,-.:;=[]_~"
	tokenBytes = alnum + "!#$%&'*+-.^_`|~"
)

// netHTTPRequest reads raw as net/http's server reads a request head:
// http.ReadRequest, then the checks its conn.readRequest makes before a
// handler runs.
func netHTTPRequest(raw []byte) (*http.Request, error) {
	req, err := http.ReadRequest(bufio.NewReader(bytes.NewReader(raw)))
	if err != nil {
		return nil, err
	}
	// ReadRequest takes the Host field out of the header it returns.
	tp := textproto.NewReader(bufio.NewReader(bytes.NewReader(raw)))
	_, _ = tp.ReadLine()
	header, _ := tp.ReadMIMEHeader()
	hosts, haveHost := header["Host"]
	preface := req.Method == "PRI" && req.RequestURI == "*" && req.Proto == "HTTP/2.0"
	switch {
	case req.ProtoMajor != 1 && !preface:
		return nil, errors.New("unsupported protocol version")
	case req.ProtoAtLeast(1, 1) && (!haveHost || len(hosts) == 0) && !preface && req.Method != http.MethodConnect:
		return nil, errors.New("missing required Host header")
	case len(hosts) == 1 && strings.Trim(hosts[0], hostBytes) != "":
		return nil, errors.New("malformed Host header")
	}
	for name := range req.Header {
		if name == "" || strings.Trim(name, tokenBytes) != "" {
			return nil, errors.New("invalid header name")
		}
	}
	return req, nil
}

// request reads raw with this codec as the front does, the target aside.
func request(raw []byte) (*Head, error) {
	h := new(Head)
	br := bufio.NewReaderSize(bytes.NewReader(raw), 4096)
	err := ReadRequestLine(br, h)
	if err == nil {
		err = h.ReadFields(br, nil)
	}
	return h, err
}

// reply reads raw with this codec as the transport does, for a GET.
func reply(raw []byte) (*Head, error) {
	h := new(Head)
	br := bufio.NewReaderSize(bytes.NewReader(raw), 4096)
	err := ReadStatusLine(br, h, false)
	if err == nil {
		err = h.ReadFields(br, All)
	}
	return h, err
}

// requestDivergence names why net/http's verdict on a request head does
// not bind this codec, or returns "".
func requestDivergence(err error, req *http.Request, nerr error) string {
	var uerr *url.Error
	switch {
	case errors.Is(err, errTooLarge):
		return "a head line longer than the reader's buffer is refused; net/http reads it"
	case errors.As(nerr, &uerr):
		return "the request-target is the driver's to parse (the front's escapedPath)"
	case req != nil && req.Method == "PRI" && req.ProtoMajor == 2:
		return `"PRI * HTTP/2.0" is a 505; net/http's server hands the HTTP/2 preface to its handler`
	}
	return ""
}

// replyDivergence is requestDivergence for a reply head.
func replyDivergence(err error, resp *http.Response) string {
	if errors.Is(err, errTooLarge) {
		return "a head line longer than the reader's buffer is refused; net/http reads it"
	}
	if resp != nil {
		for name := range resp.Header {
			if strings.Contains(name, " ") {
				return "a field name holding a space is refused; net/http's client takes it"
			}
		}
	}
	return ""
}

// compareRequest parses raw as a request head both ways and reports where
// the two disagree, outside the named divergences.
func compareRequest(raw []byte) error {
	h, err := request(raw)
	req, nerr := netHTTPRequest(raw)
	if requestDivergence(err, req, nerr) != "" {
		return nil
	}
	if (err == nil) != (nerr == nil) {
		return fmt.Errorf("request: h1 %v, net/http %v", err, nerr)
	}
	if err != nil {
		return nil
	}
	got := fmt.Sprintf("%s length %d chunked %v keep-alive %v", h.Method, h.Length, h.Chunked, !h.Close)
	want := fmt.Sprintf("%s length %d chunked %v keep-alive %v", req.Method, req.ContentLength, len(req.TransferEncoding) > 0, !req.Close)
	if got != want {
		return fmt.Errorf("request: h1 %s, net/http %s", got, want)
	}
	return nil
}

// compareReply is compareRequest for a reply head to a GET.
func compareReply(raw []byte) error {
	h, err := reply(raw)
	resp, nerr := http.ReadResponse(bufio.NewReader(bytes.NewReader(raw)), &http.Request{Method: http.MethodGet})
	if replyDivergence(err, resp) != "" {
		return nil
	}
	if (err == nil) != (nerr == nil) {
		return fmt.Errorf("reply: h1 %v, net/http %v", err, nerr)
	}
	if err != nil {
		return nil
	}
	got := fmt.Sprintf("%d length %d chunked %v keep-alive %v", h.Status, h.Length, h.Chunked, !h.Close)
	want := fmt.Sprintf("%d length %d chunked %v keep-alive %v", resp.StatusCode, resp.ContentLength, len(resp.TransferEncoding) > 0, !resp.Close)
	if got != want {
		return fmt.Errorf("reply: h1 %s, net/http %s", got, want)
	}
	return nil
}

// seedHeads are the heads of the proxy's front and transport tests
// (TestFrontParsesHeadsAsNetHTTP, TestUpstreamTransportMatchesNetHTTP),
// each fuzzed as a request and as a reply.
var seedHeads = func() []string {
	const host = "Host: h\r\n"
	requests := []string{
		"GET /x HTTP/1.1\r\n" + host,
		"HEAD /x HTTP/1.1\r\n" + host,
		"OPTIONS * HTTP/1.1\r\n" + host,
		"GET /a%2Fb?q=1 HTTP/1.1\r\n" + host,
		"GET /caf\xc3\xa9 HTTP/1.1\r\n" + host,
		"GET /%zz HTTP/1.1\r\n" + host,
		"GET http://example.com/abs/p?x=1 HTTP/1.1\r\n" + host,
		"GET relative/path HTTP/1.1\r\n" + host,
		"GET  /x HTTP/1.1\r\n" + host,
		"GET /x HTTP/1.1 \r\n" + host,
		"GET /x\r\n" + host,
		"G(T /x HTTP/1.1\r\n" + host,
		"GET /x HTTP/1.2\r\n" + host,
		"GET /x HTTP/2.0\r\n" + host,
		"GET /x HTTP/1.10\r\n" + host,
		"GET /x HTTP/1.1\r\n",
		"GET /x HTTP/1.0\r\n",
		"GET /x HTTP/1.1\r\n" + host + host,
		"CONNECT example.com:443 HTTP/1.1\r\n",
		"PRI * HTTP/2.0\r\n",
		"POST /x HTTP/1.1\r\n" + host + "Content-Length: 10\r\n",
		"POST /x HTTP/1.1\r\n" + host + "Content-Length: 5\r\nContent-Length: 5\r\n",
		"POST /x HTTP/1.1\r\n" + host + "Content-Length: 5\r\nContent-Length: 6\r\n",
		"POST /x HTTP/1.1\r\n" + host + "Content-Length: abc\r\n",
		"POST /x HTTP/1.1\r\n" + host + "Content-Length: -1\r\n",
		"POST /x HTTP/1.1\r\n" + host + "Content-Length: 0\r\n",
		"POST /x HTTP/1.1\r\n" + host + "Transfer-Encoding: chunked\r\n",
		"POST /x HTTP/1.1\r\n" + host + "Transfer-Encoding: Chunked\r\nContent-Length: 5\r\n",
		"POST /x HTTP/1.1\r\n" + host + "Transfer-Encoding: gzip\r\n",
		"POST /x HTTP/1.1\r\n" + host + "Transfer-Encoding: chunked\r\nTransfer-Encoding: chunked\r\n",
		"POST /x HTTP/1.1\r\n" + host + "Transfer-Encoding: chunked\r\nTrailer: Content-Length\r\n",
		"POST /x HTTP/1.0\r\nTransfer-Encoding: chunked\r\nContent-Length: 3\r\n",
		"GET /x HTTP/1.0\r\nConnection: keep-alive\r\n",
		"GET /x HTTP/1.0\r\nConnection: Keep-Alive, Upgrade\r\n",
		"GET /x HTTP/1.1\r\n" + host + "Connection: close\r\n",
		"GET /x HTTP/1.1\r\n" + host + "Connection: upgrade\r\nConnection: CLOSE\r\n",
		"GET /x HTTP/1.1\r\n" + host + "Connection: keep-alive,\r\n close\r\n",
		"GET /x HTTP/1.1\r\n" + host + "Cookie: a=1; JSESSIONID=abc\r\n",
		"GET /x HTTP/1.1\r\n" + host + "X-Priority: interactive\r\nX-Priority: background\r\n",
		"GET /x HTTP/1.1\r\nHost: a b\r\n",
		"GET /x HTTP/1.1\r\nHost: a@b\r\n",
		"GET /x HTTP/1.1\r\n" + host + "Bad Name: x\r\n",
		"GET /x HTTP/1.1\r\n" + host + "Bad\x01: x\r\n",
		"GET /x HTTP/1.1\r\n" + host + ": x\r\n",
		"GET /x HTTP/1.1\r\n" + host + "No-Colon\r\n",
		"GET /x HTTP/1.1\r\n" + host + "X-Ctl: a\x01b\r\n",
		"GET /x HTTP/1.1\r\n" + host + "X-Fold: a\r\n b\r\n",
		"GET /x HTTP/1.1\r\n X-Lead: a\r\n" + host,
		"GET /x HTTP/1.1\r\n" + host + "X-Empty:\r\n",
	}
	replies := []string{
		"HTTP/1.1 200 OK\r\nContent-Length: 128\r\n\r\n",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
		"HTTP/1.1 204 No Content\r\n\r\n",
		"HTTP/1.1 404 Not Found\r\nContent-Length: 4\r\n\r\nnope",
		"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 2\r\n\r\nok",
		"HTTP/1.1 200 OK\r\n\r\nall of it",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n",
		"SSH-2.0-OpenSSH\r\n",
		"HTTP/1.1 200 OK\r\nContent-Le",
		"HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nok",
		"HTTP/1.0 200 OK\r\nConnection: Keep-Alive\r\nContent-Length: 2\r\n\r\nok",
		"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nok",
		"HTTP/1.1 200 OK\r\nContent-Length: 2x\r\n\r\nok",
		"HTTP/1.1 200 OK\r\nContent-Length: 999\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nok\r\n0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nTrailer: X-Sum\r\n\r\n2\r\nok\r\n0\r\nX-Sum: 42\r\n\r\n",
		"HTTP/1.1 200 OK\r\nX-Folded: a\r\n b\r\nContent-Length: 2\r\n\r\nok",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip\r\n\r\nok",
		"HTTP/1.1 2x0 OK\r\n\r\n",
		"HTTP/1.1 +20 Odd\r\n\r\n",
		"HTTP/one 200 OK\r\n\r\n",
		"HTTP/0.0 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n",
		"HTTP/1.1 200 OK\nContent-Length: 2\n\nok",
		"HTTP/1.1 200 OK\r\nConnection: Upgrade, close\r\nContent-Length: 2\r\n\r\nok",
		"HTTP/1.1 200\r\nContent-Length: 2\r\n\r\nok",
		"HTTP/1.1 100 Continue\r\n\r\n",
		"HTTP/1.1 304 Not Modified\r\nContent-Length: 128\r\n\r\n",
		"HTTP/1.1 200 OK\r\nX(Bad\": v\r\nContent-Length: 2\r\n\r\nok",
		"HTTP/1.1 200 OK\r\nX-Ctl: a\x01b\r\nContent-Length: 2\r\n\r\nok",
		"HTTP/1.1 200 OK\r\nX A: v\r\nContent-Length: 2\r\n\r\nok",
		"HTTP/1.1 200 OK\r\nX-Long: " + strings.Repeat("x", 5<<10) + "\r\nContent-Length: 2\r\n\r\nok",
	}
	for i, r := range requests {
		requests[i] = r + "\r\n"
	}
	return append(requests, replies...)
}()

// FuzzHead parses each input as a request head and as a reply head, with
// this codec and with net/http, and requires the same verdict and, where
// both accept it, the same method or status, body length, chunked
// framing and keep-alive — apart from the divergences requestDivergence
// and replyDivergence name. Neither parse may panic.
func FuzzHead(f *testing.F) {
	for _, s := range seedHeads {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if err := errors.Join(compareRequest(raw), compareReply(raw)); err != nil {
			t.Errorf("%q:\n%v", raw, err)
		}
	})
}

// TestDivergencesOccur: every divergence FuzzHead forgives is met by a
// seed, so none is stale.
func TestDivergencesOccur(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range seedHeads {
		raw := []byte(s)
		_, err := request(raw)
		req, nerr := netHTTPRequest(raw)
		seen[requestDivergence(err, req, nerr)] = true
		_, err = reply(raw)
		resp, _ := http.ReadResponse(bufio.NewReader(bytes.NewReader(raw)), &http.Request{Method: http.MethodGet})
		seen[replyDivergence(err, resp)] = true
	}
	delete(seen, "")
	if len(seen) != 4 {
		t.Errorf("seeds meet %d divergences, want all 4: %v", len(seen), seen)
	}
}

// TestBodyRoundTrip: what CopyBody frames, Body reads back whole, in
// either framing, with chunks capped at four hex digits even from a
// writer whose free space is larger; a body cut short is
// io.ErrUnexpectedEOF.
func TestBodyRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 4096, 100 << 10} {
		for _, chunked := range []bool{false, true} {
			payload := bytes.Repeat([]byte("0123456789abcdef"), n/16+1)[:n]
			var wire bytes.Buffer
			bw := bufio.NewWriterSize(&wire, 128<<10)
			limit, h := int64(n), Head{Length: int64(n)}
			if chunked {
				limit, h = -1, Head{Length: -1, Chunked: true}
			}
			if m, err := CopyBody(bw, bytes.NewReader(payload), limit, chunked); err != nil || m != int64(n) {
				t.Fatalf("%d bytes, chunked %v: copied %d, %v", n, chunked, m, err)
			}
			if chunked {
				WriteLastChunk(bw)
			}
			_ = bw.Flush()
			var b Body
			b.Reset(bufio.NewReader(bytes.NewReader(wire.Bytes())), &h)
			if got, err := io.ReadAll(&b); err != nil || !bytes.Equal(got, payload) {
				t.Errorf("%d bytes, chunked %v: read back %d bytes, %v", n, chunked, len(got), err)
			}
			if n == 0 {
				continue
			}
			b.Reset(bufio.NewReader(bytes.NewReader(wire.Bytes()[:wire.Len()-1])), &h)
			if _, err := io.ReadAll(&b); err == nil {
				t.Errorf("%d bytes, chunked %v: a body cut short read whole", n, chunked)
			}
		}
	}
}
