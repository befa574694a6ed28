package httpcluster

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// peer is a scripted HTTP/1.1 server on a raw listener: it parses each
// request with the standard library and answers with the bytes the script
// returns, so a test decides framing, truncation and when the socket
// closes.
type peer struct {
	ln       net.Listener
	accepted atomic.Int64 // connections ever accepted
	open     atomic.Int64 // connections not yet closed by either side
	stop     chan struct{}
}

// reply is what a script does with one request: write raw, then hang
// until the test ends, close the socket, or wait for the next request.
type reply struct {
	raw   string
	hang  bool
	close bool
}

// script answers request seq (from 0) on connection conn (from 0).
type script func(conn, seq int, req *http.Request, body []byte) reply

func startPeer(t *testing.T, answer script) *peer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &peer{ln: ln, stop: make(chan struct{})}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			conn := int(p.accepted.Add(1)) - 1
			p.open.Add(1)
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer p.open.Add(-1)
				defer func() { _ = c.Close() }()
				br := bufio.NewReader(c)
				for seq := 0; ; seq++ {
					req, err := http.ReadRequest(br)
					if err != nil {
						return // the client closed, or sent something unparseable
					}
					body, _ := io.ReadAll(req.Body)
					r := answer(conn, seq, req, body)
					_, _ = io.WriteString(c, r.raw)
					if r.hang {
						// Until the client goes away or the test ends.
						gone := make(chan struct{})
						go func() { _, _ = br.Peek(1); close(gone) }()
						select {
						case <-gone:
						case <-p.stop:
						}
						return
					}
					if r.close {
						return
					}
				}
			}()
		}
	}()
	t.Cleanup(func() {
		close(p.stop)
		_ = ln.Close()
		wg.Wait()
	})
	return p
}

func (p *peer) url() string { return "http://" + p.ln.Addr().String() }

// always answers every request with raw and keeps the connection.
func always(raw string) script {
	return func(int, int, *http.Request, []byte) reply { return reply{raw: raw} }
}

func lengthReply(n int) string {
	return fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s", n, strings.Repeat("x", n))
}

func chunkedReply(n int) string {
	var b strings.Builder
	b.WriteString("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n")
	for left := n; left > 0; {
		c := min(left, 3000) // several chunks, none aligned with a buffer
		fmt.Fprintf(&b, "%x\r\n%s\r\n", c, strings.Repeat("x", c))
		left -= c
	}
	b.WriteString("0\r\n\r\n")
	return b.String()
}

// exchange sends one request through rt and reads the whole reply.
func exchange(ctx context.Context, rt http.RoundTripper, method, url string, body []byte, header http.Header) (status int, got []byte, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	for k, v := range header {
		req.Header[k] = v
	}
	resp, err := rt.RoundTrip(req)
	if err != nil {
		return 0, nil, err
	}
	got, err = io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	return resp.StatusCode, got, err
}

func idleConns(t *UpstreamTransport) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, s := range t.idle {
		n += len(s)
	}
	return n
}

// TestUpstreamTransportReplies: every framing the tiers produce comes
// through whole, and a connection is parked after exactly the replies the
// reuse rule allows.
func TestUpstreamTransportReplies(t *testing.T) {
	cases := []struct {
		name, method string
		raw          string
		status       int
		body         string
		reused       bool
	}{
		{"length 0", "GET", lengthReply(0), 200, "", true},
		{"length 128", "GET", lengthReply(128), 200, strings.Repeat("x", 128), true},
		{"length 16KiB", "GET", lengthReply(16384), 200, strings.Repeat("x", 16384), true},
		{"chunked 0", "GET", chunkedReply(0), 200, "", true},
		{"chunked 128", "GET", chunkedReply(128), 200, strings.Repeat("x", 128), true},
		{"chunked 16KiB", "GET", chunkedReply(16384), 200, strings.Repeat("x", 16384), true},
		{"connection close", "GET", "HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 2\r\n\r\nok", 200, "ok", false},
		{"HTTP/1.0", "GET", "HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nok", 200, "ok", false},
		{"HEAD", "HEAD", "HTTP/1.1 200 OK\r\nContent-Length: 128\r\n\r\n", 200, "", true},
		{"204", "GET", "HTTP/1.1 204 No Content\r\n\r\n", 204, "", true},
		{"304", "GET", "HTTP/1.1 304 Not Modified\r\nContent-Length: 128\r\n\r\n", 304, "", true},
		{"500 with a body", "GET", "HTTP/1.1 500 Internal Server Error\r\nContent-Length: 4\r\n\r\noops", 500, "oops", true},
		{"bytes after the reply", "GET", lengthReply(2) + "junk", 200, "xx", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := startPeer(t, always(tc.raw))
			tr := newUpstreamTransport(2)
			defer tr.CloseIdleConnections()
			for i := 0; i < 3; i++ {
				status, body, err := exchange(context.Background(), tr, tc.method, p.url()+"/x", nil, nil)
				if err != nil || status != tc.status || string(body) != tc.body {
					t.Fatalf("exchange %d: status %d, %d body bytes, %v; want %d, %d, nil", i, status, len(body), err, tc.status, len(tc.body))
				}
			}
			want, parked := int64(3), 0
			if tc.reused {
				want, parked = 1, 1
			}
			if got := p.accepted.Load(); got != want {
				t.Errorf("three exchanges used %d connections, want %d", got, want)
			}
			if got := idleConns(tr); got != parked {
				t.Errorf("%d connections parked, want %d", got, parked)
			}
		})
	}
}

// TestUpstreamTransportTruncatedBody: a reply that ends short of its
// framing is io.ErrUnexpectedEOF to the reader and its socket is never
// used again — TestTruncatedUpstreamBodyIsAnError's property, one layer
// down.
func TestUpstreamTransportTruncatedBody(t *testing.T) {
	for name, raw := range map[string]string{
		"length":  "HTTP/1.1 200 OK\r\nContent-Length: 16384\r\n\r\n" + strings.Repeat("x", 1024),
		"chunked": "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n400\r\n" + strings.Repeat("x", 1024) + "\r\n400\r\nxx",
	} {
		t.Run(name, func(t *testing.T) {
			p := startPeer(t, func(conn, _ int, _ *http.Request, _ []byte) reply {
				if conn == 0 {
					return reply{raw: raw, close: true}
				}
				return reply{raw: lengthReply(2)}
			})
			tr := newUpstreamTransport(2)
			defer tr.CloseIdleConnections()
			status, body, err := exchange(context.Background(), tr, "GET", p.url(), nil, nil)
			if !errors.Is(err, io.ErrUnexpectedEOF) || status != 200 || len(body) < 1024 {
				t.Fatalf("status %d, %d bytes, error %v; want 200, the bytes sent and io.ErrUnexpectedEOF", status, len(body), err)
			}
			if n := idleConns(tr); n != 0 {
				t.Fatalf("%d connections parked after a truncated reply", n)
			}
			if _, _, err := exchange(context.Background(), tr, "GET", p.url(), nil, nil); err != nil || p.accepted.Load() != 2 {
				t.Fatalf("next exchange: %v on connection %d of 2", err, p.accepted.Load())
			}
		})
	}
}

// TestUpstreamTransportReplay: the peer closing a parked connection costs
// a bodyless request one redial and nothing else; a failure the peer may
// have acted on is the caller's.
func TestUpstreamTransportReplay(t *testing.T) {
	// The first connection answers one request and dies: at once if
	// second is nil, else by answering the next request with *second.
	// Every later connection works.
	peerDying := func(t *testing.T, second *reply) *peer {
		return startPeer(t, func(conn, seq int, _ *http.Request, _ []byte) reply {
			switch {
			case conn > 0:
				return reply{raw: lengthReply(2)}
			case seq == 0:
				return reply{raw: lengthReply(2), close: second == nil}
			}
			return *second
		})
	}
	// first runs the first exchange and waits until the peer holds
	// wantOpen connections: none once its close has happened.
	first := func(t *testing.T, tr *UpstreamTransport, p *peer, wantOpen int64) {
		t.Helper()
		if _, _, err := exchange(context.Background(), tr, "GET", p.url(), nil, nil); err != nil {
			t.Fatal(err)
		}
		if !within(time.Second, func() bool { return p.open.Load() == wantOpen }) || idleConns(tr) != 1 {
			t.Fatalf("after the first exchange: peer has %d open, %d parked", p.open.Load(), idleConns(tr))
		}
	}

	t.Run("stale connection is replayed once", func(t *testing.T) {
		p := peerDying(t, nil)
		tr := newUpstreamTransport(2)
		defer tr.CloseIdleConnections()
		first(t, tr, p, 0)
		status, body, err := exchange(context.Background(), tr, "GET", p.url(), nil, nil)
		if err != nil || status != 200 || string(body) != "xx" {
			t.Fatalf("status %d, body %q, %v over a connection the peer had closed", status, body, err)
		}
		if got := p.accepted.Load(); got != 2 {
			t.Fatalf("%d connections, want 2: one redial", got)
		}
	})
	t.Run("no replay after the first reply byte", func(t *testing.T) {
		p := peerDying(t, &reply{raw: "HTTP/1.1 2", close: true})
		tr := newUpstreamTransport(2)
		defer tr.CloseIdleConnections()
		first(t, tr, p, 1)
		if _, _, err := exchange(context.Background(), tr, "GET", p.url(), nil, nil); err == nil {
			t.Fatal("half a status line read as a reply")
		}
		if got := p.accepted.Load(); got != 1 {
			t.Fatalf("%d connections, want 1: no redial", got)
		}
	})
	t.Run("no replay with a request body", func(t *testing.T) {
		p := peerDying(t, nil)
		tr := newUpstreamTransport(2)
		defer tr.CloseIdleConnections()
		first(t, tr, p, 0)
		if _, _, err := exchange(context.Background(), tr, "POST", p.url(), []byte("payload"), nil); err == nil {
			t.Fatal("POST over a closed connection succeeded")
		}
		if got := p.accepted.Load(); got != 1 {
			t.Fatalf("%d connections, want 1: no redial", got)
		}
	})
	t.Run("no replay of a fresh connection", func(t *testing.T) {
		p := startPeer(t, func(int, int, *http.Request, []byte) reply { return reply{close: true} })
		tr := newUpstreamTransport(2)
		defer tr.CloseIdleConnections()
		if _, _, err := exchange(context.Background(), tr, "GET", p.url(), nil, nil); err == nil {
			t.Fatal("no reply read as a reply")
		}
		if got := p.accepted.Load(); got != 1 {
			t.Fatalf("%d connections, want 1", got)
		}
	})
	t.Run("no replay under a dead context", func(t *testing.T) {
		p := peerDying(t, nil)
		tr := newUpstreamTransport(2)
		defer tr.CloseIdleConnections()
		first(t, tr, p, 0)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, _, err := exchange(ctx, tr, "GET", p.url(), nil, nil); !errors.Is(err, context.Canceled) {
			t.Fatalf("error %v, want context.Canceled", err)
		}
		if got := p.accepted.Load(); got != 1 {
			t.Fatalf("%d connections, want 1", got)
		}
	})
}

// TestUpstreamTransportContext: a cancelled or expired context ends the
// exchange at once, wherever it is waiting, as the context's own error,
// and closes the socket.
func TestUpstreamTransportContext(t *testing.T) {
	header := "HTTP/1.1 200 OK\r\nContent-Length: 16384\r\n\r\n" + strings.Repeat("x", 100)
	cancelled := func() (context.Context, context.CancelFunc) {
		ctx, cancel := context.WithCancel(context.Background())
		time.AfterFunc(20*time.Millisecond, cancel)
		return ctx, cancel
	}
	expired := func() (context.Context, context.CancelFunc) {
		return context.WithTimeout(context.Background(), 20*time.Millisecond)
	}
	cases := []struct {
		name   string
		answer reply
		ctx    func() (context.Context, context.CancelFunc)
		want   error
	}{
		{"cancelled waiting for the header", reply{hang: true}, cancelled, context.Canceled},
		{"cancelled in the body", reply{raw: header, hang: true}, cancelled, context.Canceled},
		{"deadline waiting for the header", reply{hang: true}, expired, context.DeadlineExceeded},
		{"deadline in the body", reply{raw: header, hang: true}, expired, context.DeadlineExceeded},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := startPeer(t, func(int, int, *http.Request, []byte) reply { return tc.answer })
			tr := newUpstreamTransport(2)
			defer tr.CloseIdleConnections()
			ctx, cancel := tc.ctx()
			defer cancel()
			start := time.Now()
			_, _, err := exchange(ctx, tr, "GET", p.url(), nil, nil)
			if took := time.Since(start); took > 20*time.Millisecond+50*time.Millisecond {
				t.Errorf("returned %v after the context ended at 20ms, want within 50ms of it", took)
			}
			if !errors.Is(err, tc.want) {
				t.Errorf("error %v, want %v", err, tc.want)
			}
			if !within(time.Second, func() bool { return p.open.Load() == 0 }) || idleConns(tr) != 0 {
				t.Errorf("peer still has %d open, %d parked", p.open.Load(), idleConns(tr))
			}
		})
	}
}

// TestUpstreamTransportIdleStack: the stack keeps what the cap allows,
// hands out the youngest, and drops what has sat too long when a pop finds
// it.
func TestUpstreamTransportIdleStack(t *testing.T) {
	const burst, idleCap = 5, 2
	arrived := make(chan struct{}, burst)
	release := make(chan struct{})
	p := startPeer(t, func(_, seq int, _ *http.Request, _ []byte) reply {
		if seq == 0 { // hold the burst until all of it is in flight
			arrived <- struct{}{}
			<-release
		}
		return reply{raw: lengthReply(2)}
	})
	tr := newUpstreamTransport(idleCap)
	defer tr.CloseIdleConnections()
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := exchange(context.Background(), tr, "GET", p.url(), nil, nil); err != nil {
				t.Error(err)
			}
		}()
	}
	for i := 0; i < burst; i++ {
		<-arrived
	}
	close(release)
	wg.Wait()
	if !within(time.Second, func() bool { return p.open.Load() == idleCap }) || idleConns(tr) != idleCap {
		t.Fatalf("after a burst of %d: peer has %d open, %d parked; want %d and %d", burst, p.open.Load(), idleConns(tr), idleCap, idleCap)
	}
	for i := 0; i < 4; i++ {
		if _, _, err := exchange(context.Background(), tr, "GET", p.url(), nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.accepted.Load(); got != burst {
		t.Fatalf("%d connections after four serial exchanges, want the burst's %d", got, burst)
	}

	// Age both parked connections past the limit: the next exchange dials,
	// and both old sockets close.
	tr.mu.Lock()
	for _, s := range tr.idle {
		for _, c := range s {
			c.idleAt = c.idleAt.Add(-upstreamIdleAge)
		}
	}
	tr.mu.Unlock()
	if _, _, err := exchange(context.Background(), tr, "GET", p.url(), nil, nil); err != nil {
		t.Fatal(err)
	}
	if !within(time.Second, func() bool { return p.open.Load() == 1 }) || p.accepted.Load() != burst+1 || idleConns(tr) != 1 {
		t.Fatalf("after the idle age: %d accepted, %d open, %d parked; want %d, 1, 1", p.accepted.Load(), p.open.Load(), idleConns(tr), burst+1)
	}
}

// TestUpstreamTransportWritesTheRequest: method, request-URI, Host, every
// header and a 2 KiB body reach the peer as the request states them, and
// what cannot be sent is refused before a connection is touched.
func TestUpstreamTransportWritesTheRequest(t *testing.T) {
	type seen struct {
		method, uri, host string
		header            http.Header
		length            int64
		body              []byte
	}
	got := make(chan seen, 1)
	p := startPeer(t, func(_, _ int, req *http.Request, body []byte) reply {
		got <- seen{req.Method, req.RequestURI, req.Host, req.Header, req.ContentLength, body}
		return reply{raw: lengthReply(0)}
	})
	tr := newUpstreamTransport(1)
	defer tr.CloseIdleConnections()

	payload := bytes.Repeat([]byte("0123456789abcdef"), 128)
	header := http.Header{"Cookie": {"JSESSIONID=abc.app1"}, "X-Priority": {"background", "second value"}}
	if status, _, err := exchange(context.Background(), tr, "POST", p.url()+"/a%20b/c?q=1&r=x+y", payload, header); err != nil || status != 200 {
		t.Fatalf("status %d, %v", status, err)
	}
	s := <-got
	if s.method != "POST" || s.uri != "/a%20b/c?q=1&r=x+y" || s.host != p.ln.Addr().String() {
		t.Errorf("peer read %s %s for host %q", s.method, s.uri, s.host)
	}
	if s.length != 2048 || !bytes.Equal(s.body, payload) {
		t.Errorf("peer read Content-Length %d and %d body bytes, want the 2048 sent", s.length, len(s.body))
	}
	if c, x := s.header["Cookie"], s.header["X-Priority"]; len(c) != 1 || c[0] != "JSESSIONID=abc.app1" || len(x) != 2 || x[0] != "background" || x[1] != "second value" {
		t.Errorf("peer read headers %v", s.header)
	}
	// A bodyless GET on the connection the POST left behind.
	if _, _, err := exchange(context.Background(), tr, "GET", p.url(), nil, nil); err != nil {
		t.Fatal(err)
	}
	if s := <-got; s.method != "GET" || s.uri != "/" || s.length != 0 || p.accepted.Load() != 1 {
		t.Errorf("second request: %s %s, length %d, on connection %d", s.method, s.uri, s.length, p.accepted.Load())
	}

	accepted := p.accepted.Load()
	for name, req := range map[string]*http.Request{
		"https":                  {Method: "GET", URL: mustParse(t, "https://"+p.ln.Addr().String()+"/")},
		"line break in a header": {Method: "GET", URL: mustParse(t, p.url()), Header: http.Header{"X-A": {"v\r\nX-B: w"}}},
		"space in the method":    {Method: "GET /admin HTTP/1.1\r\nX:", URL: mustParse(t, p.url())},
		"method not a token":     {Method: "GE(T", URL: mustParse(t, p.url())},
		"name not a token":       {Method: "GET", URL: mustParse(t, p.url()), Header: http.Header{"X(Bad": {"v"}}},
		"body of unknown length": {Method: "POST", URL: mustParse(t, p.url()), Body: io.NopCloser(strings.NewReader("x")), ContentLength: -1},
	} {
		if resp, err := tr.RoundTrip(req); err == nil {
			_ = resp.Body.Close()
			t.Errorf("%s: sent", name)
		}
	}
	if p.accepted.Load() != accepted || idleConns(tr) != 1 {
		t.Errorf("refused requests touched a connection: %d accepted (was %d), %d parked", p.accepted.Load(), accepted, idleConns(tr))
	}
}

func mustParse(t *testing.T, raw string) *url.URL {
	t.Helper()
	u, err := url.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// TestUpstreamTransportMatchesNetHTTP sends the same scripted replies
// three ways — through net/http's transport, through this one's RoundTrip
// under a context deadline, and through its forward under an attempt
// deadline — and requires equal status, body and kind of error, and for a
// case sent twice the same number of connections. The two named
// exceptions are a header line longer than the connection's read buffer,
// and a field name holding a space: net/http reads both, this transport
// fails the exchange.
func TestUpstreamTransportMatchesNetHTTP(t *testing.T) {
	kind := func(err error) string {
		switch {
		case err == nil:
			return "none"
		case errors.Is(err, context.DeadlineExceeded):
			return "deadline"
		case errors.Is(err, context.Canceled):
			return "cancelled"
		case errors.Is(err, io.ErrUnexpectedEOF):
			return "unexpected EOF"
		}
		return "failed"
	}
	const longHeader, spaceName = "5KiB header line", "space in a field name"
	cases := map[string]struct {
		answer reply
		conns  int64 // sent twice when set: the connections the two requests must take
	}{
		"length 128":                   {answer: reply{raw: lengthReply(128)}},
		"chunked 16KiB":                {answer: reply{raw: chunkedReply(16384)}},
		"204":                          {answer: reply{raw: "HTTP/1.1 204 No Content\r\n\r\n"}},
		"404 with a body":              {answer: reply{raw: "HTTP/1.1 404 Not Found\r\nContent-Length: 4\r\n\r\nnope"}},
		"connection close":             {answer: reply{raw: "HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 2\r\n\r\nok", close: true}},
		"until close":                  {answer: reply{raw: "HTTP/1.1 200 OK\r\n\r\nall of it", close: true}},
		"truncated length":             {answer: reply{raw: "HTTP/1.1 200 OK\r\nContent-Length: 999\r\n\r\nshort", close: true}},
		"truncated chunked":            {answer: reply{raw: "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n10\r\nshort", close: true}},
		"bad chunk size":               {answer: reply{raw: "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n", close: true}},
		"no reply":                     {answer: reply{close: true}},
		"not HTTP":                     {answer: reply{raw: "SSH-2.0-OpenSSH\r\n", close: true}},
		"half a header":                {answer: reply{raw: "HTTP/1.1 200 OK\r\nContent-Le", close: true}},
		"silence":                      {answer: reply{hang: true}},
		"silence in body":              {answer: reply{raw: "HTTP/1.1 200 OK\r\nContent-Length: 999\r\n\r\nshort", hang: true}},
		"HTTP/1.0 without keep-alive":  {answer: reply{raw: "HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nok"}, conns: 2},
		"HTTP/1.0 with keep-alive":     {answer: reply{raw: "HTTP/1.0 200 OK\r\nConnection: Keep-Alive\r\nContent-Length: 2\r\n\r\nok"}, conns: 1},
		"two Content-Length values":    {answer: reply{raw: "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nok", close: true}},
		"bad Content-Length":           {answer: reply{raw: "HTTP/1.1 200 OK\r\nContent-Length: 2x\r\n\r\nok", close: true}},
		"chunked and Content-Length":   {answer: reply{raw: "HTTP/1.1 200 OK\r\nContent-Length: 999\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nok\r\n0\r\n\r\n"}, conns: 1},
		"chunked with a trailer":       {answer: reply{raw: "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nTrailer: X-Sum\r\n\r\n2\r\nok\r\n0\r\nX-Sum: 42\r\nX-More: yes\r\n\r\n"}, conns: 1},
		"folded header":                {answer: reply{raw: "HTTP/1.1 200 OK\r\nX-Folded: a\r\n b\r\nContent-Length: 2\r\n\r\nok"}, conns: 1},
		"unsupported transfer coding":  {answer: reply{raw: "HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip\r\n\r\nok", close: true}},
		"bad status code":              {answer: reply{raw: "HTTP/1.1 2x0 OK\r\n\r\n", close: true}},
		"bad version":                  {answer: reply{raw: "HTTP/one 200 OK\r\n\r\n", close: true}},
		longHeader:                     {answer: reply{raw: "HTTP/1.1 200 OK\r\nX-Long: " + strings.Repeat("x", 5<<10) + "\r\nContent-Length: 2\r\n\r\nok"}},
		"lone LF line endings":         {answer: reply{raw: "HTTP/1.1 200 OK\nContent-Length: 2\n\nok"}, conns: 1},
		"length 0, kept":               {answer: reply{raw: lengthReply(0)}, conns: 1},
		"truncated trailer":            {answer: reply{raw: "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nok\r\n0\r\nX-Sum: 4", close: true}},
		"Connection: close, Upgrade":   {answer: reply{raw: "HTTP/1.1 200 OK\r\nConnection: Upgrade, close\r\nContent-Length: 2\r\n\r\nok"}, conns: 2},
		"status without a reason text": {answer: reply{raw: "HTTP/1.1 200\r\nContent-Length: 2\r\n\r\nok"}, conns: 1},
		"field name not a token":       {answer: reply{raw: "HTTP/1.1 200 OK\r\nX(Bad\": v\r\nContent-Length: 2\r\n\r\nok", close: true}},
		"control byte in a value":      {answer: reply{raw: "HTTP/1.1 200 OK\r\nX-Ctl: a\x01b\r\nContent-Length: 2\r\n\r\nok", close: true}},
		spaceName:                      {answer: reply{raw: "HTTP/1.1 200 OK\r\nX A: v\r\nContent-Length: 2\r\n\r\nok", close: true}},
	}
	type result struct {
		status int
		body   string
		kind   string
		conns  int64 // taken by the two requests of a case sent twice
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			p := startPeer(t, func(int, int, *http.Request, []byte) reply { return tc.answer })
			std := newClientTransport()
			defer std.CloseIdleConnections()
			ours, fwd := newUpstreamTransport(1), newUpstreamTransport(1)
			defer ours.CloseIdleConnections()
			defer fwd.CloseIdleConnections()
			base := mustParse(t, p.url())
			ways := []func() (int, []byte, error){
				func() (int, []byte, error) {
					ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
					defer cancel()
					return exchange(ctx, std, "GET", p.url(), nil, nil)
				},
				func() (int, []byte, error) {
					ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
					defer cancel()
					return exchange(ctx, ours, "GET", p.url(), nil, nil)
				},
				func() (int, []byte, error) {
					status, _, body, err := fwd.forward(context.Background(), new(exchangeSlot), time.Now().Add(100*time.Millisecond), base, []byte("/"))
					if err != nil {
						return 0, nil, err
					}
					defer func() { _ = body.Close() }()
					got, err := io.ReadAll(body)
					return status, got, err
				},
			}
			var res [3]result
			for i, way := range ways {
				before := p.accepted.Load()
				status, body, err := way()
				res[i] = result{status, string(body), kind(err), 0}
				if tc.conns > 0 {
					if status2, body2, err2 := way(); status2 != status || string(body2) != string(body) || kind(err2) != kind(err) {
						t.Errorf("way %d: second reply status %d, %q, %v; the first %d, %q, %v", i, status2, body2, err2, status, body, err)
					}
					if res[i].conns = p.accepted.Load() - before; res[i].conns != tc.conns {
						t.Errorf("way %d: two requests took %d connections, want %d", i, res[i].conns, tc.conns)
					}
				}
			}
			if name == longHeader || name == spaceName {
				if want := (result{status: 200, body: "ok", kind: "none"}); res[0] != want {
					t.Errorf("net/http: %+v, want %+v", res[0], want)
				}
				if want := (result{kind: "failed"}); res[1] != want || res[2] != want {
					t.Errorf("RoundTrip: %+v\nforward:   %+v\nwant %+v", res[1], res[2], want)
				}
				return
			}
			if res[0] != res[1] || res[0] != res[2] {
				t.Errorf("net/http:  %+v\nRoundTrip: %+v\nforward:   %+v", res[0], res[1], res[2])
			}
		})
	}
}

// TestForwardAllocs: one native exchange on a reused connection to a
// Content-Length peer allocates nothing: the body lives in the caller's
// slot, the request line is written from the base path and the path as
// they are, and cancellation is the slot's, armed without a registration.
// The peer reads each request, whose length it knows, into one buffer and
// writes one fixed reply, so it allocates nothing either.
func TestForwardAllocs(t *testing.T) {
	const maxAllocs = 0
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	host := ln.Addr().String()
	request := make([]byte, len("GET /x HTTP/1.1\r\nHost: "+host+"\r\n\r\n"))
	answer := []byte(lengthReply(128))
	served := make(chan struct{})
	go func() {
		defer close(served)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer func() { _ = c.Close() }()
		for {
			if _, err := io.ReadFull(c, request); err != nil {
				return
			}
			if _, err := c.Write(answer); err != nil {
				return
			}
		}
	}()
	defer func() { <-served }()
	defer func() { _ = ln.Close() }()
	tr := newUpstreamTransport(1)
	defer tr.CloseIdleConnections()

	base := mustParse(t, "http://"+host)
	ctx, cancel := context.WithCancel(context.Background()) // cancellable, as a server request's is
	defer cancel()
	slot := new(exchangeSlot)
	path := []byte("/x")
	var buf [512]byte
	var failure error
	once := func() {
		status, length, body, err := tr.forward(ctx, slot, time.Now().Add(5*time.Second), base, path)
		if err != nil {
			failure = err
			return
		}
		n := 0
		for err == nil {
			var m int
			m, err = body.Read(buf[n:])
			n += m
		}
		_ = body.Close()
		if err != io.EOF || status != http.StatusOK || length != 128 || n != 128 {
			failure = fmt.Errorf("status %d, length %d, %d bytes, %v", status, length, n, err)
		}
	}
	once() // dials and parks the one connection the peer accepts
	allocs := testing.AllocsPerRun(1000, once)
	if failure != nil {
		t.Fatal(failure)
	}
	t.Logf("%.0f allocations per exchange", allocs)
	if allocs > maxAllocs {
		t.Fatalf("%.0f allocations per exchange on a reused connection, budget %d", allocs, maxAllocs)
	}
}

// TestCloseIdleConnectionsCoversExchangesInFlight: an exchange that is in
// flight when the owner releases the transport, and one that starts
// afterwards, both close their sockets instead of parking them.
func TestCloseIdleConnectionsCoversExchangesInFlight(t *testing.T) {
	replying := make(chan struct{})
	release := make(chan struct{})
	p := startPeer(t, func(conn, _ int, _ *http.Request, _ []byte) reply {
		if conn == 1 {
			close(replying)
			<-release
		}
		return reply{raw: lengthReply(128)}
	})
	tr := NewUpstreamTransport([]*Backend{NewBackend("app1", p.url(), 4)})
	get := func() {
		t.Helper()
		if status, body, err := exchange(context.Background(), tr, "GET", p.url(), nil, nil); err != nil || status != 200 || len(body) != 128 {
			t.Errorf("status %d, %d bytes, %v", status, len(body), err)
		}
	}
	get() // parks connection 0
	// Connection 0 is taken by the exchange that will be in flight, so
	// park it again behind a second one: hold 0 busy while 1 is dialled.
	req, _ := http.NewRequest("GET", p.url(), nil)
	held, err := tr.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); get() }() // dials connection 1 and waits for the reply
	<-replying
	_, _ = io.Copy(io.Discard, held.Body)
	_ = held.Body.Close() // parks connection 0
	if p.open.Load() != 2 {
		t.Fatalf("peer has %d connections open, want 2: one parked, one in flight", p.open.Load())
	}

	tr.CloseIdleConnections()
	if !within(time.Second, func() bool { return p.open.Load() == 1 }) {
		t.Fatalf("peer has %d connections open after CloseIdleConnections, want only the one in flight", p.open.Load())
	}
	close(release)
	<-done
	if !within(time.Second, func() bool { return p.open.Load() == 0 }) {
		t.Fatalf("the exchange in flight during CloseIdleConnections left %d connections open", p.open.Load())
	}
	get() // a late exchange still works
	if !within(time.Second, func() bool { return p.open.Load() == 0 }) || p.accepted.Load() != 3 {
		t.Fatalf("an exchange after CloseIdleConnections left %d connections open (%d accepted, want 3)", p.open.Load(), p.accepted.Load())
	}
}

// TestUpstreamTransportCrashRestartStress: 64 callers over four app
// servers that crash and restart under them. Every error falls in a crash
// window of the host it was sent to, the transport owns no goroutine, and
// no socket it dialled outlives it.
//
// The hosts crash and restart for at least minRun, so each goes down
// several times, and then until the callers have made 10×callers
// exchanges: on a host busy with other work the callers run slower, and
// a run stopped on the clock alone once ended with too few exchanges to
// judge the pool by. A run that has not got there in 30 s fails.
func TestUpstreamTransportCrashRestartStress(t *testing.T) {
	const callers, hosts = 64, 4
	const deadline = 30 * time.Second
	minRun := 1200 * time.Millisecond
	if testing.Short() {
		minRun = 400 * time.Millisecond
	}
	base := runtime.NumGoroutine()

	var apps [hosts]*AppServer
	// epoch is odd while the host is down or coming back, and moves
	// whenever it crashed: an exchange that saw it even and unchanged ran
	// against a healthy server throughout.
	var epoch [hosts]atomic.Int64
	for i := range apps {
		app, err := StartAppServer(AppServerConfig{Name: fmt.Sprint("app", i+1), Workers: callers, ServiceTime: 200 * time.Microsecond, ResponseBytes: 512})
		if err != nil {
			t.Fatal(err)
		}
		apps[i] = app
	}
	tr := newUpstreamTransport(callers / hosts)
	var dialled, closed atomic.Int64
	dial := tr.dial
	tr.dial = func(ctx context.Context, network, addr string) (net.Conn, error) {
		c, err := dial(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		dialled.Add(1)
		return &countedConn{Conn: c, closed: &closed}, nil
	}

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var sent, failed atomic.Int64
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := i; ctx.Err() == nil; n++ {
				h := n % hosts
				before := epoch[h].Load()
				rctx, rcancel := context.WithTimeout(context.Background(), 2*time.Second)
				status, body, err := exchange(rctx, tr, "GET", apps[h].URL()+"/x", nil, nil)
				rcancel()
				sent.Add(1)
				if err == nil && status == http.StatusOK && len(body) == 512 {
					continue
				}
				failed.Add(1)
				if after := epoch[h].Load(); before%2 == 0 && after == before {
					t.Errorf("app%d, never down during the exchange: status %d, %d bytes, %v", h+1, status, len(body), err)
				}
			}
		}(i)
	}
	for start := time.Now(); time.Since(start) < minRun || sent.Load() < 10*callers; {
		if time.Since(start) > deadline {
			t.Errorf("after %v the callers had made %d exchanges (%d failed), want %d", deadline, sent.Load(), failed.Load(), 10*callers)
			break
		}
		for h, app := range apps {
			time.Sleep(15 * time.Millisecond)
			epoch[h].Add(1)
			app.Crash()
			time.Sleep(5 * time.Millisecond)
			if err := app.Restart(); err != nil {
				t.Fatal(err)
			}
			epoch[h].Add(1)
		}
	}
	cancel()
	wg.Wait()
	t.Logf("%d exchanges, %d failed in crash windows, %d dials", sent.Load(), failed.Load(), dialled.Load())
	if sent.Load() < 10*callers || failed.Load() > sent.Load()/2 {
		t.Errorf("%d exchanges, %d failed: the stress did not exercise the pool", sent.Load(), failed.Load())
	}

	// Idle, with connections parked: nothing of the transport is running.
	if idleConns(tr) == 0 {
		t.Error("no connection parked after the run")
	}
	buf := make([]byte, 1<<20)
	if stacks := string(buf[:runtime.Stack(buf, true)]); strings.Contains(stacks, "httpcluster.(*UpstreamTransport)") || strings.Contains(stacks, "httpcluster.(*upstream") {
		t.Errorf("a goroutine of the idle transport is running:\n%s", stacks)
	}
	tr.CloseIdleConnections()
	if d, c := dialled.Load(), closed.Load(); d != c {
		t.Errorf("%d sockets dialled, %d closed", d, c)
	}
	for _, app := range apps {
		_ = app.Close()
	}
	if !within(2*time.Second, func() bool { return runtime.NumGoroutine() <= base }) {
		t.Errorf("%d goroutines after the run, %d before", runtime.NumGoroutine(), base)
	}
}

// countedConn counts its first Close.
type countedConn struct {
	net.Conn
	once   sync.Once
	closed *atomic.Int64
}

func (c *countedConn) Close() error {
	c.once.Do(func() { c.closed.Add(1) })
	return c.Conn.Close()
}
