package httpcluster

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// netHTTPHead is what net/http's server makes of a raw request head, in
// the terms of requestHead; ok is false where it answers with an error.
func netHTTPHead(raw string) (h requestHead, ok bool) {
	req, err := http.ReadRequest(bufio.NewReader(strings.NewReader(raw)))
	if err != nil || req.ProtoMajor != 1 {
		return h, false
	}
	// The checks net/http's server adds to ReadRequest's, which takes the
	// Host field out of the header.
	if hosts := strings.Count(strings.ToLower(raw), "\r\nhost:"); req.ProtoAtLeast(1, 1) && hosts == 0 || hosts > 1 {
		return h, false
	}
	for k := range req.Header {
		if strings.ContainsAny(k, " \t\"(),/:;<=>?@[\\]{}") {
			return h, false // not a token: net/http's server refuses the name
		}
	}
	h.method, h.minor = req.Method, req.ProtoMinor
	h.path = []byte(req.URL.EscapedPath())
	h.length = req.ContentLength
	h.keepAlive = !req.Close
	if c, err := req.Cookie("JSESSIONID"); err == nil {
		h.session = c.Value
	}
	h.background = strings.EqualFold(req.Header.Get("X-Priority"), "background")
	return h, true
}

// TestFrontParsesHeadsAsNetHTTP: the front's head parser against
// net/http's, over the shapes a client sends: target forms and escapes,
// body framing, keep-alive, the cookie and the priority, and the heads
// net/http answers with an error.
func TestFrontParsesHeadsAsNetHTTP(t *testing.T) {
	const host = "Host: h\r\n"
	heads := []string{
		"GET /x HTTP/1.1\r\n" + host,
		"HEAD /x HTTP/1.1\r\n" + host,
		"OPTIONS * HTTP/1.1\r\n" + host,
		"GET /a%2Fb?q=1 HTTP/1.1\r\n" + host,
		"GET /%41%2f%7e HTTP/1.1\r\n" + host,
		"GET //double/slash HTTP/1.1\r\n" + host,
		"GET /caf%C3%A9/x;p=1,2@:[] HTTP/1.1\r\n" + host,
		"GET /caf\xc3\xa9 HTTP/1.1\r\n" + host,
		"GET /q\"uote<>{}|^` HTTP/1.1\r\n" + host,
		"GET /a#frag HTTP/1.1\r\n" + host,
		"GET /%zz HTTP/1.1\r\n" + host,
		"GET /%4 HTTP/1.1\r\n" + host,
		"GET http://example.com/abs/p?x=1 HTTP/1.1\r\n" + host,
		"GET http://example.com HTTP/1.1\r\n" + host,
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
		"POST /x HTTP/1.0\r\nTransfer-Encoding: chunked\r\nContent-Length: 3\r\n",
		"GET /x HTTP/1.0\r\nConnection: keep-alive\r\n",
		"GET /x HTTP/1.0\r\nConnection: Keep-Alive, Upgrade\r\n",
		"GET /x HTTP/1.1\r\n" + host + "Connection: close\r\n",
		"GET /x HTTP/1.1\r\n" + host + "Connection: upgrade\r\nConnection: CLOSE\r\n",
		"GET /x HTTP/1.1\r\n" + host + "Cookie: a=1; JSESSIONID=abc\r\n",
		"GET /x HTTP/1.1\r\n" + host + "Cookie: JSESSIONID=\"quoted\"\r\n",
		"GET /x HTTP/1.1\r\n" + host + "Cookie: a=1\r\nCookie: JSESSIONID=second; JSESSIONID=third\r\n",
		"GET /x HTTP/1.1\r\n" + host + "Cookie: JSESSIONID=bad\\value; JSESSIONID=good\r\n",
		"GET /x HTTP/1.1\r\n" + host + "Cookie: jsessionid=lower\r\n",
		"GET /x HTTP/1.1\r\n" + host + "Cookie:  JSESSIONID = spaced ;\r\n",
		"GET /x HTTP/1.1\r\n" + host + "X-Priority: BACKGROUND\r\n",
		"GET /x HTTP/1.1\r\n" + host + "X-Priority: interactive\r\nX-Priority: background\r\n",
		"GET /x HTTP/1.1\r\n" + host + "x-priority:background\r\n",
		"GET /x HTTP/1.1\r\n" + host + "Bad Name: x\r\n",
		"GET /x HTTP/1.1\r\n" + host + "Bad\x01: x\r\n",
		"GET /x HTTP/1.1\r\n" + host + ": x\r\n",
		"GET /x HTTP/1.1\r\n" + host + "No-Colon\r\n",
		"GET /x HTTP/1.1\r\n" + host + "X-Ctl: a\x01b\r\n",
		"GET /x HTTP/1.1\r\n" + host + "X-Fold: a\r\n b\r\n",
		"GET /x HTTP/1.1\r\n X-Lead: a\r\n" + host,
		"GET /x HTTP/1.1\r\n" + host + "X-Empty:\r\n",
	}
	for _, head := range heads {
		raw := head + "\r\n"
		want, wantOK := netHTTPHead(raw)
		fc := &frontConn{br: bufio.NewReaderSize(strings.NewReader(raw), frontBufSize), bw: bufio.NewWriter(io.Discard)}
		var got requestHead
		gotOK := fc.readRequest(&got)
		if gotOK != wantOK {
			t.Errorf("%q: front accepts %v, net/http %v", head, gotOK, wantOK)
			continue
		}
		if !gotOK {
			continue
		}
		got.target = nil
		if got.method != want.method || got.minor != want.minor || !bytes.Equal(got.path, want.path) ||
			got.length != want.length || got.keepAlive != want.keepAlive || got.session != want.session || got.background != want.background {
			t.Errorf("%q:\nfront    %+v path %q\nnet/http %+v path %q", head, got, got.path, want, want.path)
		}
	}
}

// zeroAllocPeer serves a raw HTTP/1.1 peer on loopback that answers each
// bodyless request with one fixed reply as soon as the blank line ending
// its head arrives. It reads into one buffer and allocates nothing per
// request.
func zeroAllocPeer(t *testing.T, reply []byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer func() { _ = c.Close() }()
				var buf [4096]byte
				matched := 0 // bytes of "\r\n\r\n" seen in a row
				for {
					n, err := c.Read(buf[:])
					if err != nil {
						return
					}
					for _, b := range buf[:n] {
						switch {
						case b == "\r\n\r\n"[matched]:
							matched++
						case b == '\r':
							matched = 1
						default:
							matched = 0
						}
						if matched == 4 {
							matched = 0
							if _, err := c.Write(reply); err != nil {
								return
							}
						}
					}
				}
			}()
		}
	}()
	t.Cleanup(func() { _ = ln.Close(); <-done })
	return ln.Addr().String()
}

// readFrontReply reads one reply in place and reports its status and
// body length. It allocates nothing, so TestFrontAllocs counts the
// front's allocations alone.
func readFrontReply(br *bufio.Reader) (status int, n int64, err error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return 0, 0, err
	}
	if len(line) < 12 {
		return 0, 0, errors.New("short status line")
	}
	status = int(line[9]-'0')*100 + int(line[10]-'0')*10 + int(line[11]-'0')
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return status, 0, err
		}
		if line = bytes.TrimRight(line, "\r\n"); len(line) == 0 {
			break
		}
		if v, ok := bytes.CutPrefix(line, []byte("Content-Length: ")); ok {
			for _, c := range v {
				n = n*10 + int64(c-'0')
			}
		}
	}
	_, err = br.Discard(int(n))
	return status, n, err
}

// TestFrontAllocs: one GET, or one POST with a short body, on a
// kept-alive client connection through the front allocates nothing: the
// head is read in place, the body drained through the connection's own
// buffers, the upstream exchange runs on the connection's slot
// (TestForwardAllocs), and the reply is written from the upstream's
// framing. The client and the
// backend are raw sockets that allocate nothing themselves.
func TestFrontAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation guard: the race detector's runs use -short and allocate differently")
	}
	const maxAllocs = 0
	addr := zeroAllocPeer(t, []byte(lengthReply(128)))
	proxy, err := StartProxy(ProxyConfig{Workers: 2, Policy: PolicyCurrentLoad, Mechanism: MechanismModified},
		[]*Backend{NewBackend("app1", "http://"+addr, 2)})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = proxy.Close() }()
	c, err := net.Dial("tcp", strings.TrimPrefix(proxy.URL(), "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	_ = c.SetDeadline(time.Now().Add(30 * time.Second))
	br := bufio.NewReader(c)
	// A GET, and a POST whose body the front drains before dispatch, each
	// measured on its own: AllocsPerRun rounds down.
	for i, request := range [][]byte{
		[]byte("GET /x HTTP/1.1\r\nHost: proxy\r\n\r\n"),
		[]byte("POST /x HTTP/1.1\r\nHost: proxy\r\nContent-Length: 5\r\n\r\nhello"),
	} {
		var failure error
		once := func() {
			if _, err := c.Write(request); err != nil {
				failure = err
				return
			}
			if status, n, err := readFrontReply(br); err != nil || status != http.StatusOK || n != 128 {
				failure = errors.Join(failure, err, errors.New("want a 200 with 128 bytes"))
			}
		}
		for i := 0; i < 10; i++ { // the connection's buffers, the upstream connection
			once()
		}
		allocs := testing.AllocsPerRun(1000, once)
		if failure != nil {
			t.Fatal(failure)
		}
		method, _, _ := strings.Cut(string(request), " ")
		t.Logf("%.1f allocations per proxied %s", allocs, method)
		if allocs > maxAllocs {
			t.Fatalf("%.1f allocations per proxied %s on a kept-alive connection, budget %d", allocs, method, maxAllocs)
		}
		if s, e := proxy.Served(), proxy.Errors(); s != uint64(1011*(i+1)) || e != 0 { // AllocsPerRun runs once more to warm up
			t.Fatalf("served %d, errors %d; want %d and 0", s, e, 1011*(i+1))
		}
	}
}

// TestFrontWatchKeepsPipelinedRequests: bytes a client sends while its
// exchange runs (a pipelined request) end the watch without cancelling
// the exchange, and are served next. A client that goes away does cancel
// it: TestClientCancelFreesWorkerAndEndpoint.
func TestFrontWatchKeepsPipelinedRequests(t *testing.T) {
	release := make(chan struct{})
	p := startPeer(t, func(_, seq int, _ *http.Request, _ []byte) reply {
		if seq == 0 {
			<-release
		}
		return reply{raw: lengthReply(3)}
	})
	be := NewBackend("app1", p.url(), 2)
	proxy, err := StartProxy(ProxyConfig{Workers: 2, Policy: PolicyCurrentLoad, Mechanism: MechanismModified}, []*Backend{be})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = proxy.Close() }()
	addr := strings.TrimPrefix(proxy.URL(), "http://")

	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	_ = c.SetDeadline(time.Now().Add(5 * time.Second))
	_, _ = io.WriteString(c, "GET /a HTTP/1.1\r\nHost: p\r\n\r\n")
	if !within(time.Second, func() bool { return be.InFlight() == 1 }) {
		t.Fatal("the first request never reached the backend")
	}
	_, _ = io.WriteString(c, "GET /b HTTP/1.1\r\nHost: p\r\n\r\n") // pipelined behind it
	time.Sleep(20 * time.Millisecond)
	close(release)
	br := bufio.NewReader(c)
	for i := 0; i < 2; i++ {
		if status, n, err := readFrontReply(br); err != nil || status != http.StatusOK || n != 3 {
			t.Fatalf("reply %d: status %d, %d bytes, %v", i+1, status, n, err)
		}
	}

}

// TestFrontCloseWaitsForConnections: Close ends every client connection,
// idle or mid-exchange, and returns only when their goroutines have. An
// exchange with a pipelined request buffered behind it, which no peek
// watches, is cancelled too, well inside the attempt timeout.
func TestFrontCloseWaitsForConnections(t *testing.T) {
	hang := make(chan struct{})
	defer close(hang)
	p := startPeer(t, func(_, _ int, req *http.Request, _ []byte) reply {
		if req.URL.Path != "/a" {
			<-hang
		}
		return reply{raw: lengthReply(3)}
	})
	be := NewBackend("app1", p.url(), 4)
	proxy, err := StartProxy(ProxyConfig{Workers: 4, Policy: PolicyCurrentLoad, Mechanism: MechanismModified}, []*Backend{be})
	if err != nil {
		t.Fatal(err)
	}
	addr := strings.TrimPrefix(proxy.URL(), "http://")
	var conns []net.Conn
	for i := 0; i < 4; i++ {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = c.Close() }()
		conns = append(conns, c)
	}
	_, _ = io.WriteString(conns[0], "GET /a HTTP/1.1\r\nHost: p\r\n\r\n") // served, then idle
	if _, _, err := readFrontReply(bufio.NewReader(conns[0])); err != nil {
		t.Fatal(err)
	}
	_, _ = io.WriteString(conns[1], "GET /b HTTP/1.1\r\nHost: p\r\n\r\n") // hangs upstream
	if !within(time.Second, func() bool { return be.InFlight() == 1 }) {
		t.Fatal("the second request never reached the backend")
	}
	// Hangs upstream with the next request already in the read buffer.
	_, _ = io.WriteString(conns[2], "GET /c HTTP/1.1\r\nHost: p\r\n\r\nGET /d HTTP/1.1\r\nHost: p\r\n\r\n")
	if !within(time.Second, func() bool { return be.InFlight() == 2 }) {
		t.Fatal("the pipelined connection's request never reached the backend")
	}
	closed := make(chan struct{})
	go func() { _ = proxy.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not return")
	}
	proxy.front.mu.Lock()
	open := len(proxy.front.conns)
	proxy.front.mu.Unlock()
	if open != 0 || be.InFlight() != 0 {
		t.Fatalf("after Close: %d connections registered, %d requests in flight", open, be.InFlight())
	}
	for i, c := range conns {
		_ = c.SetReadDeadline(time.Now().Add(time.Second))
		if _, err := c.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("connection %d still open after Close: %v", i, err)
		}
	}
}

// countingListener counts the connections it accepted.
type countingListener struct {
	net.Listener
	accepted atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return c, err
}

// TestFrontBuffersReturnAfterGoroutines: a connection's read and write
// buffers go back to their pools once, and only when its watch goroutine
// has returned and its serve goroutine is returning, however the
// connection ends: the client closes it idle, asks for Connection: close,
// sends a head the front refuses, goes away mid-request, or the front is
// closed under it. One connection is open at a time, so the goroutine
// dump at the hand-back names its goroutines alone. Then many connections
// at once reuse the pooled buffers, which the race detector watches.
func TestFrontBuffersReturnAfterGoroutines(t *testing.T) {
	returned := make(chan string, 1)
	var returns atomic.Int64
	frontBuffersReturned = func(fc *frontConn) {
		returns.Add(1)
		buf := make([]byte, 1<<20)
		stacks := strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n")
		problem := ""
		switch {
		case !strings.Contains(stacks[0], "(*frontConn).serve("):
			problem = "buffers returned off the serve goroutine"
		case strings.Contains(strings.Join(stacks, "\n\n"), "(*frontConn).watch("):
			problem = "buffers returned while the watch goroutine runs"
		case strings.Contains(strings.Join(stacks[1:], "\n\n"), "(*frontConn).serve("):
			problem = "another serve goroutine is running"
		}
		select {
		case returned <- problem:
		default: // the concurrent part
		}
	}
	defer func() { frontBuffersReturned = nil }()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := &countingListener{Listener: ln}
	f := startFront(cl, func(fc *frontConn, h *requestHead) bool {
		if string(h.path) == "/wait" {
			<-fc.ctx.Done() // until the client goes away
			return false
		}
		fc.writeError(h, http.StatusOK, "ok")
		return true
	})
	closed := false
	defer func() {
		if !closed {
			_ = f.Close()
		}
	}()
	dial := func() (net.Conn, *bufio.Reader) {
		t.Helper()
		c, err := net.Dial("tcp", f.addr())
		if err != nil {
			t.Fatal(err)
		}
		_ = c.SetDeadline(time.Now().Add(5 * time.Second))
		return c, bufio.NewReader(c)
	}
	served := func(c net.Conn, br *bufio.Reader, head string) {
		t.Helper()
		_, _ = io.WriteString(c, head)
		if status, _, err := readFrontReply(br); err != nil || status != http.StatusOK {
			t.Fatalf("status %d, %v", status, err)
		}
	}
	wait := func(how string) {
		t.Helper()
		select {
		case problem := <-returned:
			if problem != "" {
				t.Fatalf("%s: %s", how, problem)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: the buffers never went back", how)
		}
	}

	c, br := dial()
	served(c, br, "GET / HTTP/1.1\r\nHost: f\r\n\r\n")
	_ = c.Close()
	wait("closed idle")

	c, br = dial()
	served(c, br, "GET / HTTP/1.1\r\nHost: f\r\nConnection: close\r\n\r\n")
	wait("Connection: close")
	_ = c.Close()

	c, _ = dial()
	_, _ = io.WriteString(c, "GET / HTTP/1.1\r\n\r\n") // no Host
	wait("refused head")
	_ = c.Close()

	c, _ = dial()
	_, _ = io.WriteString(c, "GET /wait HTTP/1.1\r\nHost: f\r\n\r\n")
	time.Sleep(20 * time.Millisecond)
	_ = c.Close()
	wait("client gone mid-request")

	c, br = dial()
	served(c, br, "GET / HTTP/1.1\r\nHost: f\r\n\r\n")
	go func() { _ = f.Close() }()
	wait("front closed")
	_ = c.Close()
	closed = true
	if n, m := returns.Load(), cl.accepted.Load(); n != m {
		t.Fatalf("%d connections accepted, %d returned their buffers", m, n)
	}

	// Many connections at once, each with a few requests.
	ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl = &countingListener{Listener: ln}
	returns.Store(0)
	f = startFront(cl, func(fc *frontConn, h *requestHead) bool {
		fc.writeError(h, http.StatusOK, "ok")
		return true
	})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				c, err := net.Dial("tcp", f.addr())
				if err != nil {
					t.Error(err)
					return
				}
				br := bufio.NewReader(c)
				for k := 0; k < 3; k++ {
					_, _ = io.WriteString(c, "GET / HTTP/1.1\r\nHost: f\r\n\r\n")
					if status, _, err := readFrontReply(br); err != nil || status != http.StatusOK {
						t.Errorf("status %d, %v", status, err)
					}
				}
				_ = c.Close()
			}
		}()
	}
	wg.Wait()
	_ = f.Close()
	if n, m := returns.Load(), cl.accepted.Load(); n != m || m != 80 {
		t.Fatalf("%d connections accepted (want 80), %d returned their buffers", m, n)
	}
}
