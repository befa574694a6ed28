package httpcluster

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var updateFront = flag.Bool("update-front", false, "rewrite testdata/front/replies.golden from the current output")

// frontScript is one raw exchange with the proxy: bytes written in one
// go, the number of replies to read, and whether the first request was a
// HEAD.
type frontScript struct {
	name    string
	raw     string
	replies int
	head    bool
}

const goldenHost = "Host: proxy\r\n"

var frontScripts = []frontScript{
	{name: "get-origin", raw: "GET /x HTTP/1.1\r\n" + goldenHost + "\r\n", replies: 1},
	{name: "get-query", raw: "GET /q?x=1&y=2 HTTP/1.1\r\n" + goldenHost + "\r\n", replies: 1},
	{name: "get-escaped-slash", raw: "GET /a%2Fb HTTP/1.1\r\n" + goldenHost + "\r\n", replies: 1},
	{name: "get-absolute-form", raw: "GET http://example.com/abs?x=1 HTTP/1.1\r\n" + goldenHost + "\r\n", replies: 1},
	{name: "head", raw: "HEAD /x HTTP/1.1\r\n" + goldenHost + "\r\n", replies: 1, head: true},
	{name: "post-length", raw: "POST /x HTTP/1.1\r\n" + goldenHost + "Content-Length: 5\r\n\r\nhello", replies: 1},
	{name: "post-chunked", raw: "POST /x HTTP/1.1\r\n" + goldenHost + "Transfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n3\r\nabc\r\n0\r\n\r\n", replies: 1},
	{name: "expect-continue", raw: "POST /x HTTP/1.1\r\n" + goldenHost + "Expect: 100-continue\r\nContent-Length: 5\r\n\r\nhello", replies: 1},
	{name: "http10", raw: "GET /x HTTP/1.0\r\n\r\n", replies: 1},
	{name: "http10-keep-alive", raw: "GET /x HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", replies: 1},
	{name: "connection-close", raw: "GET /x HTTP/1.1\r\n" + goldenHost + "Connection: close\r\n\r\n", replies: 1},
	{name: "pipelined", raw: "GET /x HTTP/1.1\r\n" + goldenHost + "\r\nGET /y HTTP/1.1\r\n" + goldenHost + "\r\n", replies: 2},
	{name: "sticky-priority", raw: "GET /x HTTP/1.1\r\n" + goldenHost + "Cookie: a=1; JSESSIONID=s1\r\nX-Priority: background\r\n\r\n", replies: 1},
	{name: "big-length", raw: "GET /big HTTP/1.1\r\n" + goldenHost + "\r\n", replies: 1},
	{name: "big-chunked", raw: "GET /stream HTTP/1.1\r\n" + goldenHost + "\r\n", replies: 1},
	{name: "big-http10", raw: "GET /big HTTP/1.0\r\n\r\n", replies: 1},
	{name: "head-big", raw: "HEAD /big HTTP/1.1\r\n" + goldenHost + "\r\n", replies: 1, head: true},
	{name: "upstream-404", raw: "GET /missing HTTP/1.1\r\n" + goldenHost + "\r\n", replies: 1},
	{name: "malformed-request-line", raw: "GARBAGE\r\n\r\n", replies: 1},
	{name: "unsupported-version", raw: "GET /x HTTP/2.0\r\n" + goldenHost + "\r\n", replies: 1},
	{name: "missing-host", raw: "GET /x HTTP/1.1\r\n\r\n", replies: 1},
	{name: "oversized-head-line", raw: "GET /x HTTP/1.1\r\n" + goldenHost + "X-Pad: " + strings.Repeat("p", 5000) + "\r\n\r\n", replies: 1},
	{name: "admin-unknown", raw: "GET /admin/x HTTP/1.1\r\n" + goldenHost + "\r\n", replies: 1},
}

// frontDifference is one line of the golden the proxy's own front answers
// differently from the net/http server it replaced, and why.
type frontDifference struct {
	script, line string // the line's script and its key, as the golden prints them
	was, now     string
	why          string
}

var frontDifferences = []frontDifference{
	{"big-length", "1 framing", "chunked", "length 4096",
		"the reply keeps the upstream's Content-Length; net/http chunked any reply over its 2 KiB buffer"},
	{"big-http10", "1 framing", "none", "length 4096",
		"the same, where net/http could only close the connection to end the body"},
	{"head-big", "1 framing", "none", "length 4096",
		"a HEAD reply names the length a GET would carry; net/http knew none past its 2 KiB buffer"},
	{"oversized-head-line", "1 status", "HTTP/1.1 200 OK", "HTTP/1.1 431 Request Header Fields Too Large",
		"a head line must fit the 4 KiB read buffer; net/http allowed a 1 MB head"},
	{"oversized-head-line", "1 framing", "length 128", "none", "an error reply ends with the connection"},
	{"oversized-head-line", "1 connection", "", "close", "the connection closes after a rejected head"},
	{"oversized-head-line", "1 x-backend", "app1", "", "the request was never forwarded"},
	{"oversized-head-line", "1 body", "128", "35", `the body is "431 Request Header Fields Too Large"`},
	{"oversized-head-line", "kept", "yes", "no", "the connection closes after a rejected head"},
}

// goldenBackend serves 128 bytes of 'x' with a Content-Length, 4 KiB with
// one (/big) or chunked (/stream), and a 404 at /missing.
func goldenBackend(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/big":
		w.Header().Set("Content-Length", "4096")
		_, _ = w.Write([]byte(strings.Repeat("x", 4096)))
	case "/stream":
		_, _ = w.Write([]byte(strings.Repeat("x", 4096)))
	case "/missing":
		http.NotFound(w, r)
	default:
		_, _ = w.Write([]byte(strings.Repeat("x", 128)))
	}
}

// runFrontScript writes s to a fresh connection and records each reply's
// status line, framing, Connection, X-Backend, Content-Type and body
// length, then whether the proxy kept the connection open.
func runFrontScript(addr string, s frontScript) (string, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return "", err
	}
	defer func() { _ = c.Close() }()
	_ = c.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.WriteString(c, s.raw); err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s\n", s.name)
	br := bufio.NewReader(c)
	method := http.MethodGet
	if s.head {
		method = http.MethodHead
	}
	for i := 1; i <= s.replies; i++ {
		resp, err := http.ReadResponse(br, &http.Request{Method: method})
		if err != nil {
			return "", fmt.Errorf("reply %d: %w", i, err)
		}
		framing := "none"
		switch {
		case len(resp.TransferEncoding) > 0:
			framing = strings.Join(resp.TransferEncoding, ",")
		case resp.Header.Get("Content-Length") != "":
			framing = "length " + resp.Header.Get("Content-Length")
		}
		n, err := io.Copy(io.Discard, resp.Body)
		body := fmt.Sprint(n)
		if err != nil {
			body += " (cut)"
		}
		fmt.Fprintf(&b, "%d status: %s %s\n", i, resp.Proto, resp.Status)
		fmt.Fprintf(&b, "%d framing: %s\n", i, framing)
		conn := resp.Header.Get("Connection") // net/http takes a "close" out and sets Close
		if resp.Close {
			conn = strings.TrimSpace(conn + " close")
		}
		fmt.Fprintf(&b, "%d connection: %s\n", i, conn)
		fmt.Fprintf(&b, "%d x-backend: %s\n", i, resp.Header.Get("X-Backend"))
		fmt.Fprintf(&b, "%d content-type: %s\n", i, resp.Header.Get("Content-Type"))
		fmt.Fprintf(&b, "%d body: %s\n", i, body)
	}
	_ = c.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
	kept := "no"
	if _, err := br.ReadByte(); err == nil {
		kept = "extra bytes"
	} else if errors.Is(err, os.ErrDeadlineExceeded) {
		kept = "yes"
	}
	fmt.Fprintf(&b, "kept: %s\n", kept)
	return b.String(), nil
}

// applyDifferences rewrites the golden's lines as the proxy's front
// answers them, and fails if the golden no longer holds a listed line.
func applyDifferences(t *testing.T, golden string) string {
	t.Helper()
	blocks := strings.SplitAfter(golden, "\n== ")
	for _, d := range frontDifferences {
		found := false
		for i, blk := range blocks {
			if !strings.HasPrefix(strings.TrimPrefix(blk, "== "), d.script+"\n") {
				continue
			}
			was := "\n" + d.line + ": " + d.was + "\n"
			if !strings.Contains(blk, was) {
				break
			}
			blocks[i] = strings.Replace(blk, was, "\n"+d.line+": "+d.now+"\n", 1)
			found = true
		}
		if !found {
			t.Errorf("listed difference %s %q: the golden has no %q", d.script, d.line, d.was)
		}
	}
	return strings.Join(blocks, "")
}

// TestFrontRepliesGolden pins what a client sees of the proxy's replies —
// status line, framing, Connection, X-Backend, Content-Type, body length,
// and whether the connection stays open — over raw-socket scripts. The
// golden was recorded against net/http's server in front of the proxy,
// before the proxy read its own requests; the front must answer the same,
// apart from frontDifferences.
func TestFrontRepliesGolden(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(goldenBackend))
	defer backend.Close()
	proxy, err := StartProxy(ProxyConfig{Workers: 4, Policy: PolicyCurrentLoad, Mechanism: MechanismModified},
		[]*Backend{NewBackend("app1", backend.URL, 4)})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = proxy.Close() }()
	addr := strings.TrimPrefix(proxy.URL(), "http://")

	got := make([]string, len(frontScripts))
	t.Run("scripts", func(t *testing.T) {
		for i, s := range frontScripts {
			i, s := i, s
			t.Run(s.name, func(t *testing.T) {
				t.Parallel()
				rec, err := runFrontScript(addr, s)
				if err != nil {
					t.Fatal(err)
				}
				got[i] = rec
			})
		}
	})
	if t.Failed() {
		return
	}
	out := strings.Join(got, "")
	path := filepath.Join("testdata", "front", "replies.golden")
	if *updateFront {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := applyDifferences(t, string(golden)); out != want {
		t.Errorf("replies differ from %s and its listed differences\n got:\n%s\nwant:\n%s", path, out, want)
	}
}
