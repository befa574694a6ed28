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
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// netHTTPDBStub is the DB stub as it was on net/http: its one mux entry,
// served with newServer's settings.
func netHTTPDBStub(t *testing.T) string {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/query", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, `{"rows":1}`)
	})
	srv := httptest.NewUnstartedServer(nil)
	srv.Config = newServer(mux)
	srv.Start()
	t.Cleanup(srv.Close)
	return srv.Listener.Addr().String()
}

const dbHost = "Host: db\r\n"

var dbScripts = []frontScript{
	{name: "get", raw: "GET /query HTTP/1.1\r\n" + dbHost + "\r\n", replies: 1},
	{name: "get-query-string", raw: "GET /query?id=7 HTTP/1.1\r\n" + dbHost + "\r\n", replies: 1},
	{name: "post-length", raw: "POST /query HTTP/1.1\r\n" + dbHost + "Content-Length: 5\r\n\r\nhello", replies: 1},
	{name: "post-chunked", raw: "POST /query HTTP/1.1\r\n" + dbHost + "Transfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n3\r\nabc\r\n0\r\n\r\n", replies: 1},
	{name: "head", raw: "HEAD /query HTTP/1.1\r\n" + dbHost + "\r\n", replies: 1, head: true},
	{name: "unknown-path", raw: "GET /tables HTTP/1.1\r\n" + dbHost + "\r\n", replies: 1},
	{name: "http10", raw: "GET /query HTTP/1.0\r\n\r\n", replies: 1},
	{name: "http10-keep-alive", raw: "GET /query HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", replies: 1},
	{name: "connection-close", raw: "GET /query HTTP/1.1\r\n" + dbHost + "Connection: close\r\n\r\n", replies: 1},
	{name: "pipelined", raw: "GET /query HTTP/1.1\r\n" + dbHost + "\r\nGET /query HTTP/1.1\r\n" + dbHost + "\r\n", replies: 2},
	{name: "malformed-request-line", raw: "GARBAGE\r\n\r\n", replies: 1},
	{name: "field-name-with-space", raw: "GET /query HTTP/1.1\r\n" + dbHost + "Bad Field: x\r\n\r\n", replies: 1},
	{name: "expect-continue", raw: "POST /query HTTP/1.1\r\n" + dbHost + "Expect: 100-continue\r\nContent-Length: 5\r\n\r\nhello", replies: 1},
	{name: "absolute-form", raw: "GET http://db/query HTTP/1.1\r\n" + dbHost + "\r\n", replies: 1},
	{name: "trailing-slash", raw: "GET /query/ HTTP/1.1\r\n" + dbHost + "\r\n", replies: 1},
	{name: "unclean-path", raw: "GET //query HTTP/1.1\r\n" + dbHost + "\r\n", replies: 1},
	{name: "escaped-path", raw: "GET /%71uery HTTP/1.1\r\n" + dbHost + "\r\n", replies: 1},
	{name: "options-star", raw: "OPTIONS * HTTP/1.1\r\n" + dbHost + "\r\n", replies: 1},
	{name: "oversized-head-line", raw: "GET /query HTTP/1.1\r\n" + dbHost + "X-Pad: " + strings.Repeat("p", 5000) + "\r\n\r\n", replies: 1},
}

// dbNotFoundReply is the stub's reply to a path it does not serve, as
// rawReplies records it.
const dbNotFoundReply = "HTTP/1.1 404 Not Found\r\nContent-Type: text/plain; charset=utf-8\r\nX-Content-Type-Options: nosniff\r\nDate: -\r\nContent-Length: 19\r\n\r\n404 page not found\n\n[kept]"

// dbDifferences are the scripts the stub answers otherwise than the
// net/http mux it replaced: what it answers, and why.
var dbDifferences = map[string]struct{ now, why string }{
	"unclean-path": {dbNotFoundReply,
		"net/http's mux redirects a path it would clean (a 301 to /query); the stub serves /query as sent"},
	"escaped-path": {dbNotFoundReply,
		"net/http's mux matches the unescaped path; the stub matches the path as sent"},
	"options-star": {dbNotFoundReply,
		"net/http's server answers OPTIONS * itself, a 200 with no body"},
	"oversized-head-line": {"HTTP/1.1 431 Request Header Fields Too Large\r\nContent-Type: text/plain; charset=utf-8\r\nConnection: close\r\n\r\n431 Request Header Fields Too Large\n[closed]",
		"a head line must fit the 4 KiB read buffer; net/http allowed a 1 MB head"},
	"field-name-with-space": {"HTTP/1.1 400 Bad Request\r\nContent-Type: text/plain; charset=utf-8\r\nConnection: close\r\n\r\n400 Bad Request\n[closed]",
		"the codec's 400 for a malformed field line carries no detail; net/http's names the invalid header name"},
}

var dateField = regexp.MustCompile("\r\nDate: [^\r]*\r\n")

// rawReplies writes s to a fresh connection and returns every byte that
// came back, Date masked, then whether the server kept the connection.
func rawReplies(addr string, s frontScript) (string, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return "", err
	}
	defer func() { _ = c.Close() }()
	_ = c.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.WriteString(c, s.raw); err != nil {
		return "", err
	}
	var raw bytes.Buffer
	br := bufio.NewReader(io.TeeReader(c, &raw))
	method := http.MethodGet
	if s.head {
		method = http.MethodHead
	}
	for i := 1; i <= s.replies; i++ {
		resp, err := http.ReadResponse(br, &http.Request{Method: method})
		if err != nil {
			return "", fmt.Errorf("reply %d: %w", i, err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return "", fmt.Errorf("reply %d body: %w", i, err)
		}
	}
	_ = c.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
	kept := "closed"
	if _, err := br.ReadByte(); err == nil {
		kept = "extra bytes"
	} else if errors.Is(err, os.ErrDeadlineExceeded) {
		kept = "kept"
	}
	return dateField.ReplaceAllString(raw.String(), "\r\nDate: -\r\n") + "\n[" + kept + "]", nil
}

// TestDBStubMatchesNetHTTP holds the DB stub to the net/http mux it
// replaced, byte for byte apart from Date's value, reply by reply, and
// whether the connection stays open, apart from dbDifferences: there it
// must answer as listed, and net/http otherwise.
func TestDBStubMatchesNetHTTP(t *testing.T) {
	db, err := StartDBServer(time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.Close() }) // after the parallel scripts
	stub, parent := strings.TrimPrefix(db.URL(), "http://"), netHTTPDBStub(t)
	for _, s := range dbScripts {
		s := s
		t.Run(s.name, func(t *testing.T) {
			t.Parallel()
			want, err := rawReplies(parent, s)
			if err != nil {
				t.Fatalf("net/http: %v", err)
			}
			got, err := rawReplies(stub, s)
			if err != nil {
				t.Fatalf("stub: %v", err)
			}
			if d, ok := dbDifferences[s.name]; ok {
				if got != d.now || want == d.now {
					t.Errorf("listed difference (%s): stub answered\n%q\nwant\n%q\nnet/http answered\n%q", d.why, got, d.now, want)
				}
			} else if got != want {
				t.Errorf("stub answered\n%q\nnet/http answered\n%q", got, want)
			}
		})
	}
}

// TestDBQueryAllocs: one query on a kept-alive connection through the
// tiers' hop (forward) to the DB stub, both in this process, allocates the
// exchange's own three objects (TestForwardAllocs) and nothing of the
// stub's. On net/http's server the stub added 14.
func TestDBQueryAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation guard: the race detector's runs use -short and allocate differently")
	}
	const maxAllocs = 3
	db, err := StartDBServer(time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = db.Close() }()
	tr := newUpstreamTransport(1)
	defer tr.CloseIdleConnections()
	u := mustParse(t, db.URL()+"/query")
	ctx, cancel := context.WithCancel(context.Background()) // cancellable, as a server request's is
	defer cancel()
	var buf [64]byte
	var failure error
	once := func() {
		status, length, body, err := tr.forward(ctx, time.Now().Add(5*time.Second), u, u.RequestURI())
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
		if err != io.EOF || status != http.StatusOK || length != int64(len(dbReply)) || string(buf[:n]) != dbReply {
			failure = fmt.Errorf("status %d, length %d, body %q, %v", status, length, buf[:n], err)
		}
	}
	for i := 0; i < 10; i++ { // the stub's connection goroutines and buffers
		once()
	}
	allocs := testing.AllocsPerRun(1000, once)
	if failure != nil {
		t.Fatal(failure)
	}
	t.Logf("%.1f allocations per query", allocs)
	if allocs > maxAllocs {
		t.Fatalf("%.1f allocations per query on a kept-alive connection, budget %d", allocs, maxAllocs)
	}
	if q := db.Queries(); q != 1011 { // AllocsPerRun runs once more to warm up
		t.Fatalf("%d queries served, want 1011", q)
	}
}
