package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptrace"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Tracing lives entirely in bench/: spans are recorded around the calls
// into the layers, kept in memory, and written as JSON Lines when the
// run ends. Spans inside the engine or inside Proxy.handle are a later
// issue.

// span is one line of the span file.
type span struct {
	Name    string `json:"name"`
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// spanFileRequests caps how many requests' spans reach the span file;
// the per-layer numbers still use every traced request.
const spanFileRequests = 20000

// reqTrace is one HTTP request's timeline, indexed by the request id the
// generator put in the URL path. The client half is written by the
// generator goroutine that owns the request; the upstream half by the
// proxy goroutine serving it, hence atomics there. Times are nanoseconds
// since the tracer's epoch; 0 means the event did not happen.
type reqTrace struct {
	viaProxy bool
	reused   bool
	start    int64
	getConn  int64
	gotConn  int64
	end      int64
	// net/http calls these two hooks from the connection's own
	// goroutines.
	wrote atomic.Int64
	first atomic.Int64

	upStart   atomic.Int64 // last attempt
	upGetConn atomic.Int64
	upGotConn atomic.Int64
	upWrote   atomic.Int64
	upFirst   atomic.Int64
	upEnd     atomic.Int64
	upTotalNs atomic.Int64 // summed over attempts
	upTrips   atomic.Int32
	upDials   atomic.Int32
}

// tracer owns the per-request records of one traced phase.
type tracer struct {
	epoch time.Time
	recs  []reqTrace
	next  atomic.Int64
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), recs: make([]reqTrace, capacity)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// claim hands out the next record and its request id; nil once the
// preallocated records are used up (the request then runs untraced).
func (t *tracer) claim() (*reqTrace, int64) {
	id := t.next.Add(1) - 1
	if id >= int64(len(t.recs)) {
		return nil, id
	}
	return &t.recs[id], id
}

func (t *tracer) used() []reqTrace {
	n := t.next.Load()
	if n > int64(len(t.recs)) {
		n = int64(len(t.recs))
	}
	return t.recs[:n]
}

// requestPath carries the request id to the proxy's upstream side:
// Proxy.roundTrip preserves the URL path.
func requestPath(id int64) string { return "/r/" + strconv.FormatInt(id, 10) }

func parseRequestPath(path string) (int64, bool) {
	rest, ok := strings.CutPrefix(path, "/r/")
	if !ok {
		return 0, false
	}
	id, err := strconv.ParseInt(rest, 10, 64)
	return id, err == nil
}

// clientTrace returns the httptrace hooks that fill rec's client half.
func (t *tracer) clientTrace(rec *reqTrace) *httptrace.ClientTrace {
	return &httptrace.ClientTrace{
		GetConn: func(string) { rec.getConn = t.now() },
		GotConn: func(info httptrace.GotConnInfo) {
			rec.gotConn = t.now()
			rec.reused = info.Reused
		},
		WroteRequest:         func(httptrace.WroteRequestInfo) { rec.wrote.Store(t.now()) },
		GotFirstResponseByte: func() { rec.first.Store(t.now()) },
	}
}

// tracingTransport is the bench-owned RoundTripper handed to the proxy as
// ProxyConfig.Transport in a traced run. It wraps http.DefaultTransport —
// what the proxy uses when the field is nil — so pooling behaviour is
// unchanged, and recovers the request's record from the id in the URL
// path. Probe requests (/admin/probe) pass through untouched.
type tracingTransport struct {
	base http.RoundTripper
	t    *tracer
}

func (tt *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id, ok := parseRequestPath(req.URL.Path)
	if !ok || id < 0 || id >= int64(len(tt.t.recs)) {
		return tt.base.RoundTrip(req)
	}
	rec := &tt.t.recs[id]
	ct := &httptrace.ClientTrace{
		GetConn: func(string) { rec.upGetConn.Store(tt.t.now()) },
		GotConn: func(info httptrace.GotConnInfo) {
			rec.upGotConn.Store(tt.t.now())
			if !info.Reused {
				rec.upDials.Add(1)
			}
		},
		WroteRequest:         func(httptrace.WroteRequestInfo) { rec.upWrote.Store(tt.t.now()) },
		GotFirstResponseByte: func() { rec.upFirst.Store(tt.t.now()) },
	}
	req = req.WithContext(httptrace.WithClientTrace(req.Context(), ct))
	start := tt.t.now()
	rec.upStart.Store(start)
	resp, err := tt.base.RoundTrip(req)
	end := tt.t.now()
	rec.upEnd.Store(end)
	rec.upTotalNs.Add(end - start)
	rec.upTrips.Add(1)
	return resp, err
}

// CloseIdleConnections lets http.Client.CloseIdleConnections reach the
// wrapped transport.
func (tt *tracingTransport) CloseIdleConnections() {
	if ci, ok := tt.base.(interface{ CloseIdleConnections() }); ok {
		ci.CloseIdleConnections()
	}
}

// spans expands the first spanFileRequests records into the span tree
// client.request → {client.get_conn, client.ttfb, client.read_body,
// upstream.roundtrip → {upstream.get_conn, upstream.ttfb}}.
func (t *tracer) spans() []span {
	recs := t.used()
	if len(recs) > spanFileRequests {
		recs = recs[:spanFileRequests]
	}
	out := make([]span, 0, len(recs)*7)
	add := func(name string, id, parent uint64, start, end int64) {
		if start > 0 && end >= start {
			out = append(out, span{Name: name, ID: id, Parent: parent, StartNs: start, EndNs: end})
		}
	}
	for i := range recs {
		r := &recs[i]
		if r.end == 0 {
			continue // claimed but never completed
		}
		base := uint64(i+1) * 8
		add("client.request", base, 0, r.start, r.end)
		add("client.get_conn", base+1, base, r.getConn, r.gotConn)
		add("client.ttfb", base+2, base, r.wrote.Load(), r.first.Load())
		add("client.read_body", base+3, base, r.first.Load(), r.end)
		if r.upTrips.Load() > 0 {
			add("upstream.roundtrip", base+4, base, r.upStart.Load(), r.upEnd.Load())
			add("upstream.get_conn", base+5, base+4, r.upGetConn.Load(), r.upGotConn.Load())
			add("upstream.ttfb", base+6, base+4, r.upWrote.Load(), r.upFirst.Load())
		}
	}
	return out
}

// writeSpans writes spans as JSON Lines to dir/name and returns the path.
func writeSpans(dir, name string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			_ = f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return "", err
	}
	return path, f.Close()
}
