package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"sync/atomic"
	"time"
)

// The bench owns its load generator: httpcluster.RunLoad is part of the
// program under test, and a generator whose cost is invisible to the
// numbers could also distort them.

// target is where requests go and what a correct reply looks like.
type target struct {
	url      string
	viaProxy bool
	bodyLen  int
	// backends maps the configured backend names to their index; a
	// reply through the proxy must name one in X-Backend.
	backends map[string]int
}

// reqPlan is one request's generated inputs.
type reqPlan struct {
	post    bool
	session int // index into sessionIDs, -1 for none
}

var plainGET = reqPlan{session: -1}

// errIncorrect marks a reply that is wrong rather than failed: the run
// is invalid. A refused or failed request (non-200, transport error) is
// counted in failed and the run stays valid.
var errIncorrect = errors.New("incorrect response")

// generator is the state the clients of one phase share.
type generator struct {
	tr       *tracer      // nil when untraced
	ids      atomic.Int64 // request ids of an untraced phase
	postBody []byte
}

// untracedIDBase keeps the request ids of an untraced generator (warm-up
// included) clear of a tracer's record indices, so the tracing transport
// never takes them for traced requests.
const untracedIDBase = 1 << 40

func newGenerator(tr *tracer) *generator {
	g := &generator{tr: tr, postBody: bytes.Repeat([]byte("b"), 2048)}
	g.ids.Store(untracedIDBase)
	return g
}

// newHTTPClient returns a client with a transport of its own, so each
// closed-loop client keeps its own keep-alive connection.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// do sends one request and verifies the reply. backend is the index of
// the backend the proxy named (-1 on the direct arm or on failure).
func (g *generator) do(hc *http.Client, t *target, p reqPlan) (lat time.Duration, backend int, err error) {
	var rec *reqTrace
	var id int64
	if g.tr != nil {
		rec, id = g.tr.claim()
	} else {
		id = g.ids.Add(1) - 1
	}
	method, body := http.MethodGet, io.Reader(nil)
	if p.post {
		method, body = http.MethodPost, bytes.NewReader(g.postBody)
	}
	ctx := context.Background()
	if rec != nil {
		rec.viaProxy = t.viaProxy
		ctx = httptrace.WithClientTrace(ctx, g.tr.clientTrace(rec))
	}
	req, err := http.NewRequestWithContext(ctx, method, t.url+requestPath(id), body)
	if err != nil {
		return 0, -1, err
	}
	if p.session >= 0 {
		req.AddCookie(&http.Cookie{Name: "JSESSIONID", Value: sessionIDs[p.session]})
	}
	start := time.Now()
	if rec != nil {
		rec.start = g.tr.now()
	}
	resp, err := hc.Do(req)
	if err != nil {
		return time.Since(start), -1, err
	}
	n, copyErr := io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	lat = time.Since(start)
	if rec != nil {
		rec.end = g.tr.now()
	}
	if copyErr != nil {
		return lat, -1, copyErr
	}
	if resp.StatusCode != http.StatusOK {
		return lat, -1, fmt.Errorf("status %d", resp.StatusCode)
	}
	if n != int64(t.bodyLen) {
		return lat, -1, fmt.Errorf("%w: body of %d bytes, want %d", errIncorrect, n, t.bodyLen)
	}
	backend = -1
	if t.viaProxy {
		name := resp.Header.Get("X-Backend")
		idx, ok := t.backends[name]
		if !ok {
			return lat, -1, fmt.Errorf("%w: X-Backend %q names no configured backend", errIncorrect, name)
		}
		backend = idx
	}
	return lat, backend, nil
}

// sessionIDs are the 64 JSESSIONID values of the sticky share of
// proxy_mbneck's request mix.
var sessionIDs = func() []string {
	ids := make([]string, 64)
	for i := range ids {
		ids[i] = fmt.Sprintf("sess-%02d", i)
	}
	return ids
}()

// tally accumulates the verdicts of one client's requests.
type tally struct {
	attempted int64
	failed    int64
	withinSLO int64
	incorrect error // first incorrect reply, if any
}

func (t *tally) note(lat, limit time.Duration, err error) {
	t.attempted++
	switch {
	case err == nil:
		if lat <= limit {
			t.withinSLO++
		}
	case errors.Is(err, errIncorrect):
		if t.incorrect == nil {
			t.incorrect = err
		}
		t.failed++
	default:
		t.failed++
	}
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.withinSLO += o.withinSLO
	if t.incorrect == nil {
		t.incorrect = o.incorrect
	}
}
