package httpcluster

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"
)

// defaultAttemptTimeout bounds one upstream exchange — round trip and
// body read — when Resilience sets no AttemptTimeout.
const defaultAttemptTimeout = 10 * time.Second

// newPooledTransport returns a transport that keeps up to idlePerHost
// idle keep-alive connections per host. Every inter-tier client owns
// one, sized to the concurrency of the hop it serves, so a steady load
// reuses connections the way mod_jk reuses its persistent endpoints;
// http.DefaultTransport keeps two per host and dials for the rest.
func newPooledTransport(idlePerHost int) *http.Transport {
	if idlePerHost < 1 {
		idlePerHost = 1
	}
	return &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 30 * time.Second, KeepAlive: 30 * time.Second}).DialContext,
		MaxIdleConnsPerHost: idlePerHost,
		IdleConnTimeout:     90 * time.Second,
	}
}

// NewUpstreamTransport returns the transport StartProxy builds for
// itself when ProxyConfig.Transport is nil: one idle connection per
// endpoint of the largest backend pool. It is exported for callers that
// wrap the upstream hop (internal/faults' Transport) and still want the
// pooled base; whoever calls it owns the transport and closes its idle
// connections.
func NewUpstreamTransport(backends []*Backend) *http.Transport {
	idle := 0
	for _, be := range backends {
		if be.capacity > idle {
			idle = be.capacity
		}
	}
	return newPooledTransport(idle)
}

// roundTrip performs one upstream attempt: GET <backend><path>, no
// body, sent straight through the transport. The attempt is bound to the
// client's context, so a client that disconnects frees its worker slot
// and endpoint at once, and carries a single deadline that covers the
// body read as well — the response body keeps the context alive until
// closed.
func (p *Proxy) roundTrip(r *http.Request, be *Backend) (*http.Response, error) {
	if be.target == nil {
		return nil, fmt.Errorf("httpcluster: backend %s: unparseable URL %q", be.name, be.url)
	}
	u := *be.target
	u.Path += r.URL.Path
	ctx, cancel := context.WithTimeout(r.Context(), p.attemptTimeout)
	req := (&http.Request{
		Method: http.MethodGet,
		URL:    &u,
		Host:   u.Host,
		Header: make(http.Header),
	}).WithContext(ctx)
	resp, err := p.upstream.RoundTrip(req)
	if err != nil {
		cancel()
		return nil, err
	}
	resp.Body = &cancelBody{ReadCloser: resp.Body, cancel: cancel}
	return resp, nil
}

// cancelBody releases the attempt context when the response body is
// closed, so the deadline governs the full body read.
type cancelBody struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (b *cancelBody) Close() error {
	err := b.ReadCloser.Close()
	b.cancel()
	return err
}
