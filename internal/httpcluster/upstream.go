package httpcluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"time"
)

// defaultAttemptTimeout bounds one upstream exchange — round trip and
// body read — when Resilience sets no AttemptTimeout.
const defaultAttemptTimeout = 10 * time.Second

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
