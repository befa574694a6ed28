package httpcluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"
)

// defaultAttemptTimeout bounds one upstream exchange — round trip and
// body read — when Resilience sets no AttemptTimeout.
const defaultAttemptTimeout = 10 * time.Second

// roundTrip performs one upstream attempt: GET <backend path><request
// path>, no body, and returns the reply's status, its body and the body's
// length (-1 when unknown); the caller closes the body. The deadline
// covers the body read as well as the wait for the header.
//
// On the proxy's own transport (an *UpstreamTransport) the attempt is a
// forward on the caller's slot s: the deadline goes to the socket and the
// slot's abort ends the exchange, so a client that disconnects frees its
// worker slot and endpoint at once, and a reused connection allocates
// nothing. Any other http.RoundTripper can learn a deadline only from a
// context, so that arm sends an *http.Request under a context derived
// from ctx with the deadline, released when the body is closed; it trusts
// a reply's ContentLength only when it is positive, as a hand-built reply
// often leaves it zero.
func (p *Proxy) roundTrip(ctx context.Context, s *exchangeSlot, path []byte, be *Backend, deadline time.Time) (status int, length int64, body io.ReadCloser, err error) {
	base := be.target
	if base == nil {
		return 0, 0, nil, fmt.Errorf("httpcluster: backend %s: unparseable URL %q", be.name, be.url)
	}
	if ut, ok := p.upstream.(*UpstreamTransport); ok {
		return ut.forward(ctx, s, deadline, base, path)
	}
	decoded, err := url.PathUnescape(string(path))
	if err != nil { // the front parsed it
		decoded = string(path)
	}
	ctx, cancel := context.WithDeadline(ctx, deadline)
	// The request-URI as escaped on the wire, so an encoded slash stays
	// encoded. The query is not forwarded.
	uri := base.EscapedPath() + string(path)
	if uri == "" {
		uri = "/"
	}
	u := &url.URL{Scheme: base.Scheme, Host: base.Host, Path: base.Path + decoded, RawPath: uri}
	req := (&http.Request{Method: http.MethodGet, URL: u, Host: u.Host, Header: make(http.Header)}).WithContext(ctx)
	resp, err := p.upstream.RoundTrip(req)
	if err != nil {
		cancel()
		return 0, 0, nil, err
	}
	length = resp.ContentLength
	if length == 0 {
		length = -1
	}
	return resp.StatusCode, length, &cancelBody{ReadCloser: resp.Body, cancel: cancel}, nil
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
