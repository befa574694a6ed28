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
// path>, no body, and returns the reply's status and its body, which the
// caller closes. The attempt deadline, now + attemptTimeout, covers the
// body read as well as the wait for the header.
//
// On the proxy's own transport (an *UpstreamTransport) the attempt is a
// forward under the client's context: the deadline goes to the socket and
// the context's AfterFunc aborts the exchange, so a client that
// disconnects frees its worker slot and endpoint at once, and nothing is
// built per attempt but the body. Any other http.RoundTripper can learn a
// deadline only from a context, so that arm sends an *http.Request under a
// context derived from the client's with the deadline, released when the
// body is closed.
func (p *Proxy) roundTrip(r *http.Request, be *Backend) (int, io.ReadCloser, error) {
	base := be.target
	if base == nil {
		return 0, nil, fmt.Errorf("httpcluster: backend %s: unparseable URL %q", be.name, be.url)
	}
	uri := forwardURI(base, r.URL)
	deadline := time.Now().Add(p.attemptTimeout)
	if ut, ok := p.upstream.(*UpstreamTransport); ok {
		return ut.forward(r.Context(), deadline, base, uri)
	}
	ctx, cancel := context.WithDeadline(r.Context(), deadline)
	u := &url.URL{Scheme: base.Scheme, Host: base.Host, Path: base.Path + r.URL.Path, RawPath: uri}
	req := (&http.Request{Method: http.MethodGet, URL: u, Host: u.Host, Header: make(http.Header)}).WithContext(ctx)
	resp, err := p.upstream.RoundTrip(req)
	if err != nil {
		cancel()
		return 0, nil, err
	}
	return resp.StatusCode, &cancelBody{ReadCloser: resp.Body, cancel: cancel}, nil
}

// forwardURI is the request-URI an attempt sends: the backend's path and
// the request's, each as escaped on the wire, so an encoded slash stays
// encoded. The query is not forwarded.
func forwardURI(base, in *url.URL) string {
	if uri := base.EscapedPath() + in.EscapedPath(); uri != "" {
		return uri
	}
	return "/"
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
