package httpcluster

import (
	"context"
	"errors"
	"io"
	"net"
	"syscall"
)

// Cause names why the proxy answered a request with an error. The proxy
// counts its error replies per cause in a fixed array of atomics, so
// recording one allocates nothing; Proxy.Errors is their sum and
// Proxy.ErrorCauses, like /admin/stats, reads them by name.
type Cause uint8

const (
	// CauseShed: the admission gate or the bounded wait shed the request
	// (503).
	CauseShed Cause = iota
	// CauseNoBackend: no backend had a free endpoint, on the last attempt
	// (503).
	CauseNoBackend
	// CauseDialRefused: the backend refused the connection (502).
	CauseDialRefused
	// CauseReset: the connection was reset or closed mid-exchange (502).
	CauseReset
	// CauseAttemptDeadline: the attempt deadline passed (502).
	CauseAttemptDeadline
	// CauseClientCancel: the client went away while the attempt ran.
	CauseClientCancel
	// CauseUpstream5xx: the backend answered 5xx and the retry budget
	// allowed no further attempt; the reply carries its status.
	CauseUpstream5xx
	// CauseCutShort: the reply broke off after its head went out, the
	// upstream's or the client's side; the connection closes.
	CauseCutShort
	// CauseOther: any other failure of the attempt, such as a backend URL
	// that does not parse or a supplied transport's own error (502).
	CauseOther
	numCauses
)

var causeNames = [numCauses]string{"shed", "no_backend", "dial_refused", "reset", "attempt_deadline", "client_cancel", "upstream_5xx", "cut_short", "other"}

func (c Cause) String() string { return causeNames[c] }

// upstreamCause sorts a failed attempt's error.
func upstreamCause(err error) Cause {
	switch {
	case errors.Is(err, context.Canceled):
		return CauseClientCancel
	case errors.Is(err, context.DeadlineExceeded):
		return CauseAttemptDeadline
	case errors.Is(err, syscall.ECONNREFUSED):
		return CauseDialRefused
	case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF), errors.Is(err, syscall.ECONNRESET),
		errors.Is(err, syscall.EPIPE), errors.Is(err, net.ErrClosed):
		return CauseReset
	}
	return CauseOther
}
