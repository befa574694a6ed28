package httpcluster

import (
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestErrorCauses drives each cause of an error reply the front can
// produce and finds it counted under its name, once, with Errors() the
// sum of the causes.
func TestErrorCauses(t *testing.T) {
	if testing.Short() {
		t.Skip("nine proxies with their own backends")
	}
	// held answers once the case is over.
	held := func(t *testing.T, over <-chan struct{}) string {
		return startPeer(t, func(int, int, *http.Request, []byte) reply {
			<-over
			return reply{raw: lengthReply(2)}
		}).url()
	}
	refused := func(t *testing.T, _ <-chan struct{}) string { // an address nothing listens on
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		url := "http://" + ln.Addr().String()
		_ = ln.Close()
		return url
	}
	cases := []struct {
		cause   Cause
		backend func(t *testing.T, over <-chan struct{}) string
		cfg     ProxyConfig
		busy    bool // a first request holds the only worker or endpoint
		cancel  bool // the client goes away mid-request
	}{
		{cause: CauseShed, backend: held,
			cfg: ProxyConfig{Workers: 1, Resilience: &Resilience{ShedAfter: 20 * time.Millisecond, MaxRetries: -1}}, busy: true},
		{cause: CauseNoBackend, backend: held,
			busy: true},
		{cause: CauseDialRefused, backend: refused},
		{cause: CauseReset, backend: func(t *testing.T, _ <-chan struct{}) string {
			return startPeer(t, func(int, int, *http.Request, []byte) reply { return reply{close: true} }).url()
		}},
		{cause: CauseAttemptDeadline, backend: func(t *testing.T, _ <-chan struct{}) string {
			return startPeer(t, func(int, int, *http.Request, []byte) reply { return reply{hang: true} }).url()
		}, cfg: ProxyConfig{Resilience: &Resilience{AttemptTimeout: 50 * time.Millisecond, MaxRetries: -1}}},
		{cause: CauseClientCancel, backend: func(t *testing.T, _ <-chan struct{}) string {
			return startPeer(t, func(int, int, *http.Request, []byte) reply { return reply{hang: true} }).url()
		}, cancel: true},
		{cause: CauseUpstream5xx, backend: func(t *testing.T, _ <-chan struct{}) string {
			return startPeer(t, always("HTTP/1.1 500 Internal Server Error\r\nContent-Length: 0\r\n\r\n")).url()
		}, cfg: ProxyConfig{Resilience: &Resilience{MaxRetries: 1, RetryBudget: 0.01, RetryBudgetCap: 0.5}}},
		{cause: CauseCutShort, backend: func(t *testing.T, _ <-chan struct{}) string {
			return startPeer(t, func(int, int, *http.Request, []byte) reply {
				return reply{raw: "HTTP/1.1 200 OK\r\nContent-Length: 16384\r\n\r\n" + strings.Repeat("x", 1024), close: true}
			}).url()
		}},
		{cause: CauseOther, backend: func(*testing.T, <-chan struct{}) string { return "http://[::1" }},
	}
	if len(cases) != int(numCauses) {
		t.Fatalf("%d cases for %d causes", len(cases), numCauses)
	}
	for _, tc := range cases {
		t.Run(tc.cause.String(), func(t *testing.T) {
			cfg := tc.cfg
			cfg.Policy, cfg.Mechanism, cfg.LB = PolicyCurrentLoad, MechanismModified, Config{Sweeps: 1}
			if cfg.Workers == 0 {
				cfg.Workers = 4
			}
			over := make(chan struct{})
			be := NewBackend("app1", tc.backend(t, over), 1)
			proxy, err := StartProxy(cfg, []*Backend{be})
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = proxy.Close() }()
			defer close(over)
			if tc.busy {
				go func() { _, _, _ = get(pooledClient(t), proxy.URL()+"/x") }()
				if !within(time.Second, func() bool { return proxy.WorkersInFlight() == 1 && be.FreeEndpoints() == 0 }) {
					t.Fatal("the first request did not take its worker and its endpoint")
				}
			}
			if tc.cancel {
				c, err := net.Dial("tcp", strings.TrimPrefix(proxy.URL(), "http://"))
				if err != nil {
					t.Fatal(err)
				}
				_, _ = c.Write([]byte("GET /x HTTP/1.1\r\nHost: p\r\n\r\n"))
				if !within(time.Second, func() bool { return be.FreeEndpoints() == 0 }) {
					t.Fatal("the request did not reach the backend")
				}
				_ = c.Close()
			} else {
				_, _, _ = get(pooledClient(t), proxy.URL()+"/x")
			}
			if !within(2*time.Second, func() bool { return proxy.Errors() == 1 }) {
				t.Fatalf("%d errors, want 1: %v", proxy.Errors(), proxy.ErrorCauses())
			}
			causes := proxy.ErrorCauses()
			for name, n := range causes {
				want := uint64(0)
				if name == tc.cause.String() {
					want = 1
				}
				if n != want {
					t.Errorf("%s: %d, want %d (all: %v)", name, n, want, causes)
				}
			}
			if stats := proxy.Stats(); stats.Errors != 1 || stats.Causes[tc.cause.String()] != 1 {
				t.Errorf("/admin/stats: errors %d, causes %v", stats.Errors, stats.Causes)
			}
		})
	}
}

// TestErrorRecordZeroAlloc: counting an error reply by its cause, with
// no plane armed, allocates nothing.
func TestErrorRecordZeroAlloc(t *testing.T) {
	proxy, err := StartProxy(ProxyConfig{Workers: 1}, []*Backend{NewBackend("app1", "http://127.0.0.1:1", 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = proxy.Close() }()
	if allocs := testing.AllocsPerRun(1000, func() { proxy.noteError(nil, 0, CauseReset) }); allocs != 0 {
		t.Fatalf("%.1f allocations per error recorded", allocs)
	}
	if proxy.Errors() != 1001 {
		t.Fatalf("Errors() = %d, want 1001", proxy.Errors())
	}
}

// TestAbortBetweenExchangesEndsTheConnection: a client that leaves while
// the proxy waits to retry — between two exchanges of one front
// connection — aborts the connection's slot, so the retry fails at once
// without reaching the backend, counted as a client cancel.
func TestAbortBetweenExchangesEndsTheConnection(t *testing.T) {
	var requests atomic.Int64
	first := make(chan struct{}, 1)
	p := startPeer(t, func(int, int, *http.Request, []byte) reply {
		requests.Add(1)
		first <- struct{}{}
		return reply{raw: "HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\n\r\n"}
	})
	proxy, err := StartProxy(ProxyConfig{
		Workers: 2, Policy: PolicyCurrentLoad, Mechanism: MechanismModified,
		Resilience: &Resilience{MaxRetries: 1, RetryBackoff: 200 * time.Millisecond},
	}, []*Backend{NewBackend("app1", p.url(), 2)})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = proxy.Close() }()
	c, err := net.Dial("tcp", strings.TrimPrefix(proxy.URL(), "http://"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write([]byte("GET /x HTTP/1.1\r\nHost: p\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	<-first
	_ = c.Close() // during the backoff
	if !within(time.Second, func() bool { return proxy.Errors() == 1 && proxy.WorkersInFlight() == 0 }) {
		t.Fatalf("errors %d, workers in flight %d; want 1 and 0", proxy.Errors(), proxy.WorkersInFlight())
	}
	if n := proxy.ErrorCauses()[CauseClientCancel.String()]; n != 1 {
		t.Errorf("client cancels %d, want 1: %v", n, proxy.ErrorCauses())
	}
	if n := requests.Load(); n != 1 {
		t.Errorf("the backend saw %d requests, want the first only", n)
	}
}
