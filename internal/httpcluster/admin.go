package httpcluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"time"

	"millibalance/internal/probe"
)

// Admin endpoints: the app server exposes POST /admin/stall?d=300ms for
// external millibottleneck injection (so demos and chaos tooling can
// drive it without holding a Go reference), plus GET /admin/stats; the
// proxy exposes GET /admin/stats with balancer state. Registered by
// StartAppServer and StartProxy.

// AppStats is the app server's /admin/stats payload.
type AppStats struct {
	Name     string `json:"name"`
	Served   uint64 `json:"served"`
	InFlight int    `json:"in_flight"`
	Workers  int    `json:"workers"`
}

// adminMux registers the app server's admin handlers.
func (a *AppServer) adminMux(mux *http.ServeMux) {
	mux.HandleFunc("/admin/stall", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		d, err := time.ParseDuration(r.URL.Query().Get("d"))
		if err != nil || d <= 0 || d > time.Minute {
			http.Error(w, "need ?d=<duration> in (0, 1m]", http.StatusBadRequest)
			return
		}
		a.Stall(d)
		fmt.Fprintf(w, "stalling %s for %v\n", a.cfg.Name, d)
	})
	mux.HandleFunc("/admin/stats", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(AppStats{
			Name:     a.cfg.Name,
			Served:   a.served.Load(),
			InFlight: a.InFlight(),
			Workers:  cap(a.workers),
		})
	})
	mux.HandleFunc(probe.ProbePath, func(w http.ResponseWriter, _ *http.Request) {
		// One stall-gate pass before answering: a stall-frozen server
		// freezes its own probe replies with it, so the prober's pool
		// ages past the TTL — the exclusion signal prequal relies on.
		// Deliberately no worker slot: the probe measures load, it must
		// not queue behind it.
		a.stallGate()
		ndjsonHeaders(w)
		_ = json.NewEncoder(w).Encode(probe.Report{
			Backend:       a.cfg.Name,
			InFlight:      a.inflight.Load(),
			EWMALatencyMs: float64(a.EWMALatency()) / float64(time.Millisecond),
		})
	})
}

// BackendStats is one backend's entry in the proxy's /admin/stats
// payload.
type BackendStats struct {
	Name       string  `json:"name"`
	URL        string  `json:"url"`
	LBValue    float64 `json:"lb_value"`
	State      string  `json:"state"`
	Dispatched uint64  `json:"dispatched"`
	Completed  uint64  `json:"completed"`
}

// ProxyStats is the proxy's /admin/stats payload.
type ProxyStats struct {
	Policy    string `json:"policy"`
	Mechanism string `json:"mechanism"`
	Served    uint64 `json:"served"`
	Errors    uint64 `json:"errors"`
	Rejects   uint64 `json:"rejects"`
	Shed      uint64 `json:"shed"`
	Retries   uint64 `json:"retries"`
	// Causes splits Errors by cause (causes.go).
	Causes   map[string]uint64 `json:"error_causes"`
	Backends []BackendStats    `json:"backends"`
}

// Stats snapshots the proxy's balancer state.
func (p *Proxy) Stats() ProxyStats {
	causes := p.ErrorCauses()
	var errs uint64
	for _, n := range causes {
		errs += n
	}
	out := ProxyStats{
		// Read from the balancer, not the construction config: the
		// adaptive control plane may have hot-swapped either.
		Policy:    p.bal.CurrentPolicy().String(),
		Mechanism: p.bal.CurrentMechanism().String(),
		Served:    p.served.Load(),
		Errors:    errs,
		Causes:    causes,
		Rejects:   p.bal.Rejects(),
		Shed:      p.shed.Load(),
		Retries:   p.retries.Load(),
	}
	for _, be := range p.bal.Backends() {
		out.Backends = append(out.Backends, BackendStats{
			Name:       be.Name(),
			URL:        be.URL(),
			LBValue:    be.LBValue(),
			State:      be.State().String(),
			Dispatched: be.Dispatched(),
			Completed:  be.Completed(),
		})
	}
	return out
}

// promContentType is the Prometheus text exposition format version the
// /metrics endpoint speaks.
const promContentType = "text/plain; version=0.0.4; charset=utf-8"

// ndjsonHeaders marks a response as newline-delimited JSON. nosniff
// keeps browsers from content-sniffing the stream into something
// executable — these endpoints echo request-derived data (URLs, backend
// names), so they must never be interpreted as HTML.
func ndjsonHeaders(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Content-Type-Options", "nosniff")
}

// adminHandler returns the handler for path on the proxy's admin
// surface, or nil for a path the proxy forwards; path is escaped, and
// matches once unescaped. /admin/stats serves the balancer's state;
// /admin/trace streams the recorded request-lifecycle spans,
// /admin/events the balancer decision / state / reject log and
// /admin/timeline the telemetry resource timeline, all as JSON Lines;
// /metrics serves the same timeline's latest points in Prometheus text
// format. Each answers 404 when the corresponding capacity or config was
// not set.
func (p *Proxy) adminHandler(path []byte) http.HandlerFunc {
	if bytes.IndexByte(path, '%') < 0 && !bytes.HasPrefix(path, []byte("/admin/")) && !bytes.Equal(path, []byte("/metrics")) {
		return nil
	}
	name, err := url.PathUnescape(string(path))
	if err != nil {
		return nil
	}
	switch name {
	case "/admin/stats":
		return func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(p.Stats())
		}
	case "/admin/trace":
		return func(w http.ResponseWriter, _ *http.Request) {
			if p.tracer == nil {
				http.Error(w, "span tracing disabled (ProxyConfig.SpanCapacity)", http.StatusNotFound)
				return
			}
			ndjsonHeaders(w)
			_ = p.tracer.WriteJSONL(w)
		}
	case "/admin/events":
		return func(w http.ResponseWriter, _ *http.Request) {
			if p.events == nil {
				http.Error(w, "event log disabled (ProxyConfig.EventCapacity)", http.StatusNotFound)
				return
			}
			ndjsonHeaders(w)
			_ = p.events.WriteJSONL(w)
		}
	case "/admin/adapt":
		return func(w http.ResponseWriter, _ *http.Request) {
			if p.adaptC == nil {
				http.Error(w, "adaptive control plane disabled (ProxyConfig.Adapt)", http.StatusNotFound)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(p.adaptC.State())
		}
	case "/admin/adapt/decisions":
		return func(w http.ResponseWriter, _ *http.Request) {
			if p.adaptC == nil {
				http.Error(w, "adaptive control plane disabled (ProxyConfig.Adapt)", http.StatusNotFound)
				return
			}
			ndjsonHeaders(w)
			_ = p.adaptC.Log().WriteJSONL(w)
		}
	case "/admin/admission":
		return func(w http.ResponseWriter, _ *http.Request) {
			if p.adm == nil {
				http.Error(w, "admission control disabled (ProxyConfig.Admission)", http.StatusNotFound)
				return
			}
			ndjsonHeaders(w)
			enc := json.NewEncoder(w)
			_ = enc.Encode(p.adm.Stats())
			for _, a := range p.adm.Adjustments() {
				_ = enc.Encode(a)
			}
		}
	case "/admin/timeline":
		return func(w http.ResponseWriter, _ *http.Request) {
			if p.sampler == nil {
				http.Error(w, "telemetry disabled (ProxyConfig.Telemetry)", http.StatusNotFound)
				return
			}
			ndjsonHeaders(w)
			_ = p.Timeline().WriteJSONL(w)
		}
	case "/metrics":
		return func(w http.ResponseWriter, _ *http.Request) {
			if p.sampler == nil {
				http.Error(w, "telemetry disabled (ProxyConfig.Telemetry)", http.StatusNotFound)
				return
			}
			w.Header().Set("Content-Type", promContentType)
			w.Header().Set("X-Content-Type-Options", "nosniff")
			_ = p.Timeline().WriteProm(w, "millibalance")
		}
	}
	return nil
}
