package httpcluster

import (
	"testing"
	"time"

	"millibalance/internal/admission"
	"millibalance/internal/probe"
	"millibalance/internal/telemetry"
)

// BenchmarkStartProxyPlanes measures arm time on the proxy_mbneck plane
// set: StartProxy with probing, admission, resilience and telemetry
// armed over four live app servers, then Close.
func BenchmarkStartProxyPlanes(b *testing.B) {
	var apps []*AppServer
	for i := 0; i < 4; i++ {
		app, err := StartAppServer(AppServerConfig{Name: "app" + string(rune('1'+i)), Workers: 8, ServiceTime: time.Millisecond})
		if err != nil {
			b.Fatal(err)
		}
		defer func() { _ = app.Close() }()
		apps = append(apps, app)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		backends := make([]*Backend, len(apps))
		for j, app := range apps {
			backends[j] = NewBackend(app.Name(), app.URL(), 8)
		}
		p, err := StartProxy(ProxyConfig{
			Workers:       200,
			Policy:        PolicyPrequal,
			Mechanism:     MechanismModified,
			LB:            Config{StickySessions: true},
			Probe:         &probe.Config{},
			Resilience:    &Resilience{},
			Admission:     &admission.Config{Limiter: admission.LimiterAIMD, CoDel: true, LIFO: true},
			Telemetry:     &telemetry.Config{},
			SpanCapacity:  4096,
			EventCapacity: 65536,
		}, backends)
		if err != nil {
			b.Fatal(err)
		}
		_ = p.Close()
	}
}
