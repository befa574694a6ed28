package planes_test

import (
	"io"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"millibalance/internal/adapt"
	"millibalance/internal/admission"
	"millibalance/internal/cluster"
	"millibalance/internal/httpcluster"
	"millibalance/internal/planes"
	"millibalance/internal/probe"
	"millibalance/internal/telemetry"
)

// armed is one substrate built with the probing, adaptive and telemetry
// planes attached, seen through the attachment and its drivers.
type armed struct {
	planes *planes.Attachment
	// drivers counts the balancers the actuator fans out to.
	drivers int
	// state reads backend's quarantine flag and dispatch count on every
	// driver.
	state func(backend string) (quarantined []bool, dispatched []uint64)
	// drive sends each driver enough requests to reach an armed probe.
	drive func()
	// settle gives a reseed's probe round time to land.
	settle func()
	// signals lists every timeline signal the substrate registered.
	signals func() []string
	close   func()
}

// substrates builds each substrate with the ladder targeting prequal and
// its periodic probing slowed to once an hour, so every sample in the
// pools comes from a reseed round; gate arms admission as well.
var substrates = []struct {
	name    string
	drivers int
	arm     func(t *testing.T, gate bool) armed
}{
	{"sim", 4, armSim},
	{"proxy", 1, armProxy},
}

func armSim(t *testing.T, gate bool) armed {
	cfg := cluster.PaperConfig()
	cfg.Clients = 2000
	cfg.Duration = 200 * time.Millisecond
	cfg.Probe = &probe.Config{Interval: time.Hour}
	cfg.Adaptive = &adapt.Config{PolicyTarget: "prequal"}
	cfg.Telemetry = &telemetry.Config{Interval: 10 * time.Millisecond}
	if gate {
		cfg.Admission = &admission.Config{Limiter: admission.LimiterAIMD}
	}
	c := cluster.New(cfg)
	var res *cluster.Results
	return armed{
		planes:  c.Planes(),
		drivers: len(c.Webs),
		state: func(backend string) (q []bool, d []uint64) {
			for _, w := range c.Webs {
				for _, cand := range w.Balancer().Candidates() {
					if cand.Name() == backend {
						q, d = append(q, cand.Quarantined()), append(d, cand.Dispatched())
					}
				}
			}
			return q, d
		},
		drive:   func() { res = c.Run() },
		settle:  func() { c.Eng.Run(c.Eng.Now() + 5*time.Millisecond) },
		signals: func() []string { return res.Timeline.Signals() },
		close:   func() {},
	}
}

func armProxy(t *testing.T, gate bool) armed {
	var apps []*httpcluster.AppServer
	var backends []*httpcluster.Backend
	for _, name := range []string{"app1", "app2"} {
		app, err := httpcluster.StartAppServer(httpcluster.AppServerConfig{Name: name, Workers: 4, ServiceTime: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		apps = append(apps, app)
		backends = append(backends, httpcluster.NewBackend(name, app.URL(), 4))
	}
	cfg := httpcluster.ProxyConfig{
		Workers:   8,
		Policy:    httpcluster.PolicyCurrentLoad,
		Mechanism: httpcluster.MechanismModified,
		Probe:     &probe.Config{Interval: time.Hour},
		Adapt:     &adapt.Config{PolicyTarget: "prequal", Tick: time.Hour},
		Telemetry: &telemetry.Config{Interval: time.Hour},
	}
	if gate {
		cfg.Admission = &admission.Config{Limiter: admission.LimiterAIMD}
	}
	p, err := httpcluster.StartProxy(cfg, backends)
	if err != nil {
		t.Fatal(err)
	}
	return armed{
		planes:  p.Planes(),
		drivers: 1,
		state: func(backend string) (q []bool, d []uint64) {
			for _, be := range p.Balancer().Backends() {
				if be.Name() == backend {
					q, d = append(q, be.Quarantined()), append(d, be.Dispatched())
				}
			}
			return q, d
		},
		drive: func() {
			for i := 0; i < 4; i++ {
				resp, err := http.Get(p.URL() + "/x")
				if err != nil {
					t.Fatal(err)
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				_ = resp.Body.Close()
			}
		},
		settle: func() {
			deadline := time.Now().Add(500 * time.Millisecond)
			for _, be := range backends {
				for p.ProbePools().Depth(be.Name()) == 0 && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
			}
		},
		signals: func() []string { return p.Timeline().Signals() },
		close: func() {
			_ = p.Close()
			for _, a := range apps {
				_ = a.Close()
			}
		},
	}
}

// TestAttachmentBothSubstrates checks the one attachment on each
// substrate: the actuator reaches every driver, tightens a gate only
// when there is one, reseeds the pools on a swap to prequal, and both
// substrates register the same plane gauges.
func TestAttachmentBothSubstrates(t *testing.T) {
	var planeSignals [][]string
	for _, sub := range substrates {
		t.Run(sub.name, func(t *testing.T) {
			bare := sub.arm(t, false)
			if bare.planes.TightenLimit(true) {
				t.Error("TightenLimit reported a gate on a substrate without admission")
			}
			bare.close()

			s := sub.arm(t, true)
			defer s.close()
			if s.drivers != sub.drivers {
				t.Fatalf("%d drivers, want %d", s.drivers, sub.drivers)
			}
			act := s.planes
			backend := act.Backends()[0]
			_, before := s.state(backend)
			act.SetQuarantine(backend, true)
			act.ArmProbe(backend)
			s.drive()
			q, after := s.state(backend)
			if len(q) != sub.drivers || slices.Contains(q, false) {
				t.Fatalf("%s: quarantined %v: want true on all %d drivers", backend, q, sub.drivers)
			}
			for i := range after {
				if n := after[i] - before[i]; n != 1 {
					t.Fatalf("%s: driver %d dispatched %d requests while drained, want exactly the one probe", backend, i, n)
				}
			}
			if !act.TightenLimit(true) {
				t.Error("TightenLimit reported no gate on a substrate with admission")
			}

			pools := s.planes.Pools()
			pools.Observe("ghost", 999, time.Second)
			act.SetPolicy("prequal")
			if d := pools.Depth("ghost"); d != 0 {
				t.Fatalf("swap to prequal left %d stale samples", d)
			}
			s.settle()
			for _, name := range act.Backends() {
				if pools.Depth(name) == 0 {
					t.Fatalf("%s: no sample from the reseed's probe round", name)
				}
			}

			var got []string
			for _, sig := range s.signals() {
				if strings.HasPrefix(sig, "admission_") || strings.HasPrefix(sig, "probe_") {
					got = append(got, sig)
				}
			}
			if len(got) != 6 {
				t.Fatalf("plane gauges %v, want six", got)
			}
			planeSignals = append(planeSignals, got)
		})
	}
	if len(planeSignals) == 2 && !slices.Equal(planeSignals[0], planeSignals[1]) {
		t.Fatalf("plane gauges differ: sim %v, proxy %v", planeSignals[0], planeSignals[1])
	}
}
