package httpcluster

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// assertQuiesced checks a balancer's backends once traffic has stopped:
// nothing in flight, every endpoint token home, every dispatch
// completed, and lb_values finite and non-negative. A proxy handler can
// still be returning its endpoint just after its client read the reply,
// so the checks wait up to a second for the counts to settle.
func assertQuiesced(t *testing.T, backends []*Backend, capacity int) {
	t.Helper()
	settled := func() bool {
		for _, be := range backends {
			if be.InFlight() != 0 || be.FreeEndpoints() != capacity {
				return false
			}
		}
		return true
	}
	for deadline := time.Now().Add(time.Second); !settled() && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	for _, be := range backends {
		if inF := be.InFlight(); inF != 0 {
			t.Errorf("%s: %d in flight at quiesce", be.Name(), inF)
		}
		if free := be.FreeEndpoints(); free != capacity {
			t.Errorf("%s: %d/%d endpoint tokens at quiesce", be.Name(), free, capacity)
		}
		if d, c := be.Dispatched(), be.Completed(); d != c {
			t.Errorf("%s: dispatched %d != completed %d at quiesce", be.Name(), d, c)
		}
		if lb := be.LBValue(); !isFinite(lb) || lb < 0 {
			t.Errorf("%s: lb_value %g at quiesce", be.Name(), lb)
		}
	}
}

// TestDispatchSwapStress hammers the dispatch path from every angle at
// once — 64 dispatch workers, policy swaps, mechanism swaps, quarantine
// flips, weight changes, probe arming — and is most valuable under
// -race, where an access outside the owning mutex surfaces. Stays on in
// -short (CI's race leg runs short mode).
func TestDispatchSwapStress(t *testing.T) {
	names := []string{"a", "b", "c", "d"}
	backends := make([]*Backend, len(names))
	for i, n := range names {
		backends[i] = NewBackend(n, "http://unused", 64)
	}
	cfg := Config{
		Sweeps:       1,
		AcquireSleep: time.Millisecond, AcquireTimeout: 3 * time.Millisecond,
		BusyRecovery: time.Millisecond, ErrorRecovery: 2 * time.Millisecond,
	}
	bal := NewBalancer(PolicyCurrentLoad, MechanismModified, backends, cfg)

	const workers = 64
	const iters = 3000
	var dispatched atomic.Uint64
	var workerWG, mutatorWG sync.WaitGroup
	stop := make(chan struct{})

	mutatorWG.Add(1)
	go func() { // control plane: swap everything continuously
		defer mutatorWG.Done()
		policies := []Policy{PolicyTotalRequest, PolicyTotalTraffic, PolicyCurrentLoad, PolicyRoundRobin, PolicyPrequal}
		mechs := []Mechanism{MechanismModified, MechanismOriginal}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			bal.SetPolicy(policies[i%len(policies)])
			bal.SetMechanism(mechs[i%len(mechs)])
			bal.SetQuarantine(names[i%len(names)], i%3 == 0)
			backends[i%len(backends)].SetWeight(float64(1 + i%4))
			if i%7 == 0 {
				bal.ArmProbe(names[i%len(names)])
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()

	for w := 0; w < workers; w++ {
		workerWG.Add(1)
		go func() {
			defer workerWG.Done()
			for i := 0; i < iters; i++ {
				be, rel, err := bal.Acquire(int64(i % 512))
				if err != nil {
					continue
				}
				if be == nil {
					t.Error("nil backend with nil error")
					return
				}
				dispatched.Add(1)
				if i%13 == 0 {
					rel.Fail()
				} else {
					rel.Done(int64(i % 2048))
				}
			}
		}()
	}

	workerWG.Wait()
	close(stop)
	mutatorWG.Wait()
	// Re-admit everything so the checks below see no quarantine left in
	// place.
	for _, n := range names {
		bal.SetQuarantine(n, false)
	}

	// Conservation: every successful Acquire was released exactly once.
	assertQuiesced(t, backends, 64)
	var total uint64
	for _, be := range backends {
		total += be.Dispatched()
	}
	if total != dispatched.Load() {
		t.Errorf("backend dispatch sum %d != successful acquires %d", total, dispatched.Load())
	}
}
