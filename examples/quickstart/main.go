// Quickstart: build a millibottleneck-aware load balancer, dispatch a
// few requests through it in simulated time, and print the balancer's
// view of its backends.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"os"
	"time"

	"millibalance/internal/lb"
	"millibalance/internal/sim"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	// Everything happens in deterministic virtual time.
	eng := sim.NewEngine(42, 43)

	// The paper's recommended configuration: rank backends by in-flight
	// requests (current_load) and fail fast on exhausted endpoint pools
	// (modified get_endpoint), each backend behind a 4-endpoint pool.
	policy, ok := lb.PolicyByName("current_load")
	if !ok {
		return fmt.Errorf("unknown policy (have %v)", lb.PolicyNames())
	}
	mechanism, ok := lb.MechanismByName("modified_get_endpoint", eng)
	if !ok {
		return fmt.Errorf("unknown mechanism (have %v)", lb.MechanismNames())
	}
	balancer := lb.New(eng, policy, mechanism, []*lb.Candidate{
		lb.NewCandidate("app1", sim.NewPool(4)),
		lb.NewCandidate("app2", sim.NewPool(4)),
	}, lb.Config{})

	// A fake backend fleet: app1 takes 5 ms per request, app2 takes
	// 2 ms — except that at t=100ms, app1 suffers a 300 ms
	// millibottleneck and stops completing anything it holds.
	serviceTime := map[string]sim.Time{
		"app1": 5 * time.Millisecond,
		"app2": 2 * time.Millisecond,
	}
	app1StallUntil := sim.Time(0)
	eng.Schedule(100*time.Millisecond, func() {
		fmt.Printf("t=%-6v millibottleneck: app1 frozen for 300ms\n", eng.Now())
		app1StallUntil = eng.Now() + 300*time.Millisecond
	})

	served := map[string]int{}
	submit := func(id int) {
		balancer.Dispatch(lb.RequestInfo{RequestBytes: 300, ResponseBytes: 8 << 10},
			func(c *lb.Candidate, done func()) {
				finish := serviceTime[c.Name()]
				if c.Name() == "app1" && eng.Now() < app1StallUntil {
					finish += app1StallUntil - eng.Now() // frozen until the stall lifts
				}
				eng.Schedule(finish, func() {
					served[c.Name()]++
					done()
				})
			},
			func() {
				fmt.Printf("t=%-6v request %d rejected: no backend available\n", eng.Now(), id)
			})
	}

	// Issue one request every 10 ms for half a second.
	for i := 0; i < 50; i++ {
		i := i
		eng.Schedule(sim.Time(i)*10*time.Millisecond, func() { submit(i) })
	}
	eng.Run(time.Second)

	fmt.Println("\nfinal balancer state:")
	for _, snap := range balancer.Snapshot() {
		fmt.Printf("  %-5s served=%-3d lb_value=%.0f state=%v\n",
			snap.Name, served[snap.Name], snap.LBValue, snap.State)
	}
	fmt.Println("\napp2 absorbed the load while app1 was frozen — the")
	fmt.Println("current_load policy saw app1's in-flight count rise and")
	fmt.Println("stopped choosing it, without any explicit failure detection.")
	return nil
}
