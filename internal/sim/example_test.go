package sim_test

import (
	"fmt"
	"time"

	"millibalance/internal/sim"
)

func ExampleEngine() {
	eng := sim.NewEngine(1, 2)
	eng.Schedule(100*time.Millisecond, func() {
		fmt.Println("fired at", eng.Now())
	})
	eng.Run(time.Second)
	fmt.Println("clock:", eng.Now())
	// Output:
	// fired at 100ms
	// clock: 1s
}

func ExamplePool() {
	// A two-token pool modelling a tiny connection pool.
	p := sim.NewPool(2)
	p.Acquire(sim.Func(func() { fmt.Println("conn 1 granted") }))
	p.Acquire(sim.Func(func() { fmt.Println("conn 2 granted") }))
	p.Acquire(sim.Func(func() { fmt.Println("conn 3 granted (after a release)") }))
	fmt.Println("waiting:", p.Waiting())
	p.Release()
	// Output:
	// conn 1 granted
	// conn 2 granted
	// waiting: 1
	// conn 3 granted (after a release)
}
