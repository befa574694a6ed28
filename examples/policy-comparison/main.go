// Policy comparison: run the full simulated n-tier testbed (4 web, 4
// app, 1 db, RUBBoS-like workload, dirty-page-flush millibottlenecks)
// under every policy/mechanism combination and print the paper's
// Table I. This is the paper's headline experiment on a smaller
// duration so it finishes in seconds.
//
//	go run ./examples/policy-comparison
package main

import (
	"fmt"

	"millibalance/internal/experiments"
)

func main() {
	fmt.Println("policy/mechanism comparison under millibottlenecks (20s virtual per row)")
	fmt.Println()
	// 20 s of the paper's 180 s per row.
	fmt.Print(experiments.RunTableI(experiments.Options{DurationScale: 20.0 / 180}).Render())
	fmt.Println("(the paper reports 12x on its Emulab testbed)")
}
