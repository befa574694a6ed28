// Package millibalance reproduces "Limitations of Load Balancing
// Mechanisms for N-Tier Systems in the Presence of Millibottlenecks"
// (Zhu et al., ICDCS 2017) as a Go library: a deterministic n-tier
// simulation testbed, the mod_jk-style load balancer with the paper's
// policies and get_endpoint mechanisms, dirty-page-flush millibottleneck
// injection and detection, a real-HTTP loopback twin, and an experiment
// harness that regenerates every table and figure of the evaluation.
//
// See README.md for a tour and DESIGN.md for the system inventory.
// cmd/figures regenerates the paper's results and bench/ (a module of
// its own) is the benchmark that times the codebase:
//
//	go run ./cmd/figures -report
//	go run -C bench . --workload sim_paper
package millibalance
