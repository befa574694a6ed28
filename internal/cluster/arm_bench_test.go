package cluster

import "testing"

// BenchmarkNewFull measures arm time on the sim_full plane set: probing,
// admission, the adaptive ladder, telemetry, events and spans attached
// to a cluster that is then never run.
func BenchmarkNewFull(b *testing.B) {
	cfg := goldenFull(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = New(cfg)
	}
}
