package netsim

import "testing"

// BenchmarkE27LargeFloorBrute is the brute-force half of the root
// package's BenchmarkE27LargeFloor: the same 100-BSS × 40-station floor
// at -62 dBm carrier sense for 2 s of virtual time, with the spatial
// index switched off so carrier sense scans every node. It lives here
// because that switch is an unexported test oracle. Against
// BenchmarkE27LargeFloor/indexed it prices the index: ≥3x at this
// size. Setup (Prepare) is excluded from the timing.
func BenchmarkE27LargeFloorBrute(b *testing.B) {
	cfg := DefaultConfig()
	cfg.CSThresholdDBm = -62 // OBSS-PD-style spatial reuse, as in E27
	build := LargeFloor(cfg, 100, 40, 10, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		n := withOracles(build(int64(i+1)), oracles{disableSpatialIndex: true})
		n.Prepare()
		b.StartTimer()
		if r := n.Run(2e6); r.Delivered == 0 {
			b.Fatal("floor delivered nothing")
		}
	}
}
