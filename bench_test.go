// Package repro_test benchmarks every reproduced exhibit: one benchmark
// per experiment E1–E31 (the paper, a survey, prints no numbered tables
// or figures, so each experiment regenerates one of its quantitative
// claims). E28 is no exhibit: BenchmarkE28ShardedFloor measures the
// sharded engine. Run with
//
//	go test -bench=. -benchmem
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/experiments"
	"repro/internal/netsim"
	"repro/internal/netsim/app"
	"repro/internal/netsim/trace"
)

// benchCfg trims Monte-Carlo fidelity so a benchmark iteration stays in
// the hundreds-of-milliseconds range.
func benchCfg() experiments.Config {
	cfg := experiments.Quick()
	cfg.Frames = 10
	cfg.PayloadBytes = 100
	return cfg
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	r, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	cfg := benchCfg()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		tables := r.Run(cfg)
		if len(tables) == 0 {
			b.Fatal("no tables")
		}
	}
}

func BenchmarkE01Evolution(b *testing.B)      { benchExperiment(b, "E1") }
func BenchmarkE02ProcessingGain(b *testing.B) { benchExperiment(b, "E2") }
func BenchmarkE03Waterfall(b *testing.B)      { benchExperiment(b, "E3") }
func BenchmarkE04MimoCapacity(b *testing.B)   { benchExperiment(b, "E4") }
func BenchmarkE05Range(b *testing.B)          { benchExperiment(b, "E5") }
func BenchmarkE06Ldpc(b *testing.B)           { benchExperiment(b, "E6") }
func BenchmarkE07Beamforming(b *testing.B)    { benchExperiment(b, "E7") }
func BenchmarkE08MeshCoverage(b *testing.B)   { benchExperiment(b, "E8") }
func BenchmarkE09MeshRouting(b *testing.B)    { benchExperiment(b, "E9") }
func BenchmarkE10Coop(b *testing.B)           { benchExperiment(b, "E10") }
func BenchmarkE11Papr(b *testing.B)           { benchExperiment(b, "E11") }
func BenchmarkE12ChainSwitch(b *testing.B)    { benchExperiment(b, "E12") }
func BenchmarkE13Tpc(b *testing.B)            { benchExperiment(b, "E13") }
func BenchmarkE14Psm(b *testing.B)            { benchExperiment(b, "E14") }
func BenchmarkE15Aggregation(b *testing.B)    { benchExperiment(b, "E15") }
func BenchmarkE16Acquisition(b *testing.B)    { benchExperiment(b, "E16") }
func BenchmarkE17HiddenTerminal(b *testing.B) { benchExperiment(b, "E17") }
func BenchmarkE18Signature(b *testing.B)      { benchExperiment(b, "E18") }
func BenchmarkE19Anomaly(b *testing.B)        { benchExperiment(b, "E19") }
func BenchmarkE20EnergyPerBit(b *testing.B)   { benchExperiment(b, "E20") }
func BenchmarkE21Coexistence(b *testing.B)    { benchExperiment(b, "E21") }

// E22-E26 exercise the packet-level netsim hot path: the discrete-event
// loop plus per-transmission medium arbitration (carrier sense,
// interference crossing, SINR judgment), per-AC EDCA contention in E25,
// and the TXOP exchange builder with per-MPDU Block-ACK judgment in
// E26.
func BenchmarkE22NetSim(b *testing.B)     { benchExperiment(b, "E22") }
func BenchmarkE23TrafficMix(b *testing.B) { benchExperiment(b, "E23") }
func BenchmarkE24RtsCtsArf(b *testing.B)  { benchExperiment(b, "E24") }
func BenchmarkE25EdcaQos(b *testing.B)    { benchExperiment(b, "E25") }
func BenchmarkE26Ampdu(b *testing.B)      { benchExperiment(b, "E26") }

// BenchmarkE30HtLadder covers the HT rate-adaptation subsystem end to
// end: Minstrel's per-exchange verdict bookkeeping and EWMA sampling
// over the 2-D MCS × width ladder on the single-link sweep, plus the
// bonded-medium arbitration (fractional-overlap interference, span
// carrier sense, per-span NAV) on the dense-floor comparison. The CI
// gate holds its ns/op and allocs/op: rate control rides the existing
// completion callbacks, so adapting must not add per-MPDU allocations.
func BenchmarkE30HtLadder(b *testing.B) { benchExperiment(b, "E30") }

// BenchmarkE27LargeFloor is the scale-push acceptance benchmark: one
// 100-BSS co-channel floor in the high-density association profile (40
// stations per BSS — 4100 nodes, one saturated sender per cell, the
// rest idle keepalives) at an OBSS-PD-style -62 dBm carrier-sense
// threshold, simulated for 2 s of virtual time. The indexed variant
// uses the spatial grid + tracked-neighborhood carrier-sense path; its
// brute-force oracle lives in internal/netsim as
// BenchmarkE27LargeFloorBrute, since the switch to the all-nodes scan
// is unexported. Setup (the O(n²) gain matrix, via Prepare) is
// excluded from the timing so ns/op measures the event-loop hot path
// the index rebuilt; the indexed/brute ratio is the speedup — ≥3x at
// this size.
//
// The traced variant rides the indexed path with a ring-buffer Tracer
// attached, so indexed-vs-traced is the probe layer's cost when ON and
// indexed against the committed baseline is its cost when OFF (the
// ≤2% acceptance bar — with no probe attached the hot sites reduce to
// one nil-check and never construct an Event).
func BenchmarkE27LargeFloor(b *testing.B) {
	for _, mode := range []struct {
		name   string
		traced bool
	}{
		{"indexed", false},
		{"traced", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := netsim.DefaultConfig()
			cfg.CSThresholdDBm = -62 // OBSS-PD-style spatial reuse, as in E27
			build := netsim.LargeFloor(cfg, 100, 40, 10, 1)
			tracer := trace.New()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				n := build(int64(i + 1))
				if mode.traced {
					tracer.Reset()
					n.AttachProbe(tracer)
				}
				n.Prepare()
				b.StartTimer()
				r := n.Run(2e6)
				if r.Delivered == 0 {
					b.Fatal("floor delivered nothing")
				}
				if mode.traced && tracer.Total() == 0 {
					b.Fatal("tracer saw no events")
				}
			}
		})
	}
}

// BenchmarkBuildLargeFloor is the gain-matrix build layer on its own:
// the E27 100-BSS × 40-station floor (4100 nodes), builder plus Prepare
// per op, so ns/op is the O(n²) fillGains bill plus shard planning and
// media setup, and allocs/op holds the build to a constant number of
// matrix allocations (one backing array per 4 MB block of rows, not
// one per row) under the CI allocs gate.
func BenchmarkBuildLargeFloor(b *testing.B) {
	cfg := netsim.DefaultConfig()
	cfg.CSThresholdDBm = -62 // as in E27
	build := netsim.LargeFloor(cfg, 100, 40, 10, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		build(int64(i + 1)).Prepare()
	}
}

// BenchmarkE31SpatialReuse times the OBSS-PD spatial-reuse hot path on
// the E27 floor shape at the legacy -82 dBm energy detect with the
// reuse threshold at -62 dBm — the widest [CS, threshold) window, so
// every carrier-sense scan runs the color-aware window test, inter-BSS
// ignores fire constantly, and backed-off reusing transmissions keep
// the scaled-interference SINR path hot. The CI gate holds its ns/op
// and allocs/op: the window test is a few compares inside the existing
// scan and ignore accounting is counter bumps, so coloring must not
// add per-frame allocations. Setup (gain matrix via Prepare) is
// excluded as in E27/E28.
func BenchmarkE31SpatialReuse(b *testing.B) {
	cfg := netsim.DefaultConfig()
	cfg.ObssPdThresholdDBm = -62
	build := netsim.LargeFloor(cfg, 100, 40, 10, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		n := build(int64(i + 1))
		n.Prepare()
		b.StartTimer()
		r := n.Run(2e6)
		if r.Delivered == 0 {
			b.Fatal("floor delivered nothing")
		}
		if r.ObssIgnores == 0 || r.ObssReuseTx == 0 {
			b.Fatal("spatial reuse never engaged")
		}
	}
}

// BenchmarkE28ShardedFloor is the sharded core-scaling curve: a
// 1024-BSS floor (3 stations per BSS — 4096 nodes, one saturated
// sender per cell) on an 8-channel reuse plan, so the planner finds 8
// interaction groups and honors shard requests up to 8. Each variant
// runs the identical topology at a different Config.Shards; shards=1
// is the single-engine baseline the 2% CI gate holds (sharding must
// cost nothing when off), and shards=2/4/8 trace the speedup curve.
// Setup (the O(n²) gain matrix, via Prepare) is excluded so ns/op
// measures the event loops plus the worker-pool fan-out.
//
// The curve only bends on multi-core machines: shard workers default
// to GOMAXPROCS, so on a single-core runner every variant measures the
// same serial work (~flat), while with GOMAXPROCS >=
// 4 the shards=4 variant shows the parallel speedup.
func BenchmarkE28ShardedFloor(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			cfg := netsim.DefaultConfig()
			cfg.CSThresholdDBm = -62 // OBSS-PD-style spatial reuse, as in E27
			cfg.Shards = shards
			build := netsim.LargeFloor(cfg, 1024, 3, 32, 1, 6, 11, 36, 40, 44, 48, 52)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				n := build(int64(i + 1))
				n.Prepare()
				b.StartTimer()
				r := n.Run(2e5)
				if r.Delivered == 0 {
					b.Fatal("floor delivered nothing")
				}
				if r.Shards != shards {
					b.Fatalf("planned %d shards, want %d (%+v)", r.Shards, shards, r.Plan)
				}
			}
		})
	}
}

// BenchmarkE29ClosedLoop times the closed-loop transport + app stack on
// the E29 apartment floor: 9 BSSs on the 1/6/11 reuse plan, 8 users per
// cell cycling the video/web/voice mix, every elastic flow driven by a
// TCP-style Conn whose fate callbacks, RTO timers, and pump events ride
// the same engine the MAC runs on. ns/op therefore covers the whole
// feedback path — MAC completion → PacketFate → cwnd update → re-pump →
// enqueue — on top of the DCF hot loop, which is the overhead the CI
// gate holds: the closed loop must stay event-driven (no polling), so
// its cost tracks delivered packets, not virtual time. Setup (gain
// matrix via Prepare) is excluded as in E27/E28.
func BenchmarkE29ClosedLoop(b *testing.B) {
	build := app.ApartmentBlock(netsim.DefaultConfig(), 9, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		n := build(int64(i + 1))
		n.Prepare()
		b.StartTimer()
		r := n.Run(2e6)
		if r.Delivered == 0 {
			b.Fatal("floor delivered nothing")
		}
		if r.QoE == nil || r.QoE.Users != 72 {
			b.Fatal("QoE block missing or wrong user count")
		}
	}
}
