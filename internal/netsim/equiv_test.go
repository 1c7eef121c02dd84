package netsim

import (
	"fmt"
	"testing"

	"repro/internal/linkmodel"
)

// The spatial-index equivalence harness. The grid in spatial.go is a
// pure lookup accelerator: it must never change which nodes sense a
// frame, adopt a NAV, or the order those effects apply in — so every
// scenario, run with the index on and with the brute-force oracle
// (Config.disableSpatialIndex), must produce bit-identical Results.
// This extends PR 4's golden-fingerprint technique from "new tree vs
// recorded hashes" to "two live configurations of the same tree",
// which catches index bugs on any seed instead of only the recorded
// ones. Fingerprints come from compat_test.go and cover every counter,
// per-AC/per-flow stat, and float in a Result.

// equivSeeds is the per-scenario seed fan-out; ≥5 per the harness
// contract so a single lucky event ordering cannot hide a divergence.
const equivSeeds = 5

// equivScenarios covers every scenario preset plus the stressors the
// index must survive: per-pair shadowing (query radii must widen to the
// luckiest draw), RTS/CTS (NAV adoption queries at decode range),
// roaming with downlink handoff (incremental grid updates and medium
// migration), and the 3-channel LargeFloor with an OBSS-PD-style CS
// threshold (many small neighborhoods — the case the index exists for).
func equivScenarios() []struct {
	name       string
	durationUs float64
	build      func(cfg Config) func(seed int64) *Network
} {
	return []struct {
		name       string
		durationUs float64
		build      func(cfg Config) func(seed int64) *Network
	}{
		{"single-link", 2e5, func(cfg Config) func(int64) *Network {
			return SingleLink(cfg, 12, 1000)
		}},
		{"dense-grid-cochannel", 1.5e5, func(cfg Config) func(int64) *Network {
			return DenseGrid(cfg, 3, 3, []int{1}, 25, 900)
		}},
		// 8 BSS x 8 saturated stations on ONE channel = 72 nodes on one
		// medium — above medium.bruteScanCutoff, so the indexed run
		// really takes the grid path, with shadowing widening the query
		// radii.
		{"dense-grid-shadowed", 1e5, func(cfg Config) func(int64) *Network {
			cfg.PathLoss.ShadowDB = 5
			return DenseGrid(cfg, 8, 8, []int{1}, 30, 900)
		}},
		{"traffic-mix", 2e5, func(cfg Config) func(int64) *Network {
			return TrafficMix(cfg, 3, 2, 1, 2)
		}},
		{"hidden-pair-rtscts", 2e5, func(cfg Config) func(int64) *Network {
			return HiddenPair(rtsEvery(cfg), 300, 1250)
		}},
		{"roaming-walk-downlink", 2e6, func(cfg Config) func(int64) *Network {
			cfg.RoamIntervalUs = 100000
			e := DefaultEdca(cfg.Dcf, cfg.QueueLimit)
			cfg.Edca = &e
			return RoamingWalkDownlink(cfg, 120, 20)
		}},
		// 36 BSS x (1 saturated + 1 keepalive) on ONE channel = 108
		// nodes on one medium: the grid hood cache, tracked-list
		// patching, and pooled buffers all engage (the 3-channel E27
		// shape splits below the cutover; this variant is the one that
		// exercises the index inside a full simulation).
		{"large-floor-reuse", 3e4, func(cfg Config) func(int64) *Network {
			cfg.CSThresholdDBm = -62 // OBSS-PD-style spatial reuse
			return LargeFloor(cfg, 36, 2, 6, 1)
		}},
		// HT + 40 MHz bonding on deliberately overlapping channels
		// {1,2,3}: every adjacent pair shares one 20 MHz slot, so the
		// fractional-interference path (overlapFrac < 1), the half-power
		// CS rule, and the full-cover NAV rule all run hot — the index
		// must agree with the oracle under partial spectral overlap too.
		{"ht-bonded-overlap", 1e5, func(cfg Config) func(int64) *Network {
			cfg.Modes = linkmodel.HtModes(2, 40)
			cfg.ChannelWidthMHz = 40
			cfg.RateControl = "minstrel"
			agg := DefaultAggregation()
			agg.MaxAmpduAirUs = 4000
			cfg.Aggregation = &agg
			return DenseGrid(cfg, 6, 3, []int{1, 2, 3}, 25, 1200)
		}},
		// The bonded Minstrel floor again, with OBSS-PD coloring on:
		// the color-aware window is re-evaluated per listener inside
		// the CS scan and NAV adoption the index accelerates, and
		// co-channel cells 50 m apart (~-71 dBm) land inside the
		// (-82, -62) window, so ignore decisions and backed-off
		// transmissions run hot. The oracle must agree on every one.
		{"obss-bonded-reuse", 1e5, func(cfg Config) func(int64) *Network {
			cfg.Modes = linkmodel.HtModes(2, 40)
			cfg.ChannelWidthMHz = 40
			cfg.RateControl = "minstrel"
			agg := DefaultAggregation()
			agg.MaxAmpduAirUs = 4000
			cfg.Aggregation = &agg
			cfg.ObssPdThresholdDBm = -62
			return DenseGrid(cfg, 6, 3, []int{1, 2, 3}, 25, 1200)
		}},
	}
}

// sliceProbe records every event into a growing slice. It lives here
// rather than using trace.Tracer because the trace package imports
// netsim — the in-package tests need their own recorder.
type sliceProbe struct{ events []Event }

func (p *sliceProbe) OnEvent(ev Event) { p.events = append(p.events, ev) }

// firstDivergence locates the first index where two event streams
// differ (Event is a flat comparable struct). ok=false means the
// streams agree over their common prefix and length.
func firstDivergence(a, b []Event) (int, bool) {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i, true
		}
	}
	if len(a) != len(b) {
		return n, true
	}
	return 0, false
}

// explainDivergence re-runs both configurations with probes attached
// and reports the first event where their streams part ways — turning
// "hash mismatch" into "at t=…, config A did X while config B did Y",
// which is usually enough to name the broken mechanism.
func explainDivergence(buildA, buildB func() *Network, durationUs float64) string {
	pa, pb := &sliceProbe{}, &sliceProbe{}
	na, nb := buildA(), buildB()
	na.AttachProbe(pa)
	nb.AttachProbe(pb)
	na.Run(durationUs)
	nb.Run(durationUs)
	i, diff := firstDivergence(pa.events, pb.events)
	if !diff {
		return "event traces are identical; the divergence is in result aggregation only"
	}
	at := func(evs []Event, i int) string {
		if i >= len(evs) {
			return fmt.Sprintf("<stream ended at %d events>", len(evs))
		}
		return fmt.Sprintf("%+v", evs[i])
	}
	return fmt.Sprintf("first diverging event at index %d:\n  A: %s\n  B: %s",
		i, at(pa.events, i), at(pb.events, i))
}

func TestSpatialIndexEquivalence(t *testing.T) {
	for _, sc := range equivScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			for seed := int64(1); seed <= equivSeeds; seed++ {
				build := func(disable bool) func() *Network {
					cfg := DefaultConfig()
					cfg.disableSpatialIndex = disable
					return func() *Network { return sc.build(cfg)(seed) }
				}
				run := func(disable bool) string {
					return fingerprint(build(disable)().Run(sc.durationUs))
				}
				indexed, brute := run(false), run(true)
				if indexed != brute {
					t.Fatalf("seed %d: indexed run diverged from the brute-force oracle\n%s\nindexed:\n%s\nbrute:\n%s",
						seed, explainDivergence(build(false), build(true), sc.durationUs),
						indexed, brute)
				}
			}
		})
	}
}

// TestObservationEquivalence pins the probe layer's core contract:
// attaching a probe and running the sampler must not perturb the
// simulation. Every preset's fingerprint must be bit-identical between
// a bare run and one carrying a recording probe plus a telemetry tick.
func TestObservationEquivalence(t *testing.T) {
	for _, sc := range equivScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			for seed := int64(1); seed <= equivSeeds; seed++ {
				bare := fingerprint(sc.build(DefaultConfig())(seed).Run(sc.durationUs))
				cfg := DefaultConfig()
				cfg.SampleIntervalUs = sc.durationUs / 64
				n := sc.build(cfg)(seed)
				probe := &sliceProbe{}
				n.AttachProbe(probe)
				r := n.Run(sc.durationUs)
				if observed := fingerprint(r); observed != bare {
					t.Fatalf("seed %d: observation perturbed the run\nbare:\n%s\nobserved:\n%s",
						seed, bare, observed)
				}
				if len(probe.events) == 0 {
					t.Fatalf("seed %d: probe saw no events", seed)
				}
				if r.Samples == nil || r.Samples.Windows() == 0 {
					t.Fatalf("seed %d: sampler recorded no windows", seed)
				}
			}
		})
	}
}
