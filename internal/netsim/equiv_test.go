package netsim

import (
	"fmt"
	"slices"
	"strings"
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
// per-AC/per-flow stat, and float in a Result. The same rows hold lazy
// carrier sense against the eager-tracking oracle
// (TestEagerTrackingEquivalence) and feed the invariant probe in
// invariants_test.go.

// equivSeeds is the per-scenario seed fan-out; ≥5 per the harness
// contract so a single lucky event ordering cannot hide a divergence.
const equivSeeds = 5

// equivScenarios covers every scenario preset plus the stressors the
// index must survive: per-pair shadowing (query radii must widen to the
// luckiest draw), RTS/CTS (NAV adoption queries at decode range),
// roaming with downlink handoff (incremental grid updates and medium
// migration), and the 3-channel LargeFloor with an OBSS-PD-style CS
// threshold (many small neighborhoods — the case the index exists for).
// A row whose name contains "roam" must roam (runRow).
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
		// A 60 m AP gap, so the walker reassociates once in the 2 s run.
		{"roaming-walk-downlink", 2e6, func(cfg Config) func(int64) *Network {
			cfg.RoamIntervalUs = 100000
			e := DefaultEdca(cfg.Dcf, cfg.QueueLimit)
			cfg.Edca = &e
			return RoamingWalkDownlink(cfg, 60, 20)
		}},
		// 16 random-waypoint stations among 4 co-channel APs: about 20
		// roams a run in which the roamer stays on its medium and keeps
		// its membership number, so reassociation's carrier-sense
		// re-baseline must file it where the start-time scan would. The
		// walk spans 140 m, beyond the ~114 m carrier-sense range, so a
		// move can flip whether an idle station hears a frame still on
		// the air.
		{"roaming-crowd", 3e6, func(cfg Config) func(int64) *Network {
			cfg.RoamIntervalUs = 20000
			return roamingCrowd(cfg)
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
			return DenseGrid(bondedHt(cfg), 6, 3, []int{1, 2, 3}, 25, 1200)
		}},
		// The bonded Minstrel floor again, with OBSS-PD coloring on:
		// the color-aware window is re-evaluated per listener inside
		// the CS scan and NAV adoption the index accelerates, and
		// co-channel cells 50 m apart (~-71 dBm) land inside the
		// (-82, -62) window, so ignore decisions and backed-off
		// transmissions run hot. The oracle must agree on every one.
		{"obss-bonded-reuse", 1e5, func(cfg Config) func(int64) *Network {
			cfg.ObssPdThresholdDBm = -62
			return DenseGrid(bondedHt(cfg), 6, 3, []int{1, 2, 3}, 25, 1200)
		}},
		// The two bonded floors again with Poisson stations, which go
		// idle and leave carrier sense between packets: every arrival
		// re-joins mid-frame (Node.joinCS), so the late joiner's busy
		// count must apply the same span, half-slot and OBSS-PD rules as
		// the start-time scan. Saturated rows never leave carrier sense.
		{"ht-bonded-poisson", 3e5, func(cfg Config) func(int64) *Network {
			return poissonGrid(bondedHt(cfg))
		}},
		{"obss-bonded-poisson", 3e5, func(cfg Config) func(int64) *Network {
			cfg.ObssPdThresholdDBm = -62
			return poissonGrid(bondedHt(cfg))
		}},
		// A 1/6/11 floor whose flows join channels, merging their gain
		// domains.
		{"cross-channel-flows", 1.5e5, crossChannelFlows},
		// Walkers among six APs on 1/6/11 with saturated uplinks and
		// downlinks: most roams change medium, often while the old AP
		// is sending to the roamer, so the roam tick's refresh skips
		// pairs between media and each such roam recomputes the
		// roamer's row (refreshRow).
		{"roaming-walkers-1-6-11", 1.5e6, func(cfg Config) func(int64) *Network {
			cfg.RoamIntervalUs = 20000
			return roamingChannels(cfg, 20, 40)
		}},
		// The same floor at 6 Mbps with a 500 µs tick: a 1000-byte
		// frame holds the air for about three ticks, so a station that
		// roams while its old AP sends to it is still that frame's
		// receiver at the next tick, and senders on the old medium
		// (co-channel APs 135 m apart are hidden from each other)
		// cross interference into it at a receiver on another medium.
		{"roaming-short-tick", 1.2e6, func(cfg Config) func(int64) *Network {
			cfg.Modes = cfg.Modes[:1]
			cfg.RoamIntervalUs = 500
			return roamingChannels(cfg, 40, 80)
		}},
	}
}

// roamingChannels puts six APs 45 m apart in a row on channels 1, 6,
// 11, 1, 6, 11 and two stations at each, walking random waypoints over
// the whole row at speedMin–speedMax m/s. Each AP's first station
// sends a saturated 1000-byte uplink, and the AP sends its second one
// a saturated 1000-byte downlink that follows it from AP to AP.
// cfg.RoamIntervalUs must be set.
func roamingChannels(cfg Config, speedMin, speedMax float64) func(seed int64) *Network {
	return func(seed int64) *Network {
		n := New(cfg, seed)
		walk := RandomWaypoint{MinX: -10, MaxX: 235, MinY: -10, MaxY: 10,
			SpeedMinMps: speedMin, SpeedMaxMps: speedMax}
		for i, ch := range []int{1, 6, 11, 1, 6, 11} {
			b := n.AddAP(fmt.Sprintf("AP%d", i), float64(45*i), 0, ch)
			up := n.AddStation(b, fmt.Sprintf("up%d", i), b.AP.X+20, 0)
			down := n.AddStation(b, fmt.Sprintf("down%d", i), b.AP.X-20, 0)
			n.SetRandomWaypoint(up, walk)
			n.SetRandomWaypoint(down, walk)
			n.Add(FlowSpec{From: up, AC: AC_BE, Gen: Saturated{PayloadBytes: 1000}})
			n.Add(FlowSpec{From: b.AP, To: down, AC: AC_BE, Gen: Saturated{PayloadBytes: 1000}})
		}
		return n
	}
}

// crossChannelFlows is a 6-BSS 1/6/11 floor of saturated stations
// (APs 25 m apart, channel 1 at the origin) plus two Poisson flows that
// join channels. A new station on channel 11 is pinned to a channel-6
// AP about 85 m away: its frames go out on channel 11 to a receiver on
// channel 6 and never deliver, but the simulator reads the gains
// between the two channels — the rate choice (well below the top rate
// at that range) and every concurrent channel-11 sender's power at the
// off-channel AP. A STA→STA relay runs from a new channel-1 station to
// a channel-6 station; its second hop is sent by the destination's own
// AP, so it reads no cross-channel gain, and the domain merge on it is
// conservative.
func crossChannelFlows(cfg Config) func(seed int64) *Network {
	build := DenseGrid(cfg, 6, 3, []int{1, 6, 11}, 25, 1000)
	return func(seed int64) *Network {
		n := build(seed)
		ch1, ch6, ch11 := n.bss[0], n.bss[4], n.bss[2]
		relay := n.AddStation(ch1, "relay", ch1.AP.X+4, ch1.AP.Y+4)
		n.Add(FlowSpec{From: relay, To: n.nodes[ch6.AP.id+1], AC: AC_BE,
			Gen: Poisson{PayloadBytes: 500, PktPerSec: 200}})
		pinned := n.AddStation(ch11, "pinned", 80, -40)
		n.Add(FlowSpec{From: pinned, To: ch6.AP, AC: AC_BE,
			Gen: Poisson{PayloadBytes: 500, PktPerSec: 200}})
		return n
	}
}

// bondedHt switches cfg to the 2x2 40 MHz HT PHY with Minstrel and
// 4 ms-capped A-MPDU — HtConfig(2, 40) over a caller's test knobs.
func bondedHt(cfg Config) Config {
	cfg.Modes = linkmodel.HtModes(2, 40)
	cfg.ChannelWidthMHz = 40
	cfg.RateControl = "minstrel"
	agg := DefaultAggregation()
	agg.MaxAmpduAirUs = 4000
	cfg.Aggregation = &agg
	return cfg
}

// poissonGrid is the bonded rows' 6-BSS floor on channels {1,2,3} with
// 4 stations per BSS, each saturated uplink swapped for a Poisson
// 150 pkt/s one of the same 1200 bytes.
func poissonGrid(cfg Config) func(seed int64) *Network {
	build := DenseGrid(cfg, 6, 4, []int{1, 2, 3}, 25, 1200)
	return func(seed int64) *Network {
		n := build(seed)
		for _, f := range n.flows {
			f.Gen = Poisson{PayloadBytes: 1200, PktPerSec: 150}
		}
		return n
	}
}

// roamingCrowd puts 4 APs on channel 1, 40 m apart in a row, and 16
// stations on random-waypoint walks over the row at 10–30 m/s,
// alternately saturated and Poisson (100 pkt/s) 1000-byte uplinks.
// cfg.RoamIntervalUs must be set.
func roamingCrowd(cfg Config) func(seed int64) *Network {
	return func(seed int64) *Network {
		n := New(cfg, seed)
		aps := make([]*BSS, 4)
		for i := range aps {
			aps[i] = n.AddAP(fmt.Sprintf("AP%d", i), float64(40*i), 0, 1)
		}
		walk := RandomWaypoint{MinX: -10, MaxX: 130, MinY: -10, MaxY: 10,
			SpeedMinMps: 10, SpeedMaxMps: 30}
		for s := 0; s < 16; s++ {
			b := aps[s%len(aps)]
			st := n.AddStation(b, fmt.Sprintf("sta%d", s), b.AP.X+5, 0)
			n.SetRandomWaypoint(st, walk)
			var gen TrafficGen = Saturated{PayloadBytes: 1000}
			if s%2 == 1 {
				gen = Poisson{PayloadBytes: 1000, PktPerSec: 100}
			}
			n.Add(FlowSpec{From: st, AC: AC_BE, Gen: gen})
		}
		return n
	}
}

// runRow runs one equivalence-row network and returns its fingerprint.
// A row named for roaming must actually roam: one that stops
// reassociating no longer pins the handoff path against its oracle.
func runRow(t *testing.T, name string, n *Network, durationUs float64) string {
	t.Helper()
	r := n.Run(durationUs)
	if strings.Contains(name, "roam") && r.Roams == 0 {
		t.Fatalf("%s: no station roamed — the row no longer exercises reassociation", name)
	}
	return fingerprint(r)
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
// Events of the ignored kinds are dropped from both streams first, for
// configurations that legitimately report different observations.
func explainDivergence(buildA, buildB func() *Network, durationUs float64, ignore ...EventKind) string {
	pa, pb := &sliceProbe{}, &sliceProbe{}
	na, nb := buildA(), buildB()
	na.AttachProbe(pa)
	nb.AttachProbe(pb)
	na.Run(durationUs)
	nb.Run(durationUs)
	for _, p := range []*sliceProbe{pa, pb} {
		p.events = slices.DeleteFunc(p.events, func(ev Event) bool {
			return slices.Contains(ignore, ev.Kind)
		})
	}
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
					return runRow(t, sc.name, build(disable)(), sc.durationUs)
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
				bare := runRow(t, sc.name, sc.build(DefaultConfig())(seed), sc.durationUs)
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

// TestEagerTrackingEquivalence pins lazy carrier sense against its
// definition. Production tracks a node only while it has traffic
// (Node.joinCS / maybeLeaveCS) and derives a late joiner's busy count
// from the frames already on the air; the oracle
// (Config.eagerCarrierSense) tracks every node from Prepare on, so every
// busy count is built by medium.start's own scan. The two must produce
// bit-identical Results on every row. Only the EvObssIgnore
// observations differ: the eager run also reports them for idle nodes.
func TestEagerTrackingEquivalence(t *testing.T) {
	for _, sc := range equivScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			for seed := int64(1); seed <= equivSeeds; seed++ {
				build := func(eager bool) func() *Network {
					cfg := DefaultConfig()
					cfg.eagerCarrierSense = eager
					return func() *Network { return sc.build(cfg)(seed) }
				}
				lazy := runRow(t, sc.name, build(false)(), sc.durationUs)
				eager := runRow(t, sc.name, build(true)(), sc.durationUs)
				if lazy != eager {
					t.Errorf("seed %d: lazy carrier sense diverged from the eager-tracking oracle\n%s",
						seed, explainDivergence(build(false), build(true), sc.durationUs, EvObssIgnore))
				}
			}
		})
	}
}

// TestGainDomainEquivalence pins the gain domains against the layout
// they replace. Production stores one gain matrix per domain (channels,
// merged where a flow crosses them); the oracle (Config.oneGainDomain)
// stores one matrix over every node, as a mobile build does. A partition
// that splits a pair the run reads would read another pair's gain (or
// none), so the two must produce bit-identical Results on every
// equivalence row and seed and every compat preset, sharded and bonded
// included. The cross-channel-flows row fails when the partition
// ignores flows (its pinned station reads gains across channels).
func TestGainDomainEquivalence(t *testing.T) {
	split := 0 // production builds with more than one domain
	check := func(t *testing.T, label string, build func(one bool) *Network, durationUs float64, shards int) {
		t.Helper()
		var fp [2]string
		for k, one := range []bool{false, true} {
			n := build(one)
			r := n.Run(durationUs)
			if shards > 0 && r.Shards != shards {
				t.Fatalf("%s ran %d shards, want %d", label, r.Shards, shards)
			}
			if !one && len(n.gainBounds) > 2 {
				split++
			}
			fp[k] = fingerprint(r)
		}
		if fp[0] != fp[1] {
			t.Errorf("%s: per-domain gains diverged from the one-domain oracle\n%s",
				label, explainDivergence(func() *Network { return build(false) }, func() *Network { return build(true) }, durationUs))
		}
	}
	for _, sc := range equivScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			for seed := int64(1); seed <= equivSeeds; seed++ {
				check(t, fmt.Sprintf("seed %d", seed), func(one bool) *Network {
					cfg := DefaultConfig()
					cfg.oneGainDomain = one
					return sc.build(cfg)(seed)
				}, sc.durationUs, 0)
			}
		})
	}
	for _, row := range compatScenarios() {
		t.Run(row.name, func(t *testing.T) {
			check(t, row.name, func(one bool) *Network {
				n := row.build()
				n.cfg.oneGainDomain = one
				return n
			}, row.durationUs, row.shards)
		})
	}
	if split == 0 {
		t.Fatal("no production build split into more than one gain domain")
	}
}
