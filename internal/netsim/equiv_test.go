package netsim

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/linkmodel"
)

// The differential harness. Each optimization in the hot path (the
// grid index, lazy carrier sense, gain domains, the static fill's
// reach, the readable-pair refresh) must never change a run: differential runs one input —
// an equivalence row at one seed, a compat preset, or the walker
// floor — once in production, once with every observer attached, and
// once under each exact test oracle, and every run must produce a
// bit-identical Result. This extends the compat goldens' fingerprint
// technique from "new tree vs recorded hashes" to "live configurations
// of the same tree", which catches bugs on any seed instead of only
// the recorded ones. Fingerprints come from compat_test.go and cover
// every counter, per-AC/per-flow stat, and float in a Result. Eleven
// suites report the harness's check families (diffCheck) over every
// input; the harness runs each input once per test binary.

// equivSeeds is the per-scenario seed fan-out; ≥5 per the harness
// contract so a single lucky event ordering cannot hide a divergence.
const equivSeeds = 5

// equivScenarios covers every scenario preset plus the stressors the
// index must survive: a medium above the brute-scan cutoff, RTS/CTS
// (NAV adoption queries at decode range),
// roaming with downlink handoff (incremental grid updates and medium
// migration), and the 3-channel LargeFloor with an OBSS-PD-style CS
// threshold (many small neighborhoods — the case the index exists for).
// A row whose name contains "roam" must roam (differential), and a
// row in gridRows must take the grid path (TestSpatialIndexEquivalence).
func equivScenarios() []equivRow {
	return []equivRow{
		{"single-link", 2e5, func(cfg Config) func(int64) *Network {
			return SingleLink(cfg, 12, 1000)
		}},
		{"dense-grid-cochannel", 1.5e5, func(cfg Config) func(int64) *Network {
			return DenseGrid(cfg, 3, 3, []int{1}, 25, 900)
		}},
		// 8 BSS x 8 saturated stations on ONE channel = 72 nodes on one
		// medium — above medium.bruteScanCutoff, so the indexed run
		// really takes the grid path. (The name records the 5 dB
		// shadowing the row was once built with; the geometry is
		// unchanged.)
		{"dense-grid-shadowed", 1e5, func(cfg Config) func(int64) *Network {
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
			return roamingCrowd(cfg, 4, 16, 40, 10, 30)
		}},
		// The crowd at 72 walkers, 76 nodes on one medium: above the
		// brute-scan cutoff, so every roam tick re-files movers in the
		// grid the indexed scans read.
		{"roaming-crowd-indexed", 1.5e6, func(cfg Config) func(int64) *Network {
			cfg.RoamIntervalUs = 20000
			return roamingCrowd(cfg, 4, 72, 40, 10, 30)
		}},
		// 72 walkers among 8 co-channel APs 80 m apart, at 150–300 m/s
		// over a 580 m row (five ~114 m carrier-sense cells): in a 1 s
		// run a walker covers 150–300 m, so one the grid fails to
		// re-file soon stands outside the 3x3 block around its stale
		// cell, and a sender next to it no longer finds it.
		{"roaming-crowd-cells", 1e6, func(cfg Config) func(int64) *Network {
			cfg.RoamIntervalUs = 20000
			return roamingCrowd(cfg, 8, 72, 80, 150, 300)
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
		// The same 108-node medium with RTS on every frame: each RTS
		// and CTS runs the NAV scan over the grid's decode-range query.
		{"large-floor-rts", 3e4, func(cfg Config) func(int64) *Network {
			cfg.CSThresholdDBm = -62
			return LargeFloor(rtsEvery(cfg), 36, 2, 6, 1)
		}},
		// The same 108-node medium with a station at each AP on a
		// saturated downlink and the other on a saturated uplink. At
		// -62 dBm the carrier-sense reach is about 31 m, so a static
		// fill skips most pairs of two stations, but not those of a
		// downlink's receiver, whose frames cross the interference of
		// uplink senders across the floor.
		{"large-floor-downlink", 3e4, func(cfg Config) func(int64) *Network {
			cfg.CSThresholdDBm = -62
			return downlinkFloor(cfg)
		}},
		// RTS under OBSS-PD coloring at the default -82 dBm energy
		// detect: the indexed CS and NAV scans apply the color-aware
		// window to every inter-BSS listener.
		{"large-floor-obss-rts", 3e4, func(cfg Config) func(int64) *Network {
			cfg.ObssPdThresholdDBm = -62
			return LargeFloor(rtsEvery(cfg), 36, 2, 6, 1)
		}},
		// The floor bonded on {1,2,3}, one component of 108 nodes:
		// half-power CS and the full-cover NAV rule over the grid.
		{"large-floor-bonded", 3e4, func(cfg Config) func(int64) *Network {
			cfg.ObssPdThresholdDBm = -62
			return LargeFloor(rtsEvery(bondedHt(cfg)), 36, 2, 6, 1, 2, 3)
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

// equivRow is one equivalence row: a floor builder over a caller's
// Config, run for durationUs.
type equivRow struct {
	name       string
	durationUs float64
	build      func(cfg Config) func(seed int64) *Network
}

// withOracles switches on n's test oracles, the one way a test sets
// them. n must not be prepared yet: most oracles act at build.
func withOracles(n *Network, o oracles) *Network {
	if n.prepared {
		panic("netsim: withOracles after Prepare")
	}
	n.oracle = o
	return n
}

// diffInput is one input of the differential harness: a builder of
// its network with the given test oracles switched on, the virtual
// time each run lasts, and what its runs must show beyond equality.
type diffInput struct {
	name       string
	durationUs float64
	build      func(oracles) *Network
	shards     int  // when positive, the engine count every run must use
	roams      bool // production must reassociate a station
	grid       bool // the indexed carrier-sense scan must walk fewer candidates than brute force
}

// diffGroup is one subtest of the harness's suites: an equivalence row
// at each of its seeds, a compat preset, or the walker floor.
type diffGroup struct {
	name   string
	inputs []diffInput
}

// diffGroups lists every harness input: each equivalence row at each
// of equivSeeds seeds, each compat preset, and walker-floor-272, the
// striped refresh's case. roaming-short-tick, whose ticks fall while
// frames are on the air to roamed-off receivers, runs shortTickSeeds
// seeds: the refresh's in-flight branches (gainState.offAir,
// refreshRow's off-medium receivers) are hit on few of them.
func diffGroups() []diffGroup {
	var gs []diffGroup
	for _, sc := range equivScenarios() {
		g, seeds := diffGroup{name: sc.name}, int64(equivSeeds)
		if sc.name == "roaming-short-tick" {
			seeds = shortTickSeeds
		}
		for seed := int64(1); seed <= seeds; seed++ {
			g.inputs = append(g.inputs, diffInput{
				name:       fmt.Sprintf("%s/seed%d", sc.name, seed),
				durationUs: sc.durationUs,
				build: func(o oracles) *Network {
					return withOracles(sc.build(DefaultConfig())(seed), o)
				},
				roams: strings.Contains(sc.name, "roam"),
				grid:  gridRows[sc.name],
			})
		}
		gs = append(gs, g)
	}
	for _, row := range compatScenarios() {
		in := diffInput{name: row.name, durationUs: row.durationUs, shards: row.shards,
			build: func(o oracles) *Network { return withOracles(row.build(), o) }}
		gs = append(gs, diffGroup{row.name, []diffInput{in}})
	}
	walker := diffInput{name: "walker-floor-272", durationUs: 1e6,
		build: func(o oracles) *Network { return withOracles(walkerFloor(1), o) }}
	return append(gs, diffGroup{walker.name, []diffInput{walker}})
}

// diffCheck names one family of the harness's checks. The test named
// beside each reports it.
type diffCheck int

const (
	spatialCheck      diffCheck = iota // TestSpatialIndexEquivalence
	observationCheck                   // TestObservationEquivalence
	eagerCheck                         // TestEagerTrackingEquivalence
	domainCheck                        // TestGainDomainEquivalence
	invariantCheck                     // TestCarrierSenseInvariants
	conservationCheck                  // TestPacketConservation
	crossingCheck                      // TestCrossingsCounter
	refreshCheck                       // TestReadableRefreshMatchesFullRefresh
	recomputeCheck                     // TestMobileRefreshMatchesRecompute
	gridCheck                          // TestGridNeighborLinks
	skipCheck                          // TestStaticFillSkipsOnlyQuietPairs
	numChecks
)

// diffReport is what the harness found on one input: each check
// family's first failure ("" where it held), and the figures the
// suites total over every input.
type diffReport struct {
	fail    [numChecks]string
	domains int       // gain domains of the production build
	sharded bool      // the observed run used more than one engine
	counted pairCount // the poisoned run's roam-tick observer, when mobile
	skipped int       // same-domain pairs the production build's fill skipped
}

// differential runs input in through every exact oracle and both
// invariant probes, and holds each run to the input's one production
// run (no oracle, no observer):
//   - One observed run carries every observer: the telemetry sampler,
//     a counting crossing probe per partition (AttachShardProbes) and,
//     on a single-engine plan, csInvariantProbe, whose check walks
//     every medium and node. Neither the probes nor the sampler change
//     the plan, and they promise not to perturb a run, so its
//     fingerprint must be production's and its series must keep the
//     sampler's contract (sampleFault). The packet books are then
//     checked on its network.
//   - One run per exact oracle: disableSpatialIndex, eagerCarrierSense,
//     and on a static build oneGainDomain, whose one domain computes
//     every pair, and the fill with every skipped cell poisoned with
//     the loudest power every threshold test calls quiet
//     (poisonSkippedGains); on a mobile build, the
//     readable-pair refresh with every skipped cell poisoned with NaN
//     (poisonSkippedGains), carrying csInvariantProbe, which fails on a
//     NaN read, the roam-tick pair counter (countPairs) and the grid
//     link check (watchGrid), and the fullGainRefresh oracle. A mobile
//     build is one gain domain and a static one never refreshes, so
//     each skipped oracle would take production's own path.
//
// A run that diverges is explained by explainDivergence. A row that
// should roam and does not fails t at once.
func differential(t *testing.T, in diffInput) diffReport {
	t.Helper()
	var rep diffReport
	fail := func(c diffCheck, format string, args ...any) {
		if rep.fail[c] == "" {
			rep.fail[c] = fmt.Sprintf(format, args...)
		}
	}
	run := func(o oracles, prep func(*Network)) (*Network, Result) {
		n := in.build(o)
		if prep != nil {
			prep(n)
		}
		r := n.Run(in.durationUs)
		if in.shards > 0 && r.Shards != in.shards {
			fail(domainCheck, "the run under %+v used %d shards, want %d", o, r.Shards, in.shards)
		}
		return n, r
	}
	n, prod := run(oracles{}, nil)
	fp := fingerprint(prod)
	if in.roams && prod.Roams == 0 {
		t.Fatalf("%s: no station roamed — the input no longer exercises reassociation", in.name)
	}
	rep.domains = n.gains.domains()
	// exact runs the input under oracles o and holds the run to
	// production, naming the first event where their streams part.
	exact := func(c diffCheck, o oracles, prep func(*Network), ignore ...EventKind) (*Network, Result, bool) {
		n, r := run(o, prep)
		if fingerprint(r) == fp {
			return n, r, true
		}
		fail(c, "the run under %+v diverged from production\n%s", o, explainDivergence(
			func() *Network { return in.build(oracles{}) }, func() *Network { return in.build(o) },
			in.durationUs, ignore...))
		return n, r, false
	}

	var crossings []*crossingProbe
	var inv *csInvariantProbe
	obs, r := run(oracles{}, func(n *Network) {
		n.cfg.SampleIntervalUs = in.durationUs / 64
		if n.cfg.Shards <= 1 {
			inv = &csInvariantProbe{n: n}
		}
		n.AttachShardProbes(func(int) Probe {
			cross := &crossingProbe{n: n}
			crossings = append(crossings, cross)
			if inv != nil {
				return fanout{cross, inv}
			}
			return cross
		})
	})
	if got := fingerprint(r); got != fp {
		fail(observationCheck, "observation perturbed the run\nbare:\n%s\nobserved:\n%s", fp, got)
	}
	events, starts, crossed := 0, 0, 0
	for _, c := range crossings {
		events += c.events
		starts += c.starts
		crossed += c.crossings
	}
	if events == 0 {
		fail(observationCheck, "probe saw no events")
	}
	if d := sampleFault(r); d != "" {
		fail(observationCheck, "%s", d)
	}
	if inv != nil && inv.err != nil {
		fail(invariantCheck, "%v", inv.err)
	} else if inv != nil && inv.checks == 0 {
		fail(invariantCheck, "no frame ended")
	}
	if d := unconserved(obs, r); d != "" {
		fail(conservationCheck, "%s", d)
	}
	// Each engine has its own crossing probe, so a sharded run checks
	// the per-shard sums.
	if r.FrameStarts == 0 {
		fail(crossingCheck, "no frame started")
	} else if r.FrameStarts != starts || r.Crossings != crossed {
		fail(crossingCheck, "Result counts %d frame starts crossing %d frames on the air, the probes %d crossing %d",
			r.FrameStarts, r.Crossings, starts, crossed)
	}
	rep.sharded = r.Shards > 1

	// The grid's superset guarantee as a count: the index only drops
	// candidates the scan's row test would reject, so hears judges the
	// same candidates either way, out of no more walked.
	if _, brute, ok := exact(spatialCheck, oracles{disableSpatialIndex: true}, nil); ok {
		switch {
		case prod.CsJudged != brute.CsJudged:
			fail(spatialCheck, "carrier sense judged %d candidates indexed, %d brute force", prod.CsJudged, brute.CsJudged)
		case prod.CsCandidates > brute.CsCandidates:
			fail(spatialCheck, "indexed scan walked %d candidates, more than brute force's %d", prod.CsCandidates, brute.CsCandidates)
		case in.grid && prod.CsCandidates == brute.CsCandidates:
			fail(spatialCheck, "indexed scan walked all %d brute-force candidates — the input no longer takes the grid path", brute.CsCandidates)
		}
	}
	// The eager run also reports EvObssIgnore for idle nodes.
	exact(eagerCheck, oracles{eagerCarrierSense: true}, nil, EvObssIgnore)
	if n.cfg.RoamIntervalUs == 0 {
		exact(domainCheck, oracles{oneGainDomain: true}, nil)
		exact(skipCheck, oracles{poisonSkippedGains: true}, nil)
		rep.skipped = domainPairs(n) - prod.GainFillPairs
		if prod.GainRefreshPairs != 0 {
			fail(recomputeCheck, "a static run reports %d refreshed pairs, want 0", prod.GainRefreshPairs)
		}
		return rep
	}

	var grid *gridWatch
	pn, pr, _ := exact(refreshCheck, oracles{poisonSkippedGains: true}, func(n *Network) {
		inv = &csInvariantProbe{n: n}
		countPairs(n, &rep.counted, inv)
		grid = watchGrid(n)
	})
	if inv.err != nil {
		fail(refreshCheck, "with skipped cells poisoned: %v", inv.err)
	}
	if grid.fault != "" {
		fail(gridCheck, "%s", grid.fault)
	} else if grid.ticks == 0 {
		fail(gridCheck, "no roam tick observed")
	}
	c := &rep.counted
	switch {
	case c.asym != "":
		fail(recomputeCheck, "%s", c.asym)
	case c.ticks == 0:
		fail(recomputeCheck, "no roam tick moved a node")
	case pr.GainRefreshPairs != c.pairs:
		fail(recomputeCheck, "GainRefreshPairs = %d, the closed form over the observed movers and roams gives %d",
			pr.GainRefreshPairs, c.pairs)
	}
	if d := staleGain(pn); d != "" {
		fail(recomputeCheck, "%s", d)
	}
	// Below the 256-node cutover the refresh runs on the calling
	// goroutine and allocates nothing.
	if len(pn.nodes) < 256 {
		if a := testing.AllocsPerRun(5, func() { pn.gains.refresh(pn.nodes) }); a != 0 {
			fail(recomputeCheck, "a gain refresh on %d nodes made %v allocations, want 0", len(pn.nodes), a)
		}
	}
	exact(refreshCheck, oracles{fullGainRefresh: true}, nil)
	return rep
}

// diffReports memoizes the harness by input name: the eleven suites
// each report one check family of the same runs.
var diffReports = map[string]diffReport{}

// eachReport runs the harness on every input, once per test binary,
// one subtest per diffGroup, and fails on check c's findings. It
// returns every input's report, and whether every group ran (a -run
// pattern may select a few).
func eachReport(t *testing.T, c diffCheck) (reps []diffReport, all bool) {
	groups := diffGroups()
	ran := 0
	for _, g := range groups {
		t.Run(g.name, func(t *testing.T) {
			ran++
			for _, in := range g.inputs {
				rep, ok := diffReports[in.name]
				if !ok {
					rep = differential(t, in)
					diffReports[in.name] = rep
				}
				if f := rep.fail[c]; f != "" {
					t.Errorf("%s: %s", in.name, f)
				}
				reps = append(reps, rep)
			}
		})
	}
	return reps, ran == len(groups)
}

// fanout hands each event to every probe in turn.
type fanout []Probe

func (f fanout) OnEvent(ev Event) {
	for _, p := range f {
		p.OnEvent(ev)
	}
}

// gridRows names the equivScenarios rows with a medium above
// bruteScanCutoff, whose indexed runs must take the grid path: there
// the indexed carrier-sense scan walks fewer candidates than the
// brute-force one, so a row shrunk below the cutoff fails
// TestSpatialIndexEquivalence instead of quietly comparing the
// brute-force scan with itself.
var gridRows = map[string]bool{
	"dense-grid-shadowed":   true,
	"roaming-crowd-indexed": true,
	"roaming-crowd-cells":   true,
	"large-floor-reuse":     true,
	"large-floor-downlink":  true,
	"large-floor-rts":       true,
	"large-floor-obss-rts":  true,
	"large-floor-bonded":    true,
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

// downlinkFloor is LargeFloor's 36-BSS floor with two stations per
// AP on one channel, each AP sending its first station a saturated
// 1000-byte downlink and the second station a saturated 1000-byte
// uplink.
func downlinkFloor(cfg Config) func(seed int64) *Network {
	return func(seed int64) *Network {
		n := New(cfg, seed)
		RingFloor(n, 36, 2, 6, largeFloorSpacingM, []int{1}, func(b *BSS, st *Node, s int) {
			spec := FlowSpec{From: st, AC: AC_BE, Gen: Saturated{PayloadBytes: 1000}}
			if s == 0 {
				spec.From, spec.To = b.AP, st
			}
			n.Add(spec)
		})
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

// roamingCrowd puts the given number of APs on channel 1, pitchM
// apart in a row, and the given number of stations on random-waypoint
// walks over the row (10 m beyond its end APs, ±10 m across it) at
// minMps–maxMps, alternately saturated and Poisson (100 pkt/s)
// 1000-byte uplinks. cfg.RoamIntervalUs must be set.
func roamingCrowd(cfg Config, nAPs, walkers int, pitchM, minMps, maxMps float64) func(seed int64) *Network {
	return func(seed int64) *Network {
		n := New(cfg, seed)
		aps := make([]*BSS, nAPs)
		for i := range aps {
			aps[i] = n.AddAP(fmt.Sprintf("AP%d", i), pitchM*float64(i), 0, 1)
		}
		walk := RandomWaypoint{MinX: -10, MaxX: pitchM*float64(nAPs-1) + 10, MinY: -10, MaxY: 10,
			SpeedMinMps: minMps, SpeedMaxMps: maxMps}
		for s := 0; s < walkers; s++ {
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

// TestSpatialIndexEquivalence: every input is bit-identical with the
// grid index on and with the brute-force oracle (disableSpatialIndex),
// carrier sense judges the same candidates either way out of no more
// walked, and strictly fewer on the gridRows rows.
func TestSpatialIndexEquivalence(t *testing.T) {
	marked := 0
	for _, sc := range equivScenarios() {
		if gridRows[sc.name] {
			marked++
		}
	}
	if marked != len(gridRows) {
		t.Fatalf("%d of the %d gridRows name an equivalence row", marked, len(gridRows))
	}
	eachReport(t, spatialCheck)
}

// TestObservationEquivalence pins the probe layer's core contract:
// attaching probes and running the sampler must not perturb the
// simulation. Every input's observed run is bit-identical to its
// production run, its probes saw events, and its sampler, on every
// plan, recorded windows that integrate to the run's aggregates.
func TestObservationEquivalence(t *testing.T) {
	eachReport(t, observationCheck)
}

// TestEagerTrackingEquivalence pins lazy carrier sense against its
// definition. Production tracks a node only while it has traffic
// (Node.joinCS / maybeLeaveCS) and derives a late joiner's busy count
// from the frames already on the air; the oracle
// (eagerCarrierSense) tracks every node from Prepare on, so every
// busy count is built by medium.start's own scan. The two must produce
// bit-identical Results on every input.
func TestEagerTrackingEquivalence(t *testing.T) {
	eachReport(t, eagerCheck)
}

// TestStaticFillSkipsOnlyQuietPairs pins a static build's fill, which
// computes only the pairs with a frame receiver or within the reach of
// the threshold tests (gainState), against the full matrix. On every
// static input, the run whose skipped cells hold the loudest power
// every threshold test still calls quiet (poisonSkippedGains: just
// below the carrier-sense threshold, and the NAV-decode one with
// RTS/CTS on) is bit-identical to production, so no run uses a skipped
// pair's value or passes a threshold at one. Most small inputs lie
// within reach and skip nothing; over every input some pair must be
// skipped, or the poison shows nothing. (The oneGainDomain oracle,
// which computes every pair, holds the same from the other side.)
func TestStaticFillSkipsOnlyQuietPairs(t *testing.T) {
	reps, all := eachReport(t, skipCheck)
	skipped := 0
	for _, r := range reps {
		skipped += r.skipped
	}
	if all && skipped == 0 {
		t.Fatal("no static build skipped a pair: the poisoned runs cannot tell the rule from a full fill")
	}
}

// TestGainDomainEquivalence pins the gain domains against the layout
// they replace. Production stores one gain matrix per domain (channels,
// merged where a flow crosses them); the oracle (oneGainDomain)
// stores one matrix over every node, as a mobile build does. A partition
// that splits a pair the run reads would read another pair's gain (or
// none), so the two must produce bit-identical Results on every static
// input, the sharded compat presets at their engine counts. The
// cross-channel-flows row fails when the partition ignores flows (its
// pinned station reads gains across channels).
func TestGainDomainEquivalence(t *testing.T) {
	reps, all := eachReport(t, domainCheck)
	if all && !slices.ContainsFunc(reps, func(r diffReport) bool { return r.domains > 1 }) {
		t.Fatal("no production build split into more than one gain domain")
	}
}
