package netsim

import (
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/linkmodel"
	"repro/internal/sim"
)

// The sharded-execution test suite: planning edge cases, the co-shard
// invariant that keeps engines independent, repeat/worker determinism,
// the bit-identical fallback paths, one result across every
// multi-shard count, and the statistical equivalence of sharded runs
// against the single-engine oracle.
//
// Two different equivalence strengths apply, and the tests keep them
// apart deliberately. Runs that end up on ONE engine — fallback,
// clamping, Shards: 0/1 — must be bit-identical to the classic
// simulator, and failures there get the explainDivergence treatment
// (name the first diverging event). A multi-shard plan gives each
// interaction group its own engine and split RNG stream, so every
// Shards: 2…N must agree bit for bit with every other, while its draws
// legitimately differ from the single engine's un-split stream; there
// the contract against Shards: 1 is statistically identical
// aggregates.

// shardScenarios are presets with enough channel separation to
// decompose into several interaction groups — the floors sharding
// exists for.
func shardScenarios() []struct {
	name       string
	durationUs float64
	groups     int
	build      func(cfg Config) func(seed int64) *Network
} {
	return []struct {
		name       string
		durationUs float64
		groups     int
		build      func(cfg Config) func(seed int64) *Network
	}{
		// 9 BSS on 3 channels: same-channel BSSs all couple (25 m pitch),
		// so the floor decomposes into exactly one group per channel.
		{"dense-grid-3ch", 1.5e5, 3, func(cfg Config) func(int64) *Network {
			return DenseGrid(cfg, 9, 2, []int{1, 6, 11}, 25, 900)
		}},
		// The E27 shape: 36 BSS across 3 channels with saturated +
		// keepalive traffic per BSS.
		{"large-floor-3ch", 1e5, 3, func(cfg Config) func(int64) *Network {
			return LargeFloor(cfg, 36, 2, 6, 1, 6, 11)
		}},
		// OBSS-PD-style threshold and 4 channels — CS range shrinks but
		// the interference radius keeps same-channel groups whole.
		{"large-floor-obss-4ch", 1e5, 4, func(cfg Config) func(int64) *Network {
			cfg.CSThresholdDBm = -62
			return LargeFloor(cfg, 36, 2, 6, 1, 6, 11, 36)
		}},
		// Bonded 40 MHz floor: spans {1,2}, {6,7}, {11,12} are spectrally
		// disjoint, so channelsCouple still decomposes the floor into one
		// group per span — sharded execution must stay statistically
		// equivalent with bonding and A-MPDU on. Rate selection stays
		// fixed (per-link BestMode): Minstrel's EWMA feedback makes dense
		// floors multi-stable, so its seed-to-seed spread swamps an 8%
		// statistical pin — its sharded correctness is pinned bit-exactly
		// by TestShardedRepeatDeterminism instead.
		{"dense-grid-ht-bonded", 1e5, 3, func(cfg Config) func(int64) *Network {
			cfg.Modes = linkmodel.HtModes(2, 40)
			cfg.ChannelWidthMHz = 40
			agg := DefaultAggregation()
			agg.MaxAmpduAirUs = 4000
			cfg.Aggregation = &agg
			return DenseGrid(cfg, 9, 2, []int{1, 6, 11}, 25, 900)
		}},
		// The bonded floor with OBSS-PD coloring on. Reuse decisions
		// read only same-medium state (the active list and per-listener
		// heard power), so the planner's channel groups still hold and
		// sharded execution must stay statistically equivalent with
		// spatial reuse running hot. The 35 m pitch puts co-channel
		// pairs (70 m, ~-75 dBm) in the window while leaving reused
		// links enough SINR to mostly survive the -20 dB backoff —
		// at tighter pitches reuse is all-or-nothing and the floor
		// turns multi-stable, the same reason rate selection stays
		// fixed here (see dense-grid-ht-bonded above).
		{"dense-grid-obss-bonded", 1e5, 3, func(cfg Config) func(int64) *Network {
			cfg.Modes = linkmodel.HtModes(2, 40)
			cfg.ChannelWidthMHz = 40
			agg := DefaultAggregation()
			agg.MaxAmpduAirUs = 4000
			cfg.Aggregation = &agg
			cfg.ObssPdThresholdDBm = -62
			return DenseGrid(cfg, 9, 2, []int{1, 6, 11}, 35, 900)
		}},
	}
}

// assertFlowsCoSharded fails the test unless every flow's endpoints and
// their APs share one shard — the invariant that lets each engine run
// to the horizon with nothing crossing a seam.
func assertFlowsCoSharded(t *testing.T, n *Network) {
	t.Helper()
	if err := n.CheckFlowsCoSharded(); err != nil {
		t.Fatal(err)
	}
}

// TestShardPlanFallbacks: floors and configurations that cannot split
// must fall back to one engine with a recorded reason — never an error.
// Observers are not among them: a sampled run and a run carrying a
// plain Probe keep the bare run's plan and give its result.
func TestShardPlanFallbacks(t *testing.T) {
	cases := []struct {
		name  string
		build func() *Network
		want  string
	}{
		{"single-cell-floor", func() *Network {
			cfg := DefaultConfig()
			cfg.Shards = 4
			// One BSS: nothing to split.
			return SingleLink(cfg, 12, 1000)(3)
		}, "floor is one coupled interaction group"},
		{"cochannel-coupled-floor", func() *Network {
			cfg := DefaultConfig()
			cfg.Shards = 4
			// 9 BSS all on channel 1 within carrier sense: one group.
			return DenseGrid(cfg, 9, 2, []int{1}, 25, 900)(3)
		}, "floor is one coupled interaction group"},
		{"mobility", func() *Network {
			cfg := DefaultConfig()
			cfg.Shards = 4
			cfg.RoamIntervalUs = 1e5
			return RoamingWalk(cfg, 120, 20)(3)
		}, "mobility couples every shard (roam scans read and move global state)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.build()
			n.Prepare()
			plan := n.Plan()
			if plan.Shards != 1 {
				t.Fatalf("plan ran %d shards, want fallback to 1: %+v", plan.Shards, plan)
			}
			if plan.Requested != 4 {
				t.Fatalf("plan lost the request: %+v", plan)
			}
			if plan.Reason != tc.want {
				t.Fatalf("fallback reason %q, want %q", plan.Reason, tc.want)
			}
		})
	}

	// The 1/6/11 floor splits into one group per channel.
	const durationUs = 2e5
	floor := func(sampleUs float64) *Network {
		cfg := DefaultConfig()
		cfg.Shards = 4
		cfg.SampleIntervalUs = sampleUs
		return LargeFloor(cfg, 36, 2, 6, 1, 6, 11)(3)
	}
	bare := floor(0).Run(durationUs)
	sampled, probed := floor(1e4), floor(0)
	probe := &crossingProbe{n: probed}
	probed.AttachProbe(probe)
	for _, tc := range []struct {
		name string
		n    *Network
	}{{"sampler", sampled}, {"plain-probe", probed}} {
		t.Run(tc.name, func(t *testing.T) {
			r := tc.n.Run(durationUs)
			if p := r.Plan; p.Requested != 4 || p.Shards != 3 || p.Groups != 3 || p.Reason != "" {
				t.Fatalf("observed plan %+v, want 3 shards of 3 groups and no fallback", p)
			}
			if got, want := fingerprint(r), fingerprint(bare); got != want {
				t.Fatalf("observed run diverged from the bare one\nbare:\n%s\nobserved:\n%s", want, got)
			}
			if tc.n != probed {
				return
			}
			if probe.starts != r.FrameStarts {
				t.Fatalf("the probe saw %d of the run's %d frame starts", probe.starts, r.FrameStarts)
			}
			if !slices.Equal(r.ShardStats, bare.ShardStats) || !slices.Equal(r.FramePools, bare.FramePools) {
				t.Fatalf("probed run's shard stats %+v and frame pools %+v, bare %+v and %+v",
					r.ShardStats, r.FramePools, bare.ShardStats, bare.FramePools)
			}
		})
	}
}

// TestShardFallbackBitIdentical: a fallen-back multi-shard request must
// reproduce the Shards: 1 run bit for bit — shard 0 runs with the
// Network's own un-split RNG stream, so not even the random sequence
// may shift. Roaming is the interesting case: every roam is a
// potential seam crossing, and the fallback is what makes it safe.
func TestShardFallbackBitIdentical(t *testing.T) {
	build := func(shards int) func() *Network {
		cfg := DefaultConfig()
		cfg.Shards = shards
		cfg.RoamIntervalUs = 1e5
		e := DefaultEdca(cfg.Dcf, cfg.QueueLimit)
		cfg.Edca = &e
		return func() *Network { return RoamingWalkDownlink(cfg, 120, 20)(7) }
	}
	oracle := fingerprint(build(1)().Run(2e6))
	forced := fingerprint(build(4)().Run(2e6))
	if oracle != forced {
		t.Fatalf("fallen-back Shards:4 diverged from Shards:1\n%s\noracle:\n%s\nfallback:\n%s",
			explainDivergence(build(1), build(4), 2e6), oracle, forced)
	}
}

// TestShardClampToGroups: shard count beyond the interaction-group
// count clamps without error, and every group stays whole (nodes of one
// BSS always share a shard with their whole group).
func TestShardClampToGroups(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Shards = 64
	n := LargeFloor(cfg, 36, 2, 6, 1, 6, 11)(5)
	n.Prepare()
	plan := n.Plan()
	if plan.Groups != 3 {
		t.Fatalf("floor decomposed into %d groups, want 3 (one per channel): %+v", plan.Groups, plan)
	}
	if plan.Shards != 3 || plan.Reason != "" {
		t.Fatalf("request for 64 should clamp to 3 silently: %+v", plan)
	}
	// Whole-group placement: all nodes of one channel share one shard.
	byChannel := map[int]*shard{}
	for _, nd := range n.nodes {
		ch := nd.bss.Channel
		if prev, ok := byChannel[ch]; ok && prev != nd.sh {
			t.Fatalf("channel %d split across shards", ch)
		}
		byChannel[ch] = nd.sh
	}
	total := 0
	for _, c := range plan.NodesPerShard {
		total += c
	}
	if total != len(n.nodes) {
		t.Fatalf("NodesPerShard sums to %d, want %d", total, len(n.nodes))
	}
}

// TestShardSeamBridge: a BSS within interaction range of two otherwise
// separate same-channel clusters must pull them into one group — the
// straddling-BSS case. The bridge sits between two channel-1 clusters
// placed far enough apart to be independent without it.
func TestShardSeamBridge(t *testing.T) {
	// interactRangeM under the default model is several km; use the
	// planner's own figure to place the clusters just beyond coupling
	// and the bridge in the middle, within range of both.
	probe := New(DefaultConfig(), 1)
	probe.AddAP("probe", 0, 0, 1)
	pb := probe.bss[0]
	probe.AddStation(pb, "s", 1, 0)
	probe.Add(FlowSpec{From: probe.nodes[1], AC: AC_BE, Gen: Saturated{PayloadBytes: 500}})
	probe.Prepare()
	r := probe.interactRangeM()

	build := func(withBridge bool) *Network {
		cfg := DefaultConfig()
		cfg.Shards = 2
		n := New(cfg, 9)
		add := func(name string, x float64, ch int) {
			b := n.AddAP(name+"-ap", x, 0, ch)
			st := n.AddStation(b, name+"-sta", x+5, 0)
			n.Add(FlowSpec{From: st, AC: AC_BE, Gen: Saturated{PayloadBytes: 500}})
		}
		// Clusters 1.8r apart: beyond r of each other, but a bridge at
		// 0.9r sits within r of both.
		add("west", 0, 1)
		add("east", 1.8*r, 1)
		if withBridge {
			add("mid", 0.9*r, 1)
		} else {
			add("mid", 0.9*r, 6) // other channel: no coupling
		}
		n.Prepare()
		assertFlowsCoSharded(t, n)
		return n
	}
	apart := build(false).Plan()
	if apart.Groups != 3 || apart.Shards != 2 {
		t.Fatalf("without a bridge the clusters must stay independent: %+v", apart)
	}
	bridged := build(true).Plan()
	if bridged.Groups != 1 {
		t.Fatalf("the straddling BSS must merge the clusters into one group: %+v", bridged)
	}
	if bridged.Shards != 1 || bridged.Reason == "" {
		t.Fatalf("one merged group cannot split: %+v", bridged)
	}
}

// TestShardedRepeatDeterminism: for a fixed Shards: N, repeats must be
// bit-identical — same Result fingerprint AND the same per-shard event
// stream, independent of the worker count the engines ran on.
func TestShardedRepeatDeterminism(t *testing.T) {
	for _, sc := range shardScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			run := func(workers int) (string, [][]Event) {
				cfg := DefaultConfig()
				cfg.Shards = sc.groups
				n := sc.build(cfg)(11)
				streams := make([][]Event, sc.groups)
				probes := make([]*sliceProbe, sc.groups)
				n.AttachShardProbes(func(shard int) Probe {
					probes[shard] = &sliceProbe{}
					return probes[shard]
				})
				n.SetWorkers(workers)
				fp := fingerprint(n.Run(sc.durationUs))
				if got := n.Plan().Shards; got != sc.groups {
					t.Fatalf("planned %d shards, want %d: %+v", got, sc.groups, n.Plan())
				}
				assertFlowsCoSharded(t, n)
				for i, p := range probes {
					streams[i] = p.events
				}
				return fp, streams
			}
			refFp, refStreams := run(1)
			for _, workers := range []int{sc.groups, 2 * sc.groups} {
				fp, streams := run(workers)
				if fp != refFp {
					t.Fatalf("workers=%d changed the result fingerprint", workers)
				}
				for s := range refStreams {
					if i, diff := firstDivergence(refStreams[s], streams[s]); diff {
						t.Fatalf("workers=%d: shard %d event stream diverged at %d", workers, s, i)
					}
					if len(refStreams[s]) == 0 {
						t.Fatalf("shard %d saw no events", s)
					}
				}
			}
		})
	}
}

// TestShardedOracleEquivalence pins the sharded runs against the
// single-engine oracle across the sharded presets × equivSeeds. Every
// Shards: N ≥ 2 gives one result (TestShardCountsBitIdentical), but
// its groups draw from per-group split streams while Shards: 1 draws
// from the Network's un-split one, so this pin is statistical: every
// conserved aggregate must balance exactly within each run, and the
// relative gap on the throughput-scale metrics must sit in the
// Monte-Carlo noise band. (Bit-level divergence between N and 1 is
// expected; explainDivergence is for the single-engine paths, where
// divergence means a broken mechanism.)
func TestShardedOracleEquivalence(t *testing.T) {
	const tol = 0.08 // relative; the presets' seed-to-seed spread is ~2-3%
	relDiff := func(a, b float64) float64 {
		if a == 0 && b == 0 {
			return 0
		}
		return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
	}
	for _, sc := range shardScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			var sumOracle, sumSharded float64
			for seed := int64(1); seed <= equivSeeds; seed++ {
				run := func(shards int) (Result, *Network) {
					cfg := DefaultConfig()
					cfg.Shards = shards
					n := sc.build(cfg)(seed)
					return n.Run(sc.durationUs), n
				}
				oracle, _ := run(1)
				sharded, shardedNet := run(sc.groups)
				if sharded.Shards != sc.groups {
					t.Fatalf("seed %d: ran %d shards, want %d", seed, sharded.Shards, sc.groups)
				}
				for name, pair := range map[string][2]float64{
					"delivered": {float64(oracle.Delivered), float64(sharded.Delivered)},
					"attempts":  {float64(oracle.Attempts), float64(sharded.Attempts)},
					"goodput":   {oracle.AggGoodputMbps, sharded.AggGoodputMbps},
				} {
					if d := relDiff(pair[0], pair[1]); d > tol {
						t.Errorf("seed %d: %s diverges %.1f%% (oracle %.1f, sharded %.1f)",
							seed, name, 100*d, pair[0], pair[1])
					}
				}
				// Conservation inside the sharded run: every attempt ends as
				// a delivery, a loss, or is still queued — sharded execution
				// may not duplicate or strand packets. Attempts
				// count exchanges while outcomes count MPDUs, so with
				// aggregation on, one attempt accounts for up to a full
				// burst of outcomes.
				mpdusPerAttempt := 1
				if agg := shardedNet.cfg.Aggregation; agg != nil {
					mpdusPerAttempt = agg.MaxAmpduFrames
				}
				for _, r := range []Result{oracle, sharded} {
					if r.Delivered+r.Collisions+r.NoiseLosses > r.Attempts*mpdusPerAttempt {
						t.Fatalf("seed %d: outcomes exceed attempts: %+v", seed, r)
					}
				}
				sumOracle += oracle.AggGoodputMbps
				sumSharded += sharded.AggGoodputMbps
			}
			// Across seeds the Monte-Carlo noise averages down.
			if d := relDiff(sumOracle, sumSharded); d > tol/2 {
				t.Errorf("mean goodput over %d seeds diverges %.1f%% (oracle %.1f, sharded %.1f)",
					equivSeeds, 100*d, sumOracle/equivSeeds, sumSharded/equivSeeds)
			}
		})
	}
}

// TestShardCountsBitIdentical: every interaction group runs on its own
// engine with its own RNG stream, so the shard count decides only which
// partition runs a group and when, never what it draws. On every
// sharded preset (two seeds), and on E28's 8-group floor at a short
// horizon (one seed), every Shards: 2…groups must give one fingerprint
// and equal merged work counters, engine statistics and frame-pool
// totals.
func TestShardCountsBitIdentical(t *testing.T) {
	type row struct {
		name       string
		durationUs float64
		groups     int
		build      func(cfg Config) func(seed int64) *Network
		seeds      int64
	}
	rows := []row{{"e28-floor-8ch", 2e4, 8, func(cfg Config) func(int64) *Network {
		cfg.CSThresholdDBm = -62
		return LargeFloor(cfg, 1024, 3, 32, 1, 6, 11, 36, 40, 44, 48, 52)
	}, 1}}
	for _, sc := range shardScenarios() {
		rows = append(rows, row{sc.name, sc.durationUs, sc.groups, sc.build, 2})
	}
	type outcome struct {
		fp                              string
		starts, crossings, cands, judge int
		engine                          sim.Stats
		pools                           FramePoolStats
	}
	for _, sc := range rows {
		t.Run(sc.name, func(t *testing.T) {
			for seed := int64(1); seed <= sc.seeds; seed++ {
				var ref outcome
				for shards := 2; shards <= sc.groups; shards++ {
					cfg := DefaultConfig()
					cfg.Shards = shards
					n := sc.build(cfg)(seed)
					r := n.Run(sc.durationUs)
					if r.Shards != shards || r.Plan.Groups != sc.groups {
						t.Fatalf("seed %d: planned %d shards over %d groups, want %d over %d",
							seed, r.Shards, r.Plan.Groups, shards, sc.groups)
					}
					assertFlowsCoSharded(t, n)
					got := outcome{fp: fingerprint(r), starts: r.FrameStarts, crossings: r.Crossings,
						cands: r.CsCandidates, judge: r.CsJudged, engine: r.EngineStats}
					for _, fp := range r.FramePools {
						got.pools.add(fp)
					}
					if shards == 2 {
						ref = got
						continue
					}
					if got.fp != ref.fp {
						t.Fatalf("seed %d: Shards: %d diverged from Shards: 2\n2:\n%s\n%d:\n%s",
							seed, shards, ref.fp, shards, got.fp)
					}
					if got != ref {
						t.Fatalf("seed %d: Shards: %d counters %+v, Shards: 2 %+v", seed, shards, got, ref)
					}
				}
			}
		})
	}
}

// TestShardedEngineStatsAggregation: Result.ShardStats must hold one
// live snapshot per engine and EngineStats their MergeStats fold.
func TestShardedEngineStatsAggregation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Shards = 3
	r := LargeFloor(cfg, 36, 2, 6, 1, 6, 11)(5).Run(1e5)
	if r.Shards != 3 || len(r.ShardStats) != 3 {
		t.Fatalf("Shards %d / %d stats, want 3/3", r.Shards, len(r.ShardStats))
	}
	var fired, scheduled uint64
	hw := 0
	for i, s := range r.ShardStats {
		if s.Fired == 0 {
			t.Fatalf("shard %d fired no events", i)
		}
		fired += s.Fired
		scheduled += s.Scheduled
		if s.HeapHighWater > hw {
			hw = s.HeapHighWater
		}
	}
	if r.EngineStats.Fired != fired || r.EngineStats.Scheduled != scheduled ||
		r.EngineStats.HeapHighWater != hw {
		t.Fatalf("EngineStats %+v does not aggregate %+v", r.EngineStats, r.ShardStats)
	}
}

// TestRunnerParallelismBudget: the two parallelism levels (jobs ×
// shards) must divide the budget instead of multiplying goroutines.
func TestRunnerParallelismBudget(t *testing.T) {
	cases := []struct {
		workers, parallelism  int
		wantTotal, wantPerJob int
	}{
		{4, 8, 8, 2},
		{4, 4, 4, 1},
		{2, 16, 16, 8},
		{8, 2, 2, 1}, // pool larger than the budget: shards get 1 each
		{1, 6, 6, 6}, // serial pool: the one job gets everything
	}
	for _, tc := range cases {
		r := ScenarioRunner{Workers: tc.workers, Parallelism: tc.parallelism}
		total, perJob := r.budget(tc.workers)
		if total != tc.wantTotal || perJob != tc.wantPerJob {
			t.Errorf("budget(workers=%d, parallelism=%d) = (%d, %d), want (%d, %d)",
				tc.workers, tc.parallelism, total, perJob, tc.wantTotal, tc.wantPerJob)
		}
	}
}

// TestRunnerShardedJobsNoOversubscribe: with sharded jobs inside a
// worker pool, at most min(Workers, Parallelism) jobs may ever be in
// flight together, and the budget split must not change any result —
// nested sharded runs produce the same fingerprints as a serial,
// fully-budgeted pass.
func TestRunnerShardedJobsNoOversubscribe(t *testing.T) {
	build := func(seed int64) *Network {
		cfg := DefaultConfig()
		cfg.Shards = 4
		return LargeFloor(cfg, 36, 2, 6, 1, 6, 11, 36)(seed)
	}
	jobs := SeedSweep("sharded", build, 5e4, 0, 6)

	// Bracket each job: Build marks entry on the worker goroutine,
	// OnProgress marks exit. Peak concurrent jobs must respect the
	// budget even though Workers asks for more.
	var mu sync.Mutex
	inFlight, peak := 0, 0
	tracked := make([]Job, len(jobs))
	copy(tracked, jobs)
	for i := range tracked {
		tracked[i].Build = func(seed int64) *Network {
			mu.Lock()
			inFlight++
			if inFlight > peak {
				peak = inFlight
			}
			mu.Unlock()
			return build(seed)
		}
	}
	rr := ScenarioRunner{Workers: 8, Parallelism: 2,
		OnProgress: func(Progress) {
			mu.Lock()
			inFlight--
			mu.Unlock()
		}}
	parallel := rr.RunAll(tracked)
	if peak > 2 {
		t.Fatalf("Workers=8 Parallelism=2 ran %d jobs concurrently, want ≤ 2", peak)
	}
	serial := ScenarioRunner{Workers: 1, Parallelism: 16}.RunAll(jobs)
	for i := range serial {
		if fingerprint(serial[i]) != fingerprint(parallel[i]) {
			t.Fatalf("job %d: budget split changed the result", i)
		}
	}
}
