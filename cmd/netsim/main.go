// Command netsim runs packet-level multi-BSS scenarios from
// internal/netsim and prints per-flow, per-AC, and aggregate tables.
//
// Usage:
//
//	netsim -scenario dense -bss 3 -sta 17 -channels 1 -duration 1.0
//	netsim -scenario dense -channels 1,6,11 -seeds 8 -workers 4
//	netsim -scenario mix -data-mbps 4
//	netsim -scenario mix -edca            # 802.11e access categories
//	netsim -scenario mix -edca -downlink  # AP-sourced mix: per-AC queues at the AP
//	netsim -scenario mix -edca -txop      # 802.11e default per-AC TXOP limits
//	netsim -scenario dense -ampdu 32      # A-MPDU aggregation + Block-ACK
//	netsim -scenario hidden
//	netsim -scenario hidden -rts 1     # RTS/CTS + NAV rescue
//	netsim -scenario roam -arf         # per-frame rate fallback
//	netsim -scenario dense -ht -minstrel -ampdu 32        # 802.11n HT ladder
//	netsim -scenario dense -bond -minstrel -ampdu 32 -channels 1,5,9  # 40 MHz bonding
//	netsim -scenario roam -downlink    # downlink queue follows the walker
//	netsim -scenario dense -compare   # serial vs parallel wall-clock
//	netsim -floor                      # 100-BSS high-density association floor (E27)
//	netsim -floor -bss 144 -sta 40 -channels 1,6,11
//	netsim -floor -no-spatial          # brute-force carrier-sense oracle
//	netsim -floor -bss 1024 -sta 4 -channels 1,6,11,36 -shards 4
//	netsim -floor -shards 4 -shard-stats  # plan + per-shard engine table
//
// Closed-loop transport + application QoE (see README "Closed-loop
// transport & QoE"): the apartment/office/stadium presets populate a
// floor with web, video, and voice users on TCP-style connections and
// print a pooled user-experience table next to the MAC tables, and
// -config runs an arbitrary JSON scenario file:
//
//	netsim -scenario apartment -bss 9 -sta 8 -duration 5
//	netsim -scenario stadium -seeds 4    # random-waypoint crowd
//	netsim -config examples/closedloop.json
//	netsim -config examples/closedloop.json -seeds 8 -workers 4
//
// Observability (first seed only; see README "Observability"):
//
//	netsim -scenario single -ampdu 8 -duration 0.01 -trace run.jsonl
//	netsim -scenario single -trace run.bin -trace-events tx_start,tx_end
//	netsim -scenario single -duration 0.002 -timeline
//	netsim -scenario dense -sample-us 10000   # time-series telemetry
//	netsim -floor -seeds 4 -progress          # per-seed wall/sim rate
//	netsim -floor -pprof cpu.out              # CPU profile of the sweep
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/linkmodel"
	"repro/internal/netsim"
	"repro/internal/netsim/app"
	"repro/internal/netsim/scenario"
	"repro/internal/netsim/trace"
	"repro/internal/report"
)

// fail prints a usage-style complaint and exits 2 — flag mistakes are
// caught here, eagerly, instead of surfacing as panics from deep inside
// a scenario builder.
func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "netsim: "+format+"\n", args...)
	fmt.Fprintln(os.Stderr, "run 'netsim -h' for usage")
	os.Exit(2)
}

func main() {
	scenarioName := flag.String("scenario", "dense", "dense | mix | hidden | roam | floor | single | apartment | office | stadium")
	configPath := flag.String("config", "", "run a JSON scenario file instead of a named scenario (topology, flows, transport/app params; see examples/)")
	floor := flag.Bool("floor", false, "shorthand for the large-floor preset: -scenario floor with 100 BSSs, 10 stations each, 1/6/11 reuse, and -62 dBm OBSS-PD carrier sense unless overridden")
	nBSS := flag.Int("bss", 3, "number of BSSs (dense, floor)")
	sta := flag.Int("sta", 17, "stations per BSS (dense, floor; floor saturates the first station per BSS and idles the rest)")
	cols := flag.Int("cols", 0, "AP grid columns (floor); 0 = square-ish")
	channelList := flag.String("channels", "1", "comma-separated channel assignment, cycled over BSSs")
	payload := flag.Int("payload", 1000, "payload bytes")
	durationS := flag.Float64("duration", 1.0, "virtual time per run, seconds")
	seed := flag.Int64("seed", 1, "base seed")
	seeds := flag.Int("seeds", 1, "number of independent seeds")
	workers := flag.Int("workers", 4, "worker pool size")
	dataMbps := flag.Float64("data-mbps", 2, "offered load per data flow (mix)")
	rts := flag.Int("rts", 0, "RTS/CTS threshold in payload bytes (1 = every frame, 0 = off)")
	arf := flag.Bool("arf", false, "per-frame ARF rate adaptation instead of association-time mode selection")
	ht := flag.Bool("ht", false, "802.11n HT rate ladder (MCS 0-7 x 1-2 spatial streams) instead of legacy OFDM")
	bond := flag.Bool("bond", false, "40 MHz channel bonding: each BSS occupies {channel, channel+1} with partial-overlap interference between neighboring spans; implies -ht")
	minstrel := flag.Bool("minstrel", false, "Minstrel EWMA-throughput sampling rate control over the rate ladder (pair with -ht for the 2-D MCS x width ladder)")
	edca := flag.Bool("edca", false, "802.11e EDCA access categories (voice AC_VO, data AC_BE, background AC_BK) instead of legacy single-class DCF")
	txop := flag.Bool("txop", false, "802.11e default per-AC TXOP limits (AC_VO 1.504 ms, AC_VI 3.008 ms): a winner chains SIFS-separated exchanges; requires -edca")
	ampdu := flag.Int("ampdu", 0, "A-MPDU aggregation: max MPDUs per burst with Block-ACK partial retransmission (0 = off)")
	downlink := flag.Bool("downlink", false, "source flows at the AP instead of the stations (mix: per-AC queues at the AP; roam: the queue follows the walker between APs)")
	csDBm := flag.Float64("cs", -82, "carrier-sense (energy-detect) threshold in dBm (floor preset defaults to -62 unless set)")
	obssPd := flag.Float64("obss-pd", 0, "OBSS-PD spatial-reuse threshold in dBm (e.g. -62): inter-BSS frames below it are ignored for deferral and the reusing transmission pays the coupled TX-power backoff; 0 = off")
	noSpatial := flag.Bool("no-spatial", false, "disable the spatial carrier-sense index and use the brute-force all-nodes scan (the equivalence-test oracle)")
	shards := flag.Int("shards", 1, "partition the floor into up to N independent engine shards (0/1 = single engine; clamps to the interaction-group count, falls back to 1 with a reported reason when the floor is coupled)")
	// Per-shard stats get their own flag rather than piggybacking on
	// -cols: -cols already means AP grid columns for the floor scenario,
	// and overloading it to also mean "show per-shard columns" would make
	// "-cols 8" ambiguous.
	shardStats := flag.Bool("shard-stats", false, "print a per-shard engine-statistics table and the shard plan (useful with -shards)")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	compare := flag.Bool("compare", false, "time the seed sweep serially and with the worker pool")
	traceFile := flag.String("trace", "", "record the first seed's event trace to FILE (JSONL, or the compact binary form when FILE ends in .bin)")
	traceEvents := flag.String("trace-events", "", "comma-separated event kinds to trace (tx_start, rx_outcome, ...); empty = all")
	sampleUs := flag.Float64("sample-us", 0, "time-series telemetry tick in microseconds (0 = off); prints a sampled-window table for the first seed")
	pprofFile := flag.String("pprof", "", "write a CPU profile of the seed sweep to FILE")
	timeline := flag.Bool("timeline", false, "print an ASCII airtime timeline of the first seed (short runs; implies tracing tx events)")
	progress := flag.Bool("progress", false, "report each finished seed with its wall-clock/sim-time rate on stderr")
	flag.Parse()

	if flag.NArg() > 0 {
		fail("unexpected argument %q", flag.Arg(0))
	}

	// Every flag that a scenario builder would otherwise reject deep in
	// a panic is checked here first, with the flag's name in the message.
	if *seeds < 1 {
		fail("-seeds must be at least 1, got %d", *seeds)
	}
	if *nBSS < 1 {
		fail("-bss must be at least 1, got %d", *nBSS)
	}
	if *sta < 1 {
		fail("-sta must be at least 1, got %d", *sta)
	}
	if *cols < 0 {
		fail("-cols must not be negative, got %d (0 = square-ish grid)", *cols)
	}
	if *payload < 1 {
		fail("-payload must be at least 1 byte, got %d", *payload)
	}
	if !(*durationS > 0) || math.IsInf(*durationS, 0) {
		fail("-duration must be a positive number of seconds, got %v", *durationS)
	}
	if *workers < 1 {
		fail("-workers must be at least 1, got %d", *workers)
	}
	if *rts < 0 {
		fail("-rts must not be negative, got %d (0 disables RTS/CTS)", *rts)
	}
	if *shards < 0 {
		fail("-shards must not be negative, got %d (0 or 1 = single engine)", *shards)
	}
	if *ampdu < 0 {
		fail("-ampdu must not be negative, got %d (0 disables aggregation)", *ampdu)
	}
	if *dataMbps <= 0 && *scenarioName == "mix" {
		fail("-data-mbps must be positive for the mix scenario, got %v", *dataMbps)
	}
	if *sampleUs < 0 || math.IsNaN(*sampleUs) || math.IsInf(*sampleUs, 0) {
		fail("-sample-us must be a non-negative finite number, got %v", *sampleUs)
	}
	if *obssPd != 0 && (math.IsNaN(*obssPd) || math.IsInf(*obssPd, 0) || *obssPd >= 0) {
		fail("-obss-pd must be a negative dBm figure (0 disables), got %v", *obssPd)
	}
	var channels []int
	for _, c := range strings.Split(*channelList, ",") {
		ch, err := strconv.Atoi(strings.TrimSpace(c))
		if err != nil || ch < 1 {
			fail("-channels needs a comma-separated list of positive channel numbers, got %q", c)
		}
		channels = append(channels, ch)
	}
	var traceKinds []netsim.EventKind
	if *traceEvents != "" {
		for _, name := range strings.Split(*traceEvents, ",") {
			k, ok := netsim.EventKindByName(strings.TrimSpace(name))
			if !ok {
				fail("-trace-events: unknown event kind %q", name)
			}
			traceKinds = append(traceKinds, k)
		}
	}

	// The floor preset fills in scale defaults only for flags the user
	// did not set on the command line (an explicit "-bss 3" means 3
	// BSSs, even though that is also the dense-scenario default).
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if *floor {
		*scenarioName = "floor"
		if !set["bss"] {
			*nBSS = 100
		}
		if !set["sta"] {
			*sta = 10
		}
		if !set["channels"] {
			channels = []int{1, 6, 11}
		}
	}
	if *noSpatial && *scenarioName != "floor" && *scenarioName != "dense" {
		fail("-no-spatial only affects the dense/floor scenarios (scenario %q has too few nodes for the index to engage)", *scenarioName)
	}

	// -config hands the whole scenario shape to the JSON file: any flag
	// that describes topology, traffic, or MAC options conflicts with it
	// and is rejected eagerly, before the file is even read. Runtime
	// flags (-seed, -seeds, -workers, -duration, output/trace options)
	// still apply; -duration and -seeds override the file when set.
	var scFile *scenario.File
	if *configPath != "" {
		for _, name := range []string{"scenario", "floor", "bss", "sta", "cols", "channels",
			"payload", "data-mbps", "rts", "arf", "ht", "bond", "minstrel", "edca", "txop",
			"ampdu", "downlink", "cs", "obss-pd", "no-spatial", "shards", "sample-us"} {
			if set[name] {
				fail("-%s cannot be combined with -config (the file owns the scenario shape; set it there)", name)
			}
		}
		var err error
		scFile, err = scenario.Load(*configPath)
		if err != nil {
			fail("-config: %v", err)
		}
		*scenarioName = scFile.Name
		if *scenarioName == "" {
			*scenarioName = "config"
		}
		if !set["duration"] {
			*durationS = scFile.DurationS
		}
		if !set["seeds"] && scFile.Seeds > 0 {
			*seeds = scFile.Seeds
		}
	}

	cfg := netsim.DefaultConfig()
	cfg.RtsThresholdBytes = *rts
	cfg.DisableSpatialIndex = *noSpatial
	cfg.SampleIntervalUs = *sampleUs
	cfg.Shards = *shards
	if *scenarioName == "floor" && !set["cs"] {
		*csDBm = -62 // OBSS-PD-style spatial reuse, as in E27
	}
	if *obssPd != 0 && *scenarioName == "floor" && !set["cs"] {
		// With spatial reuse carrying the -62 dBm relaxation, the floor
		// keeps the legacy -82 dBm energy detect as its baseline.
		*csDBm = -82
	}
	if set["cs"] || *scenarioName == "floor" {
		cfg.CSThresholdDBm = *csDBm
	}
	if *obssPd != 0 {
		if *obssPd <= cfg.CSThresholdDBm {
			fail("-obss-pd (%v) must be above the carrier-sense threshold (%v): OBSS-PD relaxes deferral, it cannot tighten it", *obssPd, cfg.CSThresholdDBm)
		}
		cfg.ObssPdThresholdDBm = *obssPd
	}
	if *arf {
		cfg.RateControl = "arf"
	}
	if *bond {
		*ht = true
		cfg.ChannelWidthMHz = 40
	}
	if *ht {
		w := 20
		if *bond {
			w = 40
		}
		cfg.Modes = linkmodel.HtModes(2, w)
	}
	if *minstrel {
		if *arf {
			fail("-minstrel and -arf are mutually exclusive rate controllers")
		}
		cfg.RateControl = "minstrel"
	}
	if *edca {
		e := netsim.DefaultEdca(cfg.Dcf, cfg.QueueLimit)
		if *txop {
			e = e.WithDot11eTxop(cfg.Dcf)
		}
		cfg.Edca = &e
	} else if *txop {
		// The 802.11e defaults give AC_BE/AC_BK a zero limit, and legacy
		// DCF coerces every flow into AC_BE — the flag would be a no-op.
		fail("-txop needs -edca (legacy DCF runs everything in AC_BE, whose default TXOP limit is 0)")
	}
	if *ampdu > 0 {
		a := netsim.DefaultAggregation()
		a.MaxAmpduFrames = *ampdu
		if *ht {
			// The HT PPDU duration cap (see netsim.HtConfig): keeps a
			// Minstrel probe at the slowest MCS from monopolizing airtime.
			a.MaxAmpduAirUs = 4000
		}
		cfg.Aggregation = &a
	}
	var build func(seed int64) *netsim.Network
	if scFile != nil {
		build = scFile.Build()
	}
	switch {
	case scFile != nil:
		// Built above; the named-scenario switch is skipped entirely.
	case *scenarioName == "apartment" || *scenarioName == "office" || *scenarioName == "stadium":
		// Closed-loop QoE presets (README "Closed-loop transport &
		// QoE"): -bss is the floor size, -sta the users per BSS cycling
		// the preset's web/video/voice mix. The QoE table below pools
		// the per-user experience across seeds.
		if !set["bss"] {
			*nBSS = 9
		}
		if !set["sta"] {
			*sta = 8
		}
		preset := map[string]func(netsim.Config, int, int) func(int64) *netsim.Network{
			"apartment": app.ApartmentBlock,
			"office":    app.OfficeFloor,
			"stadium":   app.StadiumIngress,
		}[*scenarioName]
		build = preset(cfg, *nBSS, *sta)
	default:
		switch *scenarioName {
		case "dense":
			build = netsim.DenseGrid(cfg, *nBSS, *sta, channels, 25, *payload)
		case "floor":
			c := *cols
			if c <= 0 {
				c = int(math.Ceil(math.Sqrt(float64(*nBSS))))
			}
			build = netsim.LargeFloor(cfg, *nBSS, *sta, c, channels...)
		case "mix":
			if *downlink {
				build = netsim.TrafficMixDownlink(cfg, 6, 4, 2, *dataMbps)
			} else {
				build = netsim.TrafficMix(cfg, 6, 4, 2, *dataMbps)
			}
		case "hidden":
			build = netsim.HiddenPair(cfg, 300, *payload)
		case "roam":
			cfg.RoamIntervalUs = 100000
			if *downlink {
				build = netsim.RoamingWalkDownlink(cfg, 120, 15)
			} else {
				build = netsim.RoamingWalk(cfg, 120, 15)
			}
		case "single":
			build = netsim.SingleLink(cfg, 20, *payload)
		default:
			fail("unknown scenario %q", *scenarioName)
		}
	}

	// Tracing and the timeline view record the first seed only: one
	// Tracer must not be shared across jobs running on different
	// goroutines, and one seed's trace is what the views need.
	var tracer *trace.Tracer
	if *traceFile != "" || *timeline {
		var opts []trace.Option
		if len(traceKinds) > 0 {
			opts = append(opts, trace.WithKinds(traceKinds...))
		}
		tracer = trace.New(opts...)
		inner := build
		firstSeed := *seed
		build = func(s int64) *netsim.Network {
			n := inner(s)
			if s == firstSeed {
				n.AttachProbe(tracer)
			}
			return n
		}
	}

	durationUs := *durationS * 1e6
	jobs := netsim.SeedSweep(*scenarioName, build, durationUs, *seed-1, *seeds)
	runner := netsim.ScenarioRunner{Workers: *workers}
	if *progress {
		runner.OnProgress = func(p netsim.Progress) {
			fmt.Fprintf(os.Stderr, "seed %d done (%d/%d): %.2fs sim in %.2fs wall, %.1fx realtime\n",
				p.Seed, p.Done, p.Total, p.SimUs/1e6, p.WallSeconds, p.Rate())
		}
	}

	if *pprofFile != "" {
		f, err := os.Create(*pprofFile)
		if err != nil {
			fail("-pprof: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail("-pprof: %v", err)
		}
		defer pprof.StopCPUProfile()
	}

	if *compare {
		t0 := time.Now()
		serial := netsim.ScenarioRunner{Workers: 1}.RunAll(jobs)
		serialWall := time.Since(t0)
		t1 := time.Now()
		parallel := runner.RunAll(jobs)
		parWall := time.Since(t1)
		match := "results identical"
		for i := range serial {
			if fmt.Sprintf("%+v", serial[i]) != fmt.Sprintf("%+v", parallel[i]) {
				match = fmt.Sprintf("MISMATCH at job %d", i)
			}
		}
		fmt.Printf("%d jobs x %.2fs virtual: serial %v, %d workers %v, speedup %s (%s)\n",
			len(jobs), *durationS, serialWall.Round(time.Millisecond),
			*workers, parWall.Round(time.Millisecond),
			report.FormatRatio(float64(serialWall)/float64(parWall)), match)
		return
	}

	t0 := time.Now()
	results := runner.RunAll(jobs)
	wall := time.Since(t0)

	if tracer != nil && *traceFile != "" {
		if err := writeTrace(*traceFile, tracer); err != nil {
			fmt.Fprintf(os.Stderr, "netsim: writing trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "trace: %d events to %s (%d dropped by the ring)\n",
			len(tracer.Events()), *traceFile, tracer.Dropped())
	}
	if *timeline {
		fmt.Print(trace.Timeline(tracer.Events(), durationUs, 100))
	}

	agg := report.Table{
		ID:     "netsim",
		Title:  fmt.Sprintf("%s: %d seed(s), %.2f s virtual each (wall %v)", *scenarioName, *seeds, *durationS, wall.Round(time.Millisecond)),
		Header: []string{"seed", "agg Mbps", "delivered", "attempts", "txops", "collisions", "virt coll", "rts", "rts fail", "ba retx", "retry drops", "queue drops", "roams", "airtime", "Jain"},
	}
	for i, r := range results {
		agg.AddRow(int(jobs[i].Seed), r.AggGoodputMbps, r.Delivered, r.Attempts,
			r.Txops, r.Collisions, r.VirtualCollisions, r.RtsAttempts, r.RtsFailures,
			r.BlockAckRetries, r.RetryDrops, r.QueueDrops, r.Roams, r.AirtimeFrac,
			netsim.JainIndex(netsim.Goodputs(r.Flows)))
	}
	flows := report.Table{
		ID:     "flows",
		Title:  fmt.Sprintf("per-flow detail, seed %d", jobs[0].Seed),
		Header: []string{"flow", "arrivals", "delivered", "Mbps", "mac eff", "mean delay us", "p95 delay us", "jitter us", "drop rate"},
	}
	for _, f := range results[0].Flows {
		flows.AddRow(f.Label, f.Arrivals, f.Delivered, f.GoodputMbps,
			fmt.Sprintf("%.3f", f.MacEfficiency),
			f.MeanDelayUs, f.P95DelayUs, f.JitterUs, fmt.Sprintf("%.3f", f.DropRate()))
	}
	acs := report.Table{
		ID:     "acs",
		Title:  fmt.Sprintf("per-access-category breakdown, seed %d", jobs[0].Seed),
		Header: []string{"AC", "flows", "attempts", "delivered", "collisions", "retry drops", "queue drops", "txop air", "mean delay us", "p95 delay us"},
	}
	for ac := netsim.NumACs - 1; ac >= 0; ac-- {
		s := results[0].PerAC[ac]
		if s.Flows == 0 && s.Attempts == 0 {
			continue
		}
		acs.AddRow(ac.String(), s.Flows, s.Attempts, s.Delivered,
			s.Collisions, s.RetryDrops, s.QueueDrops,
			fmt.Sprintf("%.3f", s.TxopAirtimeFrac), s.MeanDelayUs, s.P95DelayUs)
	}
	tables := []report.Table{agg, flows, acs}
	if results[0].QoE != nil {
		q := netsim.MergeQoE(results)
		qt := report.Table{
			ID:    "qoe",
			Title: fmt.Sprintf("user QoE, pooled over %d seed(s)", *seeds),
			Header: []string{"users", "web", "page loads", "mean PLT ms", "p95 PLT ms",
				"video", "startup ms", "rebuffer", "stalls", "voice", "mean MOS", "min MOS"},
		}
		qt.AddRow(q.Users, q.WebUsers, q.PageLoads,
			q.MeanPageLoadUs/1e3, q.P95PageLoadUs/1e3,
			q.VideoUsers, q.MeanStartupUs/1e3, q.RebufferRatio, q.Rebuffers,
			q.VoiceUsers, q.MeanMOS, q.MinMOS)
		tables = append(tables, qt)
	}
	if h := results[0].AmpduHist; len(h) > 0 {
		sizes := make([]int, 0, len(h))
		for s := range h {
			sizes = append(sizes, s)
		}
		sort.Ints(sizes)
		hist := report.Table{
			ID:     "ampdu",
			Title:  fmt.Sprintf("A-MPDU size histogram, seed %d", jobs[0].Seed),
			Header: []string{"MPDUs per burst", "bursts"},
		}
		for _, s := range sizes {
			hist.AddRow(s, h[s])
		}
		tables = append(tables, hist)
	}
	if ma := results[0].ModeAttempts; len(ma) > 0 {
		// Sorted by mode name so the table (and the CSV form) is
		// deterministic run to run regardless of map iteration order.
		names := make([]string, 0, len(ma))
		for name := range ma {
			names = append(names, name)
		}
		sort.Strings(names)
		mt := report.Table{
			ID:     "modes",
			Title:  fmt.Sprintf("per-mode data attempts, seed %d", jobs[0].Seed),
			Header: []string{"mode", "attempts"},
		}
		for _, name := range names {
			mt.AddRow(name, ma[name])
		}
		tables = append(tables, mt)
	}
	if s := results[0].Samples; s != nil {
		tables = append(tables, sampleTable(s, jobs[0].Seed))
	}
	if *obssPd != 0 || (scFile != nil && scFile.Config != nil && scFile.Config.ObssPdThresholdDBm != nil) {
		sr := report.Table{
			ID:     "obss",
			Title:  "OBSS-PD spatial reuse",
			Header: []string{"seed", "ignores", "reuse tx", "per-BSS Jain"},
		}
		for i, r := range results {
			sr.AddRow(int(jobs[i].Seed), r.ObssIgnores, r.ObssReuseTx,
				fmt.Sprintf("%.4f", netsim.JainIndex(r.BssGoodputMbps)))
		}
		tables = append(tables, sr)
	}
	if plan := results[0].Plan; *shards > 1 || *shardStats {
		if plan.Reason != "" {
			fmt.Fprintf(os.Stderr, "shards: single engine (%s)\n", plan.Reason)
		} else if plan.Shards > 1 {
			fmt.Fprintf(os.Stderr, "shards: %d of %d requested, %d interaction groups\n",
				plan.Shards, plan.Requested, plan.Groups)
		}
		if *shardStats {
			gb := results[0].GainBytes
			fmt.Fprintf(os.Stderr, "gain state: %d bytes (%.1f MB)\n", gb, float64(gb)/1e6)
		}
	}
	if *shardStats {
		plan := results[0].Plan
		// The frame-pool columns count transmission and packet records
		// recycled vs newly allocated (netsim.FramePoolStats).
		st := report.Table{
			ID:    "shards",
			Title: fmt.Sprintf("per-shard engine statistics, seed %d", jobs[0].Seed),
			Header: []string{"shard", "nodes", "scheduled", "fired", "cancelled", "heap hw", "pool hit",
				"tx reused", "tx new", "pkt reused", "pkt new"},
		}
		for i, s := range results[0].ShardStats {
			fp := results[0].FramePools[i]
			st.AddRow(i, plan.NodesPerShard[i], s.Scheduled, s.Fired, s.Cancelled,
				s.HeapHighWater, fmt.Sprintf("%.4f", s.PoolHitRate()),
				fp.TxHits, fp.TxMisses, fp.PacketHits, fp.PacketMisses)
		}
		tables = append(tables, st)
	}
	for _, tb := range tables {
		if *csv {
			fmt.Printf("# %s: %s\n%s\n", tb.ID, tb.Title, tb.CSV())
		} else {
			fmt.Println(tb.Format())
		}
	}
	if *progress {
		es := results[0].EngineStats
		fmt.Fprintf(os.Stderr, "engine, seed %d: %d scheduled, %d fired, %d cancelled, heap high-water %d, pool hit rate %.4f\n",
			jobs[0].Seed, es.Scheduled, es.Fired, es.Cancelled, es.HeapHighWater, es.PoolHitRate())
	}
}

// writeTrace serializes the tracer: compact binary when the path ends
// in .bin, JSONL otherwise.
func writeTrace(path string, t *trace.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".bin") {
		if err := t.WriteBinary(f); err != nil {
			return err
		}
	} else if err := t.WriteJSONL(f); err != nil {
		return err
	}
	return f.Close()
}

// sampleTable renders the time-series telemetry, thinned to at most 20
// evenly spaced windows so a long run stays one screen.
func sampleTable(s *netsim.SampleSeries, seed int64) report.Table {
	tb := report.Table{
		ID:     "samples",
		Title:  fmt.Sprintf("sampled telemetry (%d windows of %.0f us), seed %d", s.Windows(), s.IntervalUs, seed),
		Header: []string{"t ms", "busy", "coll", "nav", "VO Mbps", "BE Mbps", "BE queue"},
	}
	n := s.Windows()
	step := 1
	if n > 20 {
		step = (n + 19) / 20
	}
	for i := 0; i < n; i += step {
		tb.AddRow(fmt.Sprintf("%.2f", s.TimeUs[i]/1e3),
			fmt.Sprintf("%.3f", s.BusyFrac[i]),
			fmt.Sprintf("%.3f", s.CollisionFrac[i]),
			fmt.Sprintf("%.3f", s.NavFrac[i]),
			fmt.Sprintf("%.2f", s.AcGoodputMbps[netsim.AC_VO][i]),
			fmt.Sprintf("%.2f", s.AcGoodputMbps[netsim.AC_BE][i]),
			s.AcQueueDepth[netsim.AC_BE][i])
	}
	return tb
}
