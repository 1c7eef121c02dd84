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
//	netsim -scenario roam -rate-control arf  # per-frame rate fallback
//	netsim -scenario dense -ht -rate-control minstrel -ampdu 32  # 802.11n HT ladder
//	netsim -scenario dense -bond -rate-control minstrel -ampdu 32 -channels 1,5,9  # 40 MHz bonding
//	netsim -scenario roam -downlink    # downlink queue follows the walker
//	netsim -scenario dense -compare   # serial vs parallel wall-clock
//	netsim -scenario floor             # 100-BSS high-density association floor (E27)
//	netsim -scenario floor -bss 144 -sta 40 -channels 1,6,11
//	netsim -scenario floor -obss-pd -72  # OBSS-PD spatial reuse over -82 dBm energy detect
//	netsim -scenario floor -bss 1024 -sta 4 -channels 1,6,11,36 -shards 4
//	netsim -scenario floor -shards 4 -shard-stats  # plan + per-shard engine table
//
// Closed-loop transport + application QoE (see README "Closed-loop
// transport & QoE"): the apartment/office/stadium presets populate a
// floor with web, video, and voice users on TCP-style connections and
// print a pooled user-experience table next to the MAC tables, and
// -config runs an arbitrary JSON scenario file. The MAC/PHY flags (-rts
// -rate-control -ht -bond -edca -txop -ampdu -cs -obss-pd -shards)
// override its config block; the shape flags conflict with it:
//
//	netsim -scenario apartment -bss 9 -sta 8 -duration 5
//	netsim -scenario stadium -seeds 4    # random-waypoint crowd
//	netsim -config examples/closedloop.json
//	netsim -config examples/closedloop.json -seeds 8 -workers 4
//	netsim -config examples/closedloop.json -rts 1 -rate-control minstrel
//
// Observability (first seed only; see README "Observability"):
//
//	netsim -scenario single -ampdu 8 -duration 0.01 -trace run.jsonl
//	netsim -scenario single -trace run.bin -trace-events tx_start,tx_end
//	netsim -scenario single -duration 0.002 -timeline
//	netsim -scenario dense -sample-us 10000   # time-series telemetry
//	netsim -scenario floor -seeds 4 -progress  # per-seed wall/sim rate
//	netsim -scenario floor -pprof cpu.out      # CPU profile of the sweep
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

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

func ptr[T any](v T) *T { return &v }

// ifOn maps a boolean flag onto an optional config value.
func ifOn(on bool, v int) *int {
	if !on {
		return nil
	}
	return &v
}

// options is one resolved command line.
type options struct {
	scenario string
	cfg      netsim.Config
	build    func(seed int64) *netsim.Network

	bss, sta int
	channels []int

	durationS      float64
	seed           int64
	seeds, workers int

	shardStats, csv, compare, timeline, progress bool
	traceFile, pprofFile                         string
	traceKinds                                   []netsim.EventKind
}

// resolve parses the command line into a validated configuration and
// network builder. Errors name the offending flag.
func resolve(args []string) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("netsim", flag.ContinueOnError)
	fs.StringVar(&o.scenario, "scenario", "dense", "dense | mix | hidden | roam | floor | single | apartment | office | stadium")
	configPath := fs.String("config", "", "run a JSON scenario file instead of a named scenario (topology, flows, transport/app params; see examples/); the MAC/PHY flags override its config block")
	fs.IntVar(&o.bss, "bss", 3, "number of BSSs (dense, floor: 100, apartment/office/stadium: 9)")
	fs.IntVar(&o.sta, "sta", 17, "stations per BSS (dense, floor: 10, apartment/office/stadium: 8; floor saturates the first station per BSS and idles the rest)")
	cols := fs.Int("cols", 0, "AP grid columns (floor); 0 = square-ish")
	channelList := fs.String("channels", "1", "comma-separated channel assignment, cycled over BSSs (floor: 1,6,11)")
	payload := fs.Int("payload", 1000, "payload bytes")
	fs.Float64Var(&o.durationS, "duration", 1.0, "virtual time per run, seconds")
	fs.Int64Var(&o.seed, "seed", 1, "base seed")
	fs.IntVar(&o.seeds, "seeds", 1, "number of independent seeds")
	fs.IntVar(&o.workers, "workers", 4, "worker pool size")
	dataMbps := fs.Float64("data-mbps", 2, "offered load per data flow (mix)")
	downlink := fs.Bool("downlink", false, "source flows at the AP instead of the stations (mix: per-AC queues at the AP; roam: the queue follows the walker between APs)")
	rts := fs.Int("rts", 0, "RTS/CTS threshold in payload bytes (1 = every frame, 0 = off)")
	rateControl := fs.String("rate-control", "fixed", "per-link rate controller: fixed (association-time mode selection) | arf (per-frame rate fallback) | minstrel (EWMA-throughput sampling over the rate ladder; pair with -ht for the 2-D MCS x width ladder)")
	ht := fs.Bool("ht", false, "802.11n HT rate ladder (MCS 0-7 x 1-2 spatial streams) instead of legacy OFDM")
	bond := fs.Bool("bond", false, "40 MHz channel bonding: each BSS occupies {channel, channel+1} with partial-overlap interference between neighboring spans; implies -ht")
	edca := fs.Bool("edca", false, "802.11e EDCA access categories (voice AC_VO, data AC_BE, background AC_BK) instead of legacy single-class DCF")
	txop := fs.Bool("txop", false, "802.11e default per-AC TXOP limits (AC_VO 1.504 ms, AC_VI 3.008 ms): a winner chains SIFS-separated exchanges; requires -edca")
	ampdu := fs.Int("ampdu", 0, "A-MPDU aggregation: max MPDUs per burst with Block-ACK partial retransmission (0 = off; capped at 4 ms of airtime with -ht)")
	cs := fs.Float64("cs", -82, "carrier-sense (energy-detect) threshold in dBm (the floor scenario defaults to -62 unless -obss-pd is set)")
	obssPd := fs.Float64("obss-pd", 0, "OBSS-PD spatial-reuse threshold in dBm (e.g. -62): inter-BSS frames below it are ignored for deferral and the reusing transmission pays the coupled TX-power backoff; 0 = off")
	shards := fs.Int("shards", 1, "partition the floor into up to N independent engine shards (0/1 = single engine; clamps to the interaction-group count, falls back to 1 with a reported reason when the floor is coupled)")
	// knobs pairs each MAC/PHY flag with the config key it sets. The
	// flags given overwrite the scenario's or -config file's overrides,
	// so Overrides.Validate is their one check; errors name the flag.
	knobs := []struct {
		flag, key string
		set       func(o *scenario.Overrides)
	}{
		{"rts", "rts_threshold_bytes", func(o *scenario.Overrides) { o.RtsThresholdBytes = rts }},
		{"rate-control", "rate_control", func(o *scenario.Overrides) { o.RateControl = rateControl }},
		{"ht", "ht_streams", func(o *scenario.Overrides) { o.HtStreams = ifOn(*ht, 2) }},
		{"bond", "channel_width_mhz", func(o *scenario.Overrides) {
			o.ChannelWidthMHz = ifOn(*bond, 40)
			if *bond {
				o.HtStreams = ptr(2)
			}
		}},
		{"edca", "edca", func(o *scenario.Overrides) { o.Edca = *edca }},
		{"txop", "txop", func(o *scenario.Overrides) { o.Txop = *txop }},
		{"ampdu", "ampdu_frames", func(o *scenario.Overrides) { o.AmpduFrames = ampdu }},
		{"cs", "cs_threshold_dbm", func(o *scenario.Overrides) { o.CSThresholdDBm = cs }},
		{"obss-pd", "obss_pd_threshold_dbm", func(o *scenario.Overrides) { o.ObssPdThresholdDBm = obssPd }},
		{"shards", "shards", func(o *scenario.Overrides) { o.Shards = shards }},
	}
	// Per-shard stats get their own flag rather than piggybacking on
	// -cols: -cols already means AP grid columns for the floor scenario,
	// and overloading it to also mean "show per-shard columns" would make
	// "-cols 8" ambiguous.
	fs.BoolVar(&o.shardStats, "shard-stats", false, "print a per-shard engine-statistics table and the shard plan (useful with -shards)")
	fs.BoolVar(&o.csv, "csv", false, "emit CSV instead of aligned tables")
	fs.BoolVar(&o.compare, "compare", false, "time the seed sweep serially and with the worker pool")
	fs.StringVar(&o.traceFile, "trace", "", "record the first seed's event trace to FILE (JSONL, or the compact binary form when FILE ends in .bin)")
	traceEvents := fs.String("trace-events", "", "comma-separated event kinds to trace (tx_start, rx_outcome, ...); empty = all")
	sampleUs := fs.Float64("sample-us", 0, "time-series telemetry tick in microseconds (0 = off); prints a sampled-window table for the first seed")
	fs.StringVar(&o.pprofFile, "pprof", "", "write a CPU profile of the seed sweep to FILE")
	fs.BoolVar(&o.timeline, "timeline", false, "print an ASCII airtime timeline of the first seed (short runs; implies tracing tx events)")
	fs.BoolVar(&o.progress, "progress", false, "report each finished seed with its wall-clock/sim-time rate on stderr")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })

	// -config hands the scenario shape to the JSON file: the flags that
	// describe topology and traffic are rejected before the file is even
	// read. -duration and -seeds override the file when set; the MAC/PHY
	// knobs overwrite its config block below.
	ov := &scenario.Overrides{}
	var file *scenario.File
	if *configPath != "" {
		for _, name := range []string{"scenario", "bss", "sta", "cols", "channels", "payload", "data-mbps", "downlink", "sample-us"} {
			if set[name] {
				return nil, fmt.Errorf("-%s cannot be combined with -config (the file owns the scenario shape; set it there)", name)
			}
		}
		f, err := scenario.Load(*configPath)
		if err != nil {
			return nil, fmt.Errorf("-config: %v", err)
		}
		file, o.scenario = f, f.Name
		if o.scenario == "" {
			o.scenario = "config"
		}
		if !set["duration"] {
			o.durationS = f.DurationS
		}
		if !set["seeds"] && f.Seeds > 0 {
			o.seeds = f.Seeds
		}
		if f.Config == nil {
			f.Config = ov
		}
		ov = f.Config
	}
	// Errors name a key by its flag unless the key came from the file.
	var rename []string
	for _, k := range knobs {
		if set[k.flag] {
			k.set(ov)
		}
		if set[k.flag] || file == nil {
			rename = append(rename, "config."+k.key, "-"+k.flag)
		}
	}

	// Scenario defaults fill only what the command line left unset: an
	// explicit "-bss 3" means 3 BSSs, even though that is also the
	// dense-scenario default.
	shape := func(bss, sta int) {
		if !set["bss"] {
			o.bss = bss
		}
		if !set["sta"] {
			o.sta = sta
		}
	}
	switch {
	case file != nil:
	case o.scenario == "floor":
		shape(100, 10)
		if !set["channels"] {
			*channelList = "1,6,11"
		}
		// OBSS-PD-style spatial reuse through a relaxed energy detect,
		// as in E27; with real OBSS-PD on, the legacy -82 dBm stays.
		if ov.CSThresholdDBm == nil && (ov.ObssPdThresholdDBm == nil || *ov.ObssPdThresholdDBm == 0) {
			ov.CSThresholdDBm = ptr(-62.0)
		}
	case o.scenario == "apartment" || o.scenario == "office" || o.scenario == "stadium":
		shape(9, 8)
	case o.scenario == "roam":
		ov.RoamIntervalUs = ptr(1e5)
	}

	// Every flag that a scenario builder would otherwise reject deep in
	// a panic is checked here first, with the flag's name in the message.
	switch {
	case o.seeds < 1:
		return nil, fmt.Errorf("-seeds must be at least 1, got %d", o.seeds)
	case o.bss < 1:
		return nil, fmt.Errorf("-bss must be at least 1, got %d", o.bss)
	case o.sta < 1:
		return nil, fmt.Errorf("-sta must be at least 1, got %d", o.sta)
	case *cols < 0:
		return nil, fmt.Errorf("-cols must not be negative, got %d (0 = square-ish grid)", *cols)
	case *payload < 1:
		return nil, fmt.Errorf("-payload must be at least 1 byte, got %d", *payload)
	case !(o.durationS > 0) || math.IsInf(o.durationS, 0):
		return nil, fmt.Errorf("-duration must be a positive number of seconds, got %v", o.durationS)
	case o.workers < 1:
		return nil, fmt.Errorf("-workers must be at least 1, got %d", o.workers)
	case *dataMbps <= 0 && o.scenario == "mix":
		return nil, fmt.Errorf("-data-mbps must be positive for the mix scenario, got %v", *dataMbps)
	case *sampleUs < 0 || math.IsNaN(*sampleUs) || math.IsInf(*sampleUs, 0):
		return nil, fmt.Errorf("-sample-us must be a non-negative finite number, got %v", *sampleUs)
	}
	for _, c := range strings.Split(*channelList, ",") {
		ch, err := strconv.Atoi(strings.TrimSpace(c))
		if err != nil || ch < 1 {
			return nil, fmt.Errorf("-channels needs a comma-separated list of positive channel numbers, got %q", c)
		}
		o.channels = append(o.channels, ch)
	}
	if *traceEvents != "" {
		for _, name := range strings.Split(*traceEvents, ",") {
			k, ok := netsim.EventKindByName(strings.TrimSpace(name))
			if !ok {
				return nil, fmt.Errorf("-trace-events: unknown event kind %q", name)
			}
			o.traceKinds = append(o.traceKinds, k)
		}
	}

	var err error
	if file != nil {
		err = file.Validate()
	} else {
		err = ov.Validate()
	}
	if err != nil {
		msg := strings.TrimPrefix(err.Error(), "scenario: ")
		return nil, errors.New(strings.NewReplacer(rename...).Replace(msg))
	}
	o.cfg = ov.Apply(netsim.DefaultConfig())
	o.cfg.SampleIntervalUs = *sampleUs

	if file != nil {
		o.build = file.Build()
		return o, nil
	}
	switch cfg := o.cfg; o.scenario {
	case "dense":
		o.build = netsim.DenseGrid(cfg, o.bss, o.sta, o.channels, 25, *payload)
	case "floor":
		c := *cols
		if c <= 0 {
			c = int(math.Ceil(math.Sqrt(float64(o.bss))))
		}
		o.build = netsim.LargeFloor(cfg, o.bss, o.sta, c, o.channels...)
	case "mix":
		if *downlink {
			o.build = netsim.TrafficMixDownlink(cfg, 6, 4, 2, *dataMbps)
		} else {
			o.build = netsim.TrafficMix(cfg, 6, 4, 2, *dataMbps)
		}
	case "hidden":
		o.build = netsim.HiddenPair(cfg, 300, *payload)
	case "roam":
		if *downlink {
			o.build = netsim.RoamingWalkDownlink(cfg, 120, 15)
		} else {
			o.build = netsim.RoamingWalk(cfg, 120, 15)
		}
	case "single":
		o.build = netsim.SingleLink(cfg, 20, *payload)
	// Closed-loop QoE presets (README "Closed-loop transport & QoE"):
	// -bss is the floor size, -sta the users per BSS cycling the
	// preset's web/video/voice mix. The QoE table below pools the
	// per-user experience across seeds.
	case "apartment":
		o.build = app.ApartmentBlock(cfg, o.bss, o.sta)
	case "office":
		o.build = app.OfficeFloor(cfg, o.bss, o.sta)
	case "stadium":
		o.build = app.StadiumIngress(cfg, o.bss, o.sta)
	default:
		return nil, fmt.Errorf("unknown scenario %q", o.scenario)
	}
	return o, nil
}

func main() {
	o, err := resolve(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fail("%v", err)
	}

	// Tracing and the timeline view record the first seed only: one
	// Tracer must not be shared across jobs running on different
	// goroutines, and one seed's trace is what the views need.
	var tracer *trace.Tracer
	if o.traceFile != "" || o.timeline {
		var opts []trace.Option
		if len(o.traceKinds) > 0 {
			opts = append(opts, trace.WithKinds(o.traceKinds...))
		}
		tracer = trace.New(opts...)
		inner := o.build
		firstSeed := o.seed
		o.build = func(s int64) *netsim.Network {
			n := inner(s)
			if s == firstSeed {
				n.AttachProbe(tracer)
			}
			return n
		}
	}

	durationUs := o.durationS * 1e6
	jobs := netsim.SeedSweep(o.scenario, o.build, durationUs, o.seed-1, o.seeds)
	runner := netsim.ScenarioRunner{Workers: o.workers}
	if o.progress {
		runner.OnProgress = func(p netsim.Progress) {
			fmt.Fprintf(os.Stderr, "seed %d done (%d/%d): %.2fs sim in %.2fs wall, %.1fx realtime\n",
				p.Seed, p.Done, p.Total, p.SimUs/1e6, p.WallSeconds, p.Rate())
		}
	}

	if o.pprofFile != "" {
		f, err := os.Create(o.pprofFile)
		if err != nil {
			fail("-pprof: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail("-pprof: %v", err)
		}
		defer pprof.StopCPUProfile()
	}

	if o.compare {
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
			len(jobs), o.durationS, serialWall.Round(time.Millisecond),
			o.workers, parWall.Round(time.Millisecond),
			report.FormatRatio(float64(serialWall)/float64(parWall)), match)
		return
	}

	t0 := time.Now()
	results := runner.RunAll(jobs)
	wall := time.Since(t0)

	if tracer != nil && o.traceFile != "" {
		if err := writeTrace(o.traceFile, tracer); err != nil {
			fmt.Fprintf(os.Stderr, "netsim: writing trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "trace: %d events to %s (%d dropped by the ring)\n",
			len(tracer.Events()), o.traceFile, tracer.Dropped())
	}
	if o.timeline {
		fmt.Print(trace.Timeline(tracer.Events(), durationUs, 100))
	}

	agg := report.Table{
		ID:     "netsim",
		Title:  fmt.Sprintf("%s: %d seed(s), %.2f s virtual each (wall %v)", o.scenario, o.seeds, o.durationS, wall.Round(time.Millisecond)),
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
			Title: fmt.Sprintf("user QoE, pooled over %d seed(s)", o.seeds),
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
	if o.cfg.ObssPdThresholdDBm != 0 {
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
	if plan := results[0].Plan; o.cfg.Shards > 1 || o.shardStats {
		if plan.Reason != "" {
			fmt.Fprintf(os.Stderr, "shards: single engine (%s)\n", plan.Reason)
		} else if plan.Shards > 1 {
			fmt.Fprintf(os.Stderr, "shards: %d of %d requested, %d interaction groups\n",
				plan.Shards, plan.Requested, plan.Groups)
		}
		if o.shardStats {
			r := results[0]
			fmt.Fprintf(os.Stderr, "gain state: %d bytes (%.1f MB), %d pairs refreshed by roam ticks and channel changes\n",
				r.GainBytes, float64(r.GainBytes)/1e6, r.GainRefreshPairs)
			fmt.Fprintf(os.Stderr, "interference crossings: %d over %d frame starts (%.1f per start)\n",
				r.Crossings, r.FrameStarts, float64(r.Crossings)/float64(max(r.FrameStarts, 1)))
		}
	}
	if o.shardStats {
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
		if o.csv {
			fmt.Printf("# %s: %s\n%s\n", tb.ID, tb.Title, tb.CSV())
		} else {
			fmt.Println(tb.Format())
		}
	}
	if o.progress {
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
