package experiments

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"repro/internal/linkmodel"
	"repro/internal/netsim"
	"repro/internal/netsim/app"
	"repro/internal/report"
)

// E22-E27 move the repo from slot-averaged MAC models to the
// packet-level multi-BSS simulator in internal/netsim. All fan their
// Monte-Carlo seeds across the ScenarioRunner worker pool; every job is
// independently seeded, so the tables are reproducible bit for bit.

// netsimSeeds is the Monte-Carlo fan-out per table row.
const netsimSeeds = 3

// legacyModes is the DSSS, CCK and OFDM ladders, whose rates do not
// overlap. They are built once: each ladder call formats every mode's
// name, and modeAt runs several times per exhibit run.
var legacyModes = slices.Concat(linkmodel.DsssModes(), linkmodel.CckModes(), linkmodel.OfdmModes())

// modeAt is the legacy PHY mode at rateMbps. A one-entry rate table of
// it pins a link to that rate.
func modeAt(rateMbps float64) linkmodel.Mode {
	for _, m := range legacyModes {
		if m.RateMbps == rateMbps {
			return m
		}
	}
	panic(fmt.Sprintf("experiments: no legacy mode at %g Mbps", rateMbps))
}

// hiddenSweep runs netsim.HiddenPair over netsimSeeds seeds and returns
// the mean aggregate goodput and the mean per-run collision rate. The
// stations stand 300 m apart, 150 m either side of the AP: out of each
// other's carrier-sense range, in range of the AP's CTS.
func hiddenSweep(c netsim.Config, payload int, durationUs float64, baseSeed int64) (mbps, collRate float64) {
	jobs := netsim.SeedSweep("hidden", netsim.HiddenPair(c, 300, payload), durationUs, baseSeed, netsimSeeds)
	results := netsim.ScenarioRunner{Workers: 4}.RunAll(jobs)
	for _, r := range results {
		if r.Attempts > 0 {
			collRate += float64(r.Collisions) / float64(r.Attempts) / float64(len(results))
		}
	}
	return netsim.MeanAggGoodput(results), collRate
}

// E22DenseBSS grows a co-channel deployment from one BSS to four and
// watches aggregate capacity, per-flow fairness, and the collision rate
// as every added cell joins the same collision domain — then shows the
// 1/6/11 channel-reuse escape.
func E22DenseBSS(cfg Config) []report.Table {
	durationUs := float64(cfg.Frames) * 4000
	staPerBSS := 6
	t := report.Table{
		ID:     "E22",
		Title:  "Dense BSS capacity: co-channel cells vs 1/6/11 reuse (saturated uplink)",
		Note:   "packet-level extension: deployment topology sets what the PHY rate can deliver",
		Header: []string{"BSS", "channels", "agg Mbps", "per-flow Mbps", "Jain", "collision rate"},
	}
	for _, row := range []struct {
		nBSS     int
		channels []int
		label    string
	}{
		{1, []int{1}, "1"},
		{2, []int{1}, "co"},
		{3, []int{1}, "co"},
		{4, []int{1}, "co"},
		{3, []int{1, 6, 11}, "1/6/11"},
		{4, []int{1, 6, 11}, "1/6/11"},
	} {
		build := netsim.DenseGrid(netsim.DefaultConfig(), row.nBSS, staPerBSS,
			row.channels, 25, cfg.PayloadBytes+600)
		jobs := netsim.SeedSweep("dense", build, durationUs, cfg.Seed*1000, netsimSeeds)
		results := netsim.ScenarioRunner{Workers: 4}.RunAll(jobs)
		var jain, collRate float64
		nFlows := 0
		for _, r := range results {
			jain += netsim.JainIndex(netsim.Goodputs(r.Flows))
			if r.Attempts > 0 {
				collRate += float64(r.Collisions) / float64(r.Attempts)
			}
			nFlows = len(r.Flows)
		}
		agg := netsim.MeanAggGoodput(results)
		t.AddRow(row.nBSS, row.label, agg, agg/float64(nFlows),
			jain/float64(len(results)), collRate/float64(len(results)))
	}
	return []report.Table{t}
}

// E23TrafficMix loads one BSS with voice CBR, Poisson data, and bursty
// on/off flows, sweeping the data load: voice delay and jitter stay
// flat until contention saturates, then queueing explodes — the QoS
// story behind 802.11e.
func E23TrafficMix(cfg Config) []report.Table {
	durationUs := float64(cfg.Frames) * 8000
	t := report.Table{
		ID:     "E23",
		Title:  "Traffic mix on one BSS: voice delay/jitter vs offered data load",
		Note:   "packet-level extension: contention queueing, not PHY rate, sets voice latency",
		Header: []string{"data Mbps each", "total Mbps", "voice delay us", "voice jitter us", "voice drop", "data Mbps", "data Jain"},
	}
	for _, dataMbps := range []float64{0.5, 2, 4, 6} {
		build := netsim.TrafficMix(netsim.DefaultConfig(), 6, 4, 2, dataMbps)
		jobs := netsim.SeedSweep("mix", build, durationUs, cfg.Seed*2000, netsimSeeds)
		results := netsim.ScenarioRunner{Workers: 4}.RunAll(jobs)
		var vDelay, vJitter, vDrop, dGoodput, dJain, total float64
		for _, r := range results {
			var voice, data []netsim.FlowStats
			for _, f := range r.Flows {
				switch f.Class {
				case "cbr":
					voice = append(voice, f)
				case "poisson":
					data = append(data, f)
				}
			}
			for _, f := range voice {
				vDelay += f.MeanDelayUs / float64(len(voice))
				vJitter += f.JitterUs / float64(len(voice))
				vDrop += f.DropRate() / float64(len(voice))
			}
			for _, f := range data {
				dGoodput += f.GoodputMbps
			}
			dJain += netsim.JainIndex(netsim.Goodputs(data))
			total += r.AggGoodputMbps
		}
		n := float64(len(results))
		t.AddRow(dataMbps, total/n, vDelay/n, vJitter/n,
			fmt.Sprintf("%.3f", vDrop/n), dGoodput/n, dJain/n)
	}
	return []report.Table{t}
}

// E24RtsCtsHidden plays the hidden-terminal rescue at packet level:
// two saturated stations that cannot carrier-sense each other, with and
// without the RTS/CTS/NAV exchange, at the rate netsim's median-SNR
// selection picks for the geometry (E17 pins the rate instead). The
// second table turns on per-frame ARF and sweeps a station outward: the
// per-mode attempt histogram walks down the rate staircase with
// distance instead of being frozen at association.
func E24RtsCtsHidden(cfg Config) []report.Table {
	durationUs := float64(cfg.Frames) * 8000
	payload := cfg.PayloadBytes + 1100

	hidden := report.Table{
		ID:     "E24",
		Title:  "Hidden pair: RTS/CTS + NAV rescue, packet-level",
		Note:   "packet-level extension: collisions shrink to the RTS; the CTS-set NAV silences the hidden peer",
		Header: []string{"plain Mbps", "rts Mbps", "recovery", "plain coll", "rts coll"},
	}
	base := netsim.DefaultConfig()
	plainMbps, plainColl := hiddenSweep(base, payload, durationUs, cfg.Seed*3000)
	rts := base
	rts.RtsThresholdBytes = 1 // RTS/CTS before every data frame
	rtsMbps, rtsColl := hiddenSweep(rts, payload, durationUs, cfg.Seed*3000)
	hidden.AddRow(plainMbps, rtsMbps,
		report.FormatRatio(rtsMbps/plainMbps), plainColl, rtsColl)

	arfCfg := netsim.DefaultConfig()
	arfCfg.RateControl = "arf"
	rateOf := map[string]float64{}
	for _, m := range arfCfg.Modes {
		rateOf[m.Name] = m.RateMbps
	}
	staircase := report.Table{
		ID:     "E24b",
		Title:  "Per-frame ARF: attempt histogram walks down the rate staircase with distance",
		Note:   "packet-level extension: rate now adapts frame by frame, not once at association",
		Header: []string{"distance m", "goodput Mbps", "mean attempt Mbps", "top mode"},
	}
	for _, distM := range []float64{10, 60, 90, 120, 150} {
		jobs := netsim.SeedSweep("arf", netsim.SingleLink(arfCfg, distM, payload), durationUs, cfg.Seed*4000, netsimSeeds)
		results := netsim.ScenarioRunner{Workers: 4}.RunAll(jobs)
		var frames, rateSum float64
		top, topCount := "", 0
		counts := map[string]int{}
		for _, r := range results {
			for name, c := range r.ModeAttempts {
				frames += float64(c)
				rateSum += float64(c) * rateOf[name]
				counts[name] += c
			}
		}
		for _, m := range arfCfg.Modes { // deterministic tie-break order
			if c := counts[m.Name]; c > topCount {
				top, topCount = m.Name, c
			}
		}
		mean := 0.0
		if frames > 0 {
			mean = rateSum / frames
		}
		staircase.AddRow(distM, netsim.MeanAggGoodput(results), mean, top)
	}
	return []report.Table{hidden, staircase}
}

// E25EdcaQos replays the E23 traffic-mix sweep twice — once under
// legacy single-class DCF and once with 802.11e EDCA access categories
// (voice→AC_VO, data→AC_BE, bursty background→AC_BK) — and compares
// the voice tail latency. Under legacy DCF every class contends with
// the same DIFS/CW, so a saturating data load drags voice p95 delay
// into the tens of milliseconds; EDCA's smaller AIFS/CWmin for AC_VO
// lets voice cut the line, holding its p95 near the lightly-loaded
// figure while best-effort data absorbs the congestion. That
// differentiation is exactly the 802.11e story the paper's "present"
// section tells.
func E25EdcaQos(cfg Config) []report.Table {
	durationUs := float64(cfg.Frames) * 16000
	t := report.Table{
		ID:     "E25",
		Title:  "EDCA vs legacy DCF: voice p95 delay under rising data load (traffic mix)",
		Note:   "packet-level extension: per-AC contention (AIFS/CW) keeps the voice tail flat where one shared class lets it explode",
		Header: []string{"data Mbps each", "voice p95 DCF us", "voice p95 EDCA us", "protection", "voice drop DCF", "voice drop EDCA", "data Mbps DCF", "data Mbps EDCA"},
	}
	run := func(c netsim.Config, dataMbps float64, baseSeed int64) (p95Us, drop, dataMbpsOut float64) {
		build := netsim.TrafficMix(c, 6, 4, 2, dataMbps)
		jobs := netsim.SeedSweep("edca-mix", build, durationUs, baseSeed, netsimSeeds)
		results := netsim.ScenarioRunner{Workers: 4}.RunAll(jobs)
		var nVoice int
		for _, r := range results {
			for _, f := range r.Flows {
				switch f.Class {
				case "cbr":
					p95Us += f.P95DelayUs
					drop += f.DropRate()
					nVoice++
				case "poisson":
					dataMbpsOut += f.GoodputMbps / float64(len(results))
				}
			}
		}
		return p95Us / float64(nVoice), drop / float64(nVoice), dataMbpsOut
	}
	legacy := netsim.DefaultConfig()
	edcaCfg := netsim.DefaultConfig()
	e := netsim.DefaultEdca(edcaCfg.Dcf, edcaCfg.QueueLimit)
	edcaCfg.Edca = &e
	for _, dataMbps := range []float64{0.5, 2, 6, 10, 14} {
		lp, ld, lg := run(legacy, dataMbps, cfg.Seed*5000)
		ep, ed, eg := run(edcaCfg, dataMbps, cfg.Seed*5000)
		t.AddRow(dataMbps, lp, ep, report.FormatRatio(lp/ep),
			fmt.Sprintf("%.3f", ld), fmt.Sprintf("%.3f", ed), lg, eg)
	}
	return []report.Table{t}
}

// E26AmpduEfficiency replays the paper's MAC-throughput-enhancement
// arc at packet level: sweep the PHY rate up the OFDM ladder on one
// clean link and watch single-frame MAC efficiency collapse — at 54
// Mbps the fixed preamble/SIFS/ACK tax dwarfs the ever-shorter payload
// — then turn on A-MPDU aggregation under the TXOP exchange API and
// watch one preamble and one Block-ACK amortize over a whole burst,
// restoring the efficiency the higher rate was supposed to deliver.
// This is the 802.11n motivation Holt's "future" section describes.
func E26AmpduEfficiency(cfg Config) []report.Table {
	durationUs := float64(cfg.Frames) * 8000
	payload := cfg.PayloadBytes
	t := report.Table{
		ID:     "E26",
		Title:  "A-MPDU aggregation: goodput and MAC efficiency vs PHY rate (single clean link)",
		Note:   "packet-level extension: per-frame overhead collapses MAC efficiency at high PHY rate; aggregation under one TXOP restores it",
		Header: []string{"PHY Mbps", "plain Mbps", "plain eff", "ampdu Mbps", "ampdu eff", "eff gain", "mean ampdu"},
	}
	run := func(c netsim.Config, baseSeed int64) (mbps, eff, meanAmpdu float64) {
		build := netsim.SingleLink(c, 5, payload)
		jobs := netsim.SeedSweep("ampdu", build, durationUs, baseSeed, netsimSeeds)
		results := netsim.ScenarioRunner{Workers: 4}.RunAll(jobs)
		var frames, bursts float64
		for _, r := range results {
			eff += r.Flows[0].MacEfficiency / float64(len(results))
			for size, cnt := range r.AmpduHist {
				bursts += float64(cnt)
				frames += float64(size * cnt)
			}
		}
		if bursts > 0 {
			meanAmpdu = frames / bursts
		}
		return netsim.MeanAggGoodput(results), eff, meanAmpdu
	}
	for _, rate := range []float64{6, 12, 24, 54} {
		// A one-entry rate table pins the PHY rate — the sweep axis is
		// the ladder itself, not link adaptation.
		base := netsim.DefaultConfig()
		base.Modes = []linkmodel.Mode{modeAt(rate)}
		aggCfg := base
		a := netsim.DefaultAggregation()
		aggCfg.Aggregation = &a
		pm, pe, _ := run(base, cfg.Seed*6000)
		am, ae, size := run(aggCfg, cfg.Seed*6000)
		t.AddRow(rate, pm, pe, am, ae, report.FormatRatio(ae/pe), size)
	}
	return []report.Table{t}
}

// E27LargeFloorScale is the paper's "future" density arc at full scale:
// an enterprise floor grown from 25 to 144 co-deployed BSSs on the
// 1/6/11 reuse pattern, with the carrier-sense threshold raised to
// -62 dBm the way dense deployments actually engineer spatial reuse
// (shrink the sensing cell so distant co-channel BSSs transmit in
// parallel instead of serializing the whole floor). The sweep reports
// aggregate throughput, the per-BSS share, Jain fairness ACROSS BSSs
// (per-BSS goodput sums, not per-flow), the collision rate the
// aggressive CCA pays, and the wall clock per simulated second — the
// figure the spatial grid index and the pooled event loop exist for
// (BenchmarkE27LargeFloor holds the indexed hot path against the
// brute-force oracle on the 100-BSS row).
func E27LargeFloorScale(cfg Config) []report.Table {
	durationUs := float64(cfg.Frames) * 1200
	const staPerBSS = 2
	netCfg := netsim.DefaultConfig()
	netCfg.CSThresholdDBm = -62
	t := report.Table{
		ID:     "E27",
		Title:  "Large-floor scale: 25 -> 144 BSSs under 1/6/11 reuse and OBSS-PD-style carrier sense",
		Note:   "packet-level extension: spatial reuse keeps aggregate capacity growing with density; the spatial index keeps the simulation tractable",
		Header: []string{"BSS", "nodes", "agg Mbps", "per-BSS Mbps", "BSS Jain", "collision rate", "wall ms/sim s"},
	}
	for _, row := range []struct{ nBSS, cols int }{
		{25, 5}, {49, 7}, {100, 10}, {144, 12},
	} {
		build := netsim.LargeFloor(netCfg, row.nBSS, staPerBSS, row.cols, 1, 6, 11)
		jobs := netsim.SeedSweep("floor", build, durationUs, cfg.Seed*7000, netsimSeeds)
		t0 := time.Now()
		results := netsim.ScenarioRunner{Workers: 4}.RunAll(jobs)
		wall := time.Since(t0)
		// Flows are added BSS-major (staPerBSS consecutive flows per
		// BSS), so per-BSS goodput is a strided sum over r.Flows.
		bssMbps := make([]float64, row.nBSS)
		var collRate float64
		for _, r := range results {
			for i, f := range r.Flows {
				bssMbps[i/staPerBSS] += f.GoodputMbps / float64(len(results))
			}
			if r.Attempts > 0 {
				collRate += float64(r.Collisions) / float64(r.Attempts) / float64(len(results))
			}
		}
		agg := netsim.MeanAggGoodput(results)
		wallPerSimS := float64(wall.Milliseconds()) / (durationUs / 1e6) / float64(len(jobs))
		t.AddRow(row.nBSS, row.nBSS*(1+staPerBSS), agg, agg/float64(row.nBSS),
			netsim.JainIndex(bssMbps), collRate, wallPerSimS)
	}
	return []report.Table{t}
}

// saturatedDownlinkFloor is E29's open-loop reference: the apartment
// preset's exact geometry — 12 m pitch, 1/6/11 stagger, ringed
// stations — but with every station's downlink a saturated open-loop
// sender. Because the closed-loop floor is downlink-dominated too,
// this measures the capacity ceiling in the same traffic direction,
// which the self-limiting transport can approach but not exceed.
func saturatedDownlinkFloor(cfg netsim.Config, nBSS, staPerBSS int) func(seed int64) *netsim.Network {
	return func(seed int64) *netsim.Network {
		n := netsim.New(cfg, seed)
		cols := int(math.Ceil(math.Sqrt(float64(nBSS))))
		netsim.RingFloor(n, nBSS, staPerBSS, cols, 12, []int{1, 6, 11}, func(b *netsim.BSS, st *netsim.Node, _ int) {
			n.Add(netsim.FlowSpec{From: b.AP, To: st, AC: netsim.AC_BE,
				Gen: netsim.Saturated{PayloadBytes: 1000}})
		})
		return n
	}
}

// e29Seeds is E29's Monte-Carlo fan-out: the closed-loop QoE
// percentiles pool raw samples across seeds (MergeQoE), and five seeds
// per density make the monotone-degradation signature robust enough to
// gate on.
const e29Seeds = 5

// E29ClosedLoopQoE climbs user density on the closed-loop apartment
// preset and reads the user experience — p95 page-load time, video
// rebuffer ratio, voice MOS — next to the one figure the open-loop
// simulator could offer: saturated goodput, which sits flat at channel
// capacity no matter how many users share it. The closed loop's own
// goodput self-limits (TCP-style windows back off instead of flooding
// the queues), so aggregate throughput stays at or below the saturated
// baseline while every QoE column keeps degrading — the paper's
// "user-visible data rate" axis made measurable.
func E29ClosedLoopQoE(cfg Config) []report.Table {
	durationUs := float64(cfg.Frames) * 250e3
	// The saturated baseline reaches steady state immediately; cap its
	// run so the open-loop reference stays a small fraction of the bill.
	baseDurationUs := durationUs
	if baseDurationUs > 6e6 {
		baseDurationUs = 6e6
	}
	const nBSS = 9
	netCfg := netsim.DefaultConfig()
	t := report.Table{
		ID:    "E29",
		Title: "Closed-loop QoE vs user density: apartment block, 9 BSS on 1/6/11 reuse",
		Note: "transport+app layer: offered load self-limits at capacity while p95 page-load and " +
			"rebuffer ratio keep degrading; open-loop saturated goodput is blind to all of it",
		Header: []string{"users/BSS", "users", "closed Mbps", "open-loop Mbps",
			"p95 PLT ms", "rebuffer", "mean MOS", "qdrop rate"},
	}
	for _, users := range []int{2, 8, 16} {
		build := app.ApartmentBlock(netCfg, nBSS, users)
		jobs := netsim.SeedSweep("apartment", build, durationUs,
			cfg.Seed*8000+int64(users)*101, e29Seeds)
		results := netsim.ScenarioRunner{Workers: 4}.RunAll(jobs)
		qoe := netsim.MergeQoE(results)
		// The open-loop reference: the same floor geometry with every
		// station's downlink saturated — the E22-E27 load model turned
		// in the apartment preset's traffic direction, so the baseline
		// is the true capacity ceiling for this layout.
		baseBuild := saturatedDownlinkFloor(netCfg, nBSS, users)
		baseJobs := netsim.SeedSweep("saturated", baseBuild, baseDurationUs,
			cfg.Seed*8500+int64(users)*101, netsimSeeds)
		base := netsim.MeanAggGoodput(netsim.ScenarioRunner{Workers: 4}.RunAll(baseJobs))
		arrivals, qdrops := 0, 0
		for _, r := range results {
			qdrops += r.QueueDrops
			for _, f := range r.Flows {
				arrivals += f.Arrivals
			}
		}
		qdropRate := 0.0
		if arrivals > 0 {
			qdropRate = float64(qdrops) / float64(arrivals)
		}
		t.AddRow(users, nBSS*users, netsim.MeanAggGoodput(results), base,
			qoe.P95PageLoadUs/1e3, qoe.RebufferRatio, qoe.MeanMOS, qdropRate)
	}
	return []report.Table{t}
}

// E30HtRateAdaptation is the paper's 802.11n "future" section made
// quantitative, in two exhibits. The first walks a single saturated
// link outward while Minstrel samples the 2-D HT ladder (MCS 0-7 x 1-2
// streams x 20/40 MHz): at short range the wide two-stream modes
// deliver a multiple of the best legacy OFDM rate, the goodput decays
// monotonically with distance as the controller walks down the ladder,
// and at the far edge it must never do worse than parking on the most
// robust MCS — the whole point of rate adaptation. The second exhibit
// prices 40 MHz channel bonding on a dense floor: doubling the width
// doubles per-BSS capacity while spans stay orthogonal, but packing
// the same spans into partially overlapping channels hands part of
// that win back as cross-span interference.
func E30HtRateAdaptation(cfg Config) []report.Table {
	durationUs := float64(cfg.Frames) * 8000
	const payload = 1500

	run := func(c netsim.Config, distM float64, baseSeed int64) (float64, map[string]int) {
		build := func(seed int64) *netsim.Network {
			n := netsim.New(c, seed)
			b := n.AddAP("AP", 0, 0, 1)
			st := n.AddStation(b, "sta", distM, 0)
			n.Add(netsim.FlowSpec{From: st, AC: netsim.AC_BE,
				Gen: netsim.Saturated{PayloadBytes: payload}})
			return n
		}
		jobs := netsim.SeedSweep("ht", build, durationUs, baseSeed, netsimSeeds)
		results := netsim.ScenarioRunner{Workers: 4}.RunAll(jobs)
		counts := map[string]int{}
		for _, r := range results {
			for name, n := range r.ModeAttempts {
				counts[name] += n
			}
		}
		return netsim.MeanAggGoodput(results), counts
	}

	// Minstrel over the full 2-stream 40 MHz ladder (HtConfig bundles
	// the A-MPDU setting and the PPDU airtime cap).
	htCfg := netsim.HtConfig(2, 40)

	// The fixed contenders carry the same aggregation setting so the
	// comparison is about rate selection, not MAC efficiency.
	agg := *htCfg.Aggregation
	legacy54 := netsim.DefaultConfig()
	legacy54.Modes = []linkmodel.Mode{modeAt(54)}
	legacy54.Aggregation = &agg
	robust := netsim.DefaultConfig()
	robust.Modes = linkmodel.HtModes(2, 40)[:1] // the ladder head: MCS0 1ss 20 MHz
	robust.Aggregation = &agg

	ladder := report.Table{
		ID:     "E30",
		Title:  "HT rate adaptation: Minstrel on the MCS x width ladder vs fixed rates, single link",
		Note:   "new subsystem: the 2-D (MCS x width) ladder beats the best legacy rate up close and never loses to the most robust MCS at the edge",
		Header: []string{"distance m", "minstrel HT Mbps", "fixed OFDM 54 Mbps", "fixed MCS0 Mbps", "HT gain", "top mode"},
	}
	for _, distM := range []float64{5, 15, 30, 50, 80, 110} {
		ht, counts := run(htCfg, distM, cfg.Seed*9000)
		l54, _ := run(legacy54, distM, cfg.Seed*9000)
		mcs0, _ := run(robust, distM, cfg.Seed*9000)
		top, topCount := "", 0
		for _, m := range htCfg.Modes { // deterministic tie-break order
			if c := counts[m.Name]; c > topCount {
				top, topCount = m.Name, c
			}
		}
		gain := report.FormatRatio(ht / l54)
		if l54 == 0 {
			gain = "-" // 54 Mbps cannot close the link at all out here
		}
		ladder.AddRow(distM, ht, l54, mcs0, gain, top)
	}

	bond := report.Table{
		ID:    "E30b",
		Title: "40 MHz bonding on a dense floor: orthogonal spans double capacity, partial overlap hands some back",
		Note:  "new subsystem: a 40 MHz span occupies two 20 MHz channels; overlapping-but-not-identical spans trade fractional interference for the wider pipe",
		// Collisions count lost MPDUs while attempts count A-MPDU
		// exchanges, so the last column is MPDUs lost per exchange (a
		// collided burst forfeits the whole aggregate), not a rate in
		// [0,1].
		Header: []string{"floor", "channels", "agg Mbps", "per-BSS Mbps", "coll MPDUs/attempt"},
	}
	const nBSS, staPerBSS = 6, 3
	for _, row := range []struct {
		label    string
		widthMHz int
		channels []int
	}{
		// Same floor three ways: 20 MHz on the classic orthogonal set,
		// 40 MHz with spans {1,2}/{5,6}/{9,10} still orthogonal, and
		// 40 MHz squeezed into {1,2}/{2,3}/{3,4} where neighbors share
		// a 20 MHz slot.
		{"20 MHz", 20, []int{1, 5, 9}},
		{"40 MHz orthogonal", 40, []int{1, 5, 9}},
		{"40 MHz overlapped", 40, []int{1, 2, 3}},
	} {
		c := netsim.HtConfig(2, row.widthMHz)
		build := netsim.DenseGrid(c, nBSS, staPerBSS, row.channels, 20, payload)
		jobs := netsim.SeedSweep("bond", build, durationUs, cfg.Seed*9500, netsimSeeds)
		results := netsim.ScenarioRunner{Workers: 4}.RunAll(jobs)
		var collRate float64
		for _, r := range results {
			if r.Attempts > 0 {
				collRate += float64(r.Collisions) / float64(r.Attempts) / float64(len(results))
			}
		}
		chans := make([]string, len(row.channels))
		for i, ch := range row.channels {
			chans[i] = fmt.Sprintf("%d", ch)
		}
		agg := netsim.MeanAggGoodput(results)
		bond.AddRow(row.label, strings.Join(chans, "/"), agg, agg/nBSS, collRate)
	}
	return []report.Table{ladder, bond}
}

// E31SpatialReuse prices 802.11ax-style OBSS-PD spatial reuse on the
// dense floors, the capacity-vs-fairness tradeoff the BSS-coloring
// subsystem exists to expose. Where E27 faked reuse by raising the
// carrier-sense threshold for everyone (free parallelism, no cost),
// the real mechanism is color-aware and priced: only inter-BSS frames
// inside the [CS, OBSS-PD) window are ignored, and the reusing
// transmission pays the coupled TX-power backoff (one dB of deferral
// relaxed costs one dB of TX power), so aggressive thresholds shrink
// every reusing cell's own link margin. The first exhibit sweeps the
// threshold on a LargeFloor at the legacy -82 dBm energy detect:
// aggregate capacity climbs as distant co-channel cells stop
// serializing, while the per-BSS Jain index prices what reuse does to
// the cells whose neighbors now talk over them. The second runs the
// same sweep on the bonded HT floor (DenseGrid, orthogonal spans), where
// 40 MHz spans and Minstrel's ladder absorb part of the backoff.
func E31SpatialReuse(cfg Config) []report.Table {
	durationUs := float64(cfg.Frames) * 1200
	sweep := []struct {
		label string
		thDBm float64
	}{
		{"off (legacy CS)", 0},
		{"-72 dBm", -72},
		{"-67 dBm", -67},
		{"-62 dBm", -62},
	}
	run := func(name string, build func(int64) *netsim.Network, baseSeed int64) (agg, jain float64, ignores, reuse int) {
		jobs := netsim.SeedSweep(name, build, durationUs, baseSeed, netsimSeeds)
		results := netsim.ScenarioRunner{Workers: 4}.RunAll(jobs)
		for _, r := range results {
			jain += netsim.JainIndex(r.BssGoodputMbps) / float64(len(results))
			ignores += r.ObssIgnores
			reuse += r.ObssReuseTx
		}
		return netsim.MeanAggGoodput(results), jain, ignores, reuse
	}
	backoff := func(c netsim.Config) string {
		if c.ObssPdThresholdDBm == 0 {
			return "-"
		}
		return fmt.Sprintf("%.0f dB", c.CSThresholdDBm-c.ObssPdThresholdDBm)
	}

	floor := report.Table{
		ID:    "E31",
		Title: "OBSS-PD spatial reuse on the large floor: aggregate capacity vs per-BSS fairness",
		Note: "new subsystem: color-aware deferral inside [CS, OBSS-PD) buys parallelism, " +
			"priced by the coupled TX-power backoff instead of E27's free global CS raise",
		Header: []string{"OBSS-PD", "tx backoff", "agg Mbps", "per-BSS Jain", "ignores", "reuse tx"},
	}
	const nBSS, staPerBSS, gridCols = 16, 2, 4
	for _, row := range sweep {
		c := netsim.DefaultConfig() // -82 dBm legacy energy detect
		c.ObssPdThresholdDBm = row.thDBm
		build := netsim.LargeFloor(c, nBSS, staPerBSS, gridCols, 1, 6, 11)
		agg, jain, ignores, reuse := run("obss-floor", build, cfg.Seed*11000)
		floor.AddRow(row.label, backoff(c), agg, jain, ignores, reuse)
	}

	bonded := report.Table{
		ID:    "E31b",
		Title: "OBSS-PD on the bonded HT floor: reuse under 40 MHz spans and Minstrel adaptation",
		Note: "new subsystem: on the tight 20 m bonded pitch most inter-BSS energy lands above " +
			"any sane threshold, so reuse stays rare and aggressive thresholds tax capacity — " +
			"OBSS-PD pays on the sparse floor above, not here",
		Header: []string{"OBSS-PD", "tx backoff", "agg Mbps", "per-BSS Jain", "ignores", "reuse tx"},
	}
	for _, row := range sweep {
		c := netsim.HtConfig(2, 40)
		c.ObssPdThresholdDBm = row.thDBm
		// The bonded-HT dense floor: 9 bonded BSSs, orthogonal
		// {1,2}/{5,6}/{9,10} spans on the 20 m DenseGrid pitch.
		build := netsim.DenseGrid(c, 9, staPerBSS, []int{1, 5, 9}, 20, 1500)
		agg, jain, ignores, reuse := run("obss-ht", build, cfg.Seed*11500)
		bonded.AddRow(row.label, backoff(c), agg, jain, ignores, reuse)
	}
	return []report.Table{floor, bonded}
}
