package netsim

import (
	"fmt"
	"math"

	"repro/internal/linkmodel"
)

// Scenario presets shared by experiments E22-E25, cmd/netsim, and the
// benchmarks. Each returns a builder closure so the ScenarioRunner can
// instantiate one fresh, independently-seeded Network per job. Every
// preset validates its shape eagerly — at preset-construction time, not
// inside the closure — so a nonsensical topology panics before jobs fan
// out across workers.

// checkCount panics unless v >= minimum — the integer counterpart of
// traffic.go's checkPositive, used to reject nonsensical topology
// counts with a clear message instead of an index/modulo error deep in
// the builder.
func checkCount(scenario, field string, v, minimum int) {
	if v < minimum {
		panic(fmt.Sprintf("netsim: %s.%s must be at least %d, got %d", scenario, field, minimum, v))
	}
}

// HtConfig is DefaultConfig retuned for 802.11n HT operation: the full
// linkmodel.HtModes rate ladder for nss spatial streams at widthMHz
// (20 or 40), Minstrel sampling rate control over that 2-D ladder,
// A-MPDU aggregation (HT's MAC-efficiency half), and — at 40 MHz —
// channel bonding with partial-overlap interference. MAC timing,
// propagation, and carrier sense stay at the 802.11a/g defaults, so HT
// and legacy runs differ only in the PHY rate subsystem.
func HtConfig(nss, widthMHz int) Config {
	cfg := DefaultConfig()
	cfg.Modes = linkmodel.HtModes(nss, widthMHz)
	if widthMHz == 40 {
		cfg.ChannelWidthMHz = 40
	}
	cfg.RateControl = "minstrel"
	agg := DefaultAggregation()
	// The HT PPDU duration cap. Without it a Minstrel probe at the
	// slowest ladder entry would drag a full 64 KiB burst out to tens
	// of milliseconds of airtime — one sampling decision worth a third
	// of a short run.
	agg.MaxAmpduAirUs = 4000
	cfg.Aggregation = &agg
	return cfg
}

// DenseGrid lays nBSS APs on a square-ish grid with the given spacing
// and channel assignment (channels[i%len] for BSS i), surrounds each AP
// with staPerBSS saturated-uplink stations on a ring, and is the E22
// dense-deployment workload. With a single channel the whole floor is
// one collision domain; with three channels it is the classic 1/6/11
// reuse pattern.
func DenseGrid(cfg Config, nBSS, staPerBSS int, channels []int, spacingM float64, payloadBytes int) func(seed int64) *Network {
	checkCount("DenseGrid", "nBSS", nBSS, 1)
	checkCount("DenseGrid", "staPerBSS", staPerBSS, 1)
	checkCount("DenseGrid", "len(channels)", len(channels), 1)
	checkPositive("DenseGrid", "spacingM", spacingM)
	checkCount("DenseGrid", "payloadBytes", payloadBytes, 1)
	return func(seed int64) *Network {
		n := New(cfg, seed)
		cols := int(math.Ceil(math.Sqrt(float64(nBSS))))
		for i := 0; i < nBSS; i++ {
			x := float64(i%cols) * spacingM
			y := float64(i/cols) * spacingM
			b := n.AddAP(fmt.Sprintf("AP%d", i), x, y, channels[i%len(channels)])
			for s := 0; s < staPerBSS; s++ {
				// Ring placement with a jittered radius keeps every
				// station well inside its AP's top-rate range while
				// making the draw seed-dependent.
				ang := 2 * math.Pi * float64(s) / float64(staPerBSS)
				r := 3 + 7*n.Src().Float64()
				st := n.AddStation(b, fmt.Sprintf("sta%d.%d", i, s),
					x+r*math.Cos(ang), y+r*math.Sin(ang))
				n.Add(FlowSpec{From: st, AC: AC_BE, Gen: Saturated{PayloadBytes: payloadBytes}})
			}
		}
		return n
	}
}

// largeFloorSpacingM is the AP pitch of the LargeFloor preset: 25 m
// cells, the upper end of real enterprise high-density designs.
const largeFloorSpacingM = 25

// LargeFloor is the 100+ BSS enterprise-floor workload behind the E27
// density sweep and the spatial-index scale benchmark: nBSS APs laid
// out gridCols per row at a fixed 25 m pitch, channels drawn from the
// given list (1/6/11 for the classic reuse pattern) in RingFloor's
// staggered plan, and staPerBSS stations ringed around each AP in
// the high-density association profile of a real enterprise floor: the
// first station of every BSS is a saturated uplink (the cell's active
// user), the rest are associated but lightly loaded (a 200-byte
// keepalive every second) — present for carrier sense, interference,
// and membership scans, yet rarely contending. Unlike DenseGrid it is
// sized to stress the hot loop — hundreds to thousands of co-channel
// nodes — so whether medium.start scans all of them or only a
// spatial-grid neighborhood decides the wall clock. With the default
// -82 dBm carrier sense the whole floor is one collision domain; pair
// it with an OBSS-PD-style raised CS threshold (e.g. -62 dBm, as E27
// does) to let distant cells transmit in parallel the way dense
// deployments are actually engineered.
func LargeFloor(cfg Config, nBSS, staPerBSS, gridCols int, channels ...int) func(seed int64) *Network {
	checkCount("LargeFloor", "nBSS", nBSS, 1)
	checkCount("LargeFloor", "staPerBSS", staPerBSS, 1)
	checkCount("LargeFloor", "gridCols", gridCols, 1)
	checkCount("LargeFloor", "len(channels)", len(channels), 1)
	const payloadBytes = 1000
	return func(seed int64) *Network {
		n := New(cfg, seed)
		RingFloor(n, nBSS, staPerBSS, gridCols, largeFloorSpacingM, channels, func(_ *BSS, st *Node, s int) {
			if s == 0 {
				n.Add(FlowSpec{From: st, AC: AC_BE, Gen: Saturated{PayloadBytes: payloadBytes}})
			} else {
				n.Add(FlowSpec{From: st, AC: AC_BE, Gen: CBR{PayloadBytes: 200, IntervalUs: 1e6}})
			}
		})
		return n
	}
}

// RingFloor lays out the floor that LargeFloor, the closed-loop app
// presets and E29's open-loop reference share. nBSS APs sit gridCols
// per row at spacingM pitch; AP i is "AP<i>", on channel
// channels[(col + 2·row) mod len]. That staggered plan keeps
// grid-adjacent APs off each other's channel in both directions, the
// way real channel plans stagger reuse (plain round-robin would stack
// same-channel APs into adjacent columns whenever gridCols divides by
// the channel count). Around each AP, staPerBSS stations "sta<i>.<s>"
// stand at evenly spaced angles on a ring of radius 3 + 5·U m, one
// n.Src() draw each. station runs right after each station joins, in
// placement order, to give it flows, mobility or users; any draws it
// makes from n.Src() fall between the ring radii.
func RingFloor(n *Network, nBSS, staPerBSS, gridCols int, spacingM float64, channels []int, station func(b *BSS, st *Node, s int)) {
	for i := 0; i < nBSS; i++ {
		col, row := i%gridCols, i/gridCols
		x := float64(col) * spacingM
		y := float64(row) * spacingM
		b := n.AddAP(fmt.Sprintf("AP%d", i), x, y, channels[(col+2*row)%len(channels)])
		for s := 0; s < staPerBSS; s++ {
			ang := 2 * math.Pi * float64(s) / float64(staPerBSS)
			r := 3 + 5*n.Src().Float64()
			st := n.AddStation(b, fmt.Sprintf("sta%d.%d", i, s),
				x+r*math.Cos(ang), y+r*math.Sin(ang))
			station(b, st, s)
		}
	}
}

// SingleLink is one saturated uplink station at distM from its AP —
// the cleanest stage for the MAC-efficiency story E26 tells: at a
// fixed PHY rate, how much of the line rate survives per-frame
// overhead, and how much A-MPDU aggregation buys back.
func SingleLink(cfg Config, distM float64, payloadBytes int) func(seed int64) *Network {
	checkPositive("SingleLink", "distM", distM)
	checkCount("SingleLink", "payloadBytes", payloadBytes, 1)
	return func(seed int64) *Network {
		n := New(cfg, seed)
		b := n.AddAP("AP", 0, 0, 1)
		st := n.AddStation(b, "sta", distM, 0)
		n.Add(FlowSpec{From: st, AC: AC_BE, Gen: Saturated{PayloadBytes: payloadBytes}})
		return n
	}
}

// mixStation places one station for a traffic-mix scenario on a
// jittered ring around the BSS's AP.
func mixStation(n *Network, b *BSS, kind string, i int) *Node {
	ang := n.Src().Float64() * 2 * math.Pi
	r := 3 + 7*n.Src().Float64()
	return n.AddStation(b, fmt.Sprintf("%s%d", kind, i),
		r*math.Cos(ang), r*math.Sin(ang))
}

// TrafficMix is the E23/E25 workload: one BSS carrying voice-like CBR
// flows (AC_VO), Poisson data flows whose rate sweeps the offered load
// (AC_BE), and bursty on/off background (AC_BK). dataMbpsEach is the
// mean offered load per data flow. All flows are uplink; see
// TrafficMixDownlink for the AP-sourced mirror.
func TrafficMix(cfg Config, nVoice, nData, nBurst int, dataMbpsEach float64) func(seed int64) *Network {
	return trafficMix("TrafficMix", false, cfg, nVoice, nData, nBurst, dataMbpsEach)
}

// TrafficMixDownlink mirrors TrafficMix with every flow sourced at the
// AP (AP→STA): voice, data, and background all ride the AP's per-AC
// queues, so EDCA's internal virtual-collision arbitration — not just
// inter-station contention — differentiates the classes.
func TrafficMixDownlink(cfg Config, nVoice, nData, nBurst int, dataMbpsEach float64) func(seed int64) *Network {
	return trafficMix("TrafficMixDownlink", true, cfg, nVoice, nData, nBurst, dataMbpsEach)
}

// trafficMix builds both mix directions. The three classes are
// voice-like CBR (160 B / 20 ms ≈ a G.711 stream) in AC_VO, Poisson
// data at dataMbpsEach in AC_BE, and bursty on/off background in AC_BK.
// Under legacy DCF (Config.Edca nil) the categories are coerced to
// AC_BE at run time, reproducing the plain single-queue mix.
func trafficMix(scenario string, downlink bool, cfg Config, nVoice, nData, nBurst int, dataMbpsEach float64) func(seed int64) *Network {
	checkCount(scenario, "nVoice", nVoice, 0)
	checkCount(scenario, "nData", nData, 0)
	checkCount(scenario, "nBurst", nBurst, 0)
	checkCount(scenario, "nVoice+nData+nBurst", nVoice+nData+nBurst, 1)
	if nData > 0 {
		checkPositive(scenario, "dataMbpsEach", dataMbpsEach)
	}
	return func(seed int64) *Network {
		n := New(cfg, seed)
		b := n.AddAP("AP", 0, 0, 1)
		add := func(kind string, count int, ac AC, gen func() TrafficGen) {
			for i := 0; i < count; i++ {
				st := mixStation(n, b, kind, i)
				spec := FlowSpec{From: st, AC: ac, Gen: gen()}
				if downlink {
					spec.From, spec.To = b.AP, st
				}
				n.Add(spec)
			}
		}
		add("voice", nVoice, AC_VO, func() TrafficGen { return CBR{PayloadBytes: 160, IntervalUs: 20000} })
		add("data", nData, AC_BE, func() TrafficGen {
			return Poisson{PayloadBytes: 1200, PktPerSec: dataMbpsEach * 1e6 / (8 * 1200)}
		})
		add("burst", nBurst, AC_BK, func() TrafficGen {
			return &OnOff{PayloadBytes: 1200, IntervalUs: 2000, OnMeanUs: 50000, OffMeanUs: 200000}
		})
		return n
	}
}

// HiddenPair places two stations on opposite sides of an AP, far enough
// apart that they cannot carrier-sense each other but still inside the
// AP's decode range: the textbook hidden-terminal topology.
func HiddenPair(cfg Config, separationM float64, payloadBytes int) func(seed int64) *Network {
	checkPositive("HiddenPair", "separationM", separationM)
	checkCount("HiddenPair", "payloadBytes", payloadBytes, 1)
	return func(seed int64) *Network {
		n := New(cfg, seed)
		b := n.AddAP("AP", 0, 0, 1)
		a := n.AddStation(b, "staA", -separationM/2, 0)
		c := n.AddStation(b, "staB", separationM/2, 0)
		n.Add(FlowSpec{From: a, AC: AC_BE, Gen: Saturated{PayloadBytes: payloadBytes}})
		n.Add(FlowSpec{From: c, AC: AC_BE, Gen: Saturated{PayloadBytes: payloadBytes}})
		return n
	}
}

// RoamingWalk builds two APs on the same channel with one mobile
// station walking from the first toward the second while streaming CBR
// uplink — the strongest-signal reassociation demo.
func RoamingWalk(cfg Config, apDistM, speedMps float64) func(seed int64) *Network {
	return roamingWalk("RoamingWalk", false, cfg, apDistM, speedMps)
}

// RoamingWalkDownlink is RoamingWalk with the CBR stream reversed: AP1
// sends voice-class downlink to the walker, and the queued packets are
// handed off to AP2 when the walker reassociates — the queue follows
// the station.
func RoamingWalkDownlink(cfg Config, apDistM, speedMps float64) func(seed int64) *Network {
	return roamingWalk("RoamingWalkDownlink", true, cfg, apDistM, speedMps)
}

func roamingWalk(scenario string, downlink bool, cfg Config, apDistM, speedMps float64) func(seed int64) *Network {
	checkPositive(scenario, "apDistM", apDistM)
	checkPositive(scenario, "speedMps", speedMps)
	return func(seed int64) *Network {
		n := New(cfg, seed)
		b1 := n.AddAP("AP1", 0, 0, 1)
		n.AddAP("AP2", apDistM, 0, 1)
		st := n.AddStation(b1, "walker", 5, 0)
		n.SetVelocity(st, speedMps, 0)
		spec := FlowSpec{From: st, AC: AC_BE, Gen: CBR{PayloadBytes: 800, IntervalUs: 4000}}
		if downlink {
			spec.From, spec.To, spec.AC = b1.AP, st, AC_VO
		}
		n.Add(spec)
		return n
	}
}
