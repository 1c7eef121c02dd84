// Package netsim is a packet-level, event-driven network simulator for
// multi-BSS 802.11 deployments, built on the discrete-event engine in
// internal/sim. Where internal/mac answers "what does saturated DCF
// yield on average" with closed-form or slot-averaged models, netsim
// plays out every frame exchange: stations draw backoff, freeze when
// they sense the medium, collide at receivers they cannot hear
// (hidden nodes), and succeed or fail by SINR through the
// internal/linkmodel PER curves. Positions feed internal/channel path
// loss, which feeds per-link rate selection from the internal/linkmodel
// mode tables — once at association by default, or frame by frame
// through the rate controller Config.RateControl names — so topology,
// PHY generation, and MAC contention interact the way the paper
// describes rather than by assumption. Above Config.RtsThresholdBytes an
// exchange opens with RTS/CTS: the short RTS takes the SINR judgment,
// and the NAV set by the decoded RTS/CTS duration fields defers
// stations that cannot carrier-sense the data frame itself.
//
// Transmission is organized around TXOP frame exchanges (txop.go): a
// queue that wins contention obtains a Txop bounded by its category's
// AcParams.TxopLimitUs and fills it with composable exchanges —
// optional RTS/CTS protection in front of a single MPDU with ACK or,
// with Config.Aggregation set, an A-MPDU burst judged MPDU by MPDU and
// closed by a Block-ACK whose bitmap retransmits exactly the failed
// subset. All limits zero and Aggregation nil reproduce the classic
// one-exchange-per-access simulator bit for bit.
//
// The package exposes three levels:
//
//   - Network: build nodes/BSSs by hand, attach traffic with
//     Add(FlowSpec{From, To, AC, Gen}) — uplink, downlink (AP→STA,
//     with the queue handed off between APs when the station roams),
//     or STA↔STA relayed through the AP — then Run. With Config.Edca
//     set, each node contends per 802.11e access category
//     (AC_VO/AC_VI/AC_BE/AC_BK), internal ties resolving by the
//     virtual-collision rule; with it nil, every flow is coerced into
//     AC_BE under plain DCF timing.
//   - Scenario presets (DenseGrid, TrafficMix, HiddenPair, roaming
//     walks and their downlink variants): canned topologies used by
//     experiments E22–E25 and cmd/netsim.
//   - ScenarioRunner: fan independent seeds/scenarios across a worker
//     pool; every job builds its own Network and rng.Source, so runs
//     are bit-for-bit reproducible and race-free.
//
// Time is measured in microseconds throughout, matching mac.DcfConfig.
package netsim

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/channel"
	"repro/internal/linkmodel"
	"repro/internal/mac"
	"repro/internal/mathx"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Config carries the PHY/MAC/propagation parameters shared by every
// node in a simulated network.
type Config struct {
	Dcf      mac.DcfConfig    // slot/DIFS/SIFS/CW timing
	Modes    []linkmodel.Mode // rate table for per-link selection
	PathLoss channel.PathLossModel
	Budget   channel.LinkBudget

	// CSThresholdDBm is the energy-detect threshold: a node senses the
	// medium busy when any ongoing same-channel transmission arrives
	// above it. Nodes farther apart than the implied range are hidden
	// from each other.
	CSThresholdDBm float64

	// QueueLimit bounds each node's per-category transmit queue;
	// arrivals beyond it are dropped (drop-tail). With Edca set, each
	// category's own QueueLimit applies instead.
	QueueLimit int

	// Edca, when non-nil, enables 802.11e per-access-category channel
	// access: every node contends with one queue per AC, using that
	// category's AIFS/CWmin/CWmax/QueueLimit from this table, and a
	// node's own same-slot ties resolve by the virtual-collision rule
	// (highest AC wins, losers retry as if collided). Nil means legacy
	// single-class DCF: every flow is coerced into AC_BE with
	// DIFS/CWMin/CWMax from Dcf, reproducing pre-EDCA results exactly.
	Edca *EdcaParams

	// RtsThresholdBytes enables the RTS/CTS exchange for data frames of
	// at least this many payload bytes. 1 protects everything; 0 or
	// negative disables the mechanism entirely (note this differs from
	// the dot11RTSThreshold MIB attribute, where 0 protects every frame
	// and a value above the maximum MSDU size disables). The
	// short RTS is what gets judged by SINR, so a hidden-node collision
	// costs plcp+RTS of airtime instead of the whole data frame, and
	// the responder's CTS sets the NAV of stations the sender cannot
	// reach.
	RtsThresholdBytes int

	// RtsUs / CtsUs are the on-air durations of the RTS and CTS control
	// frames after the PLCP preamble (they ride the most robust mode in
	// the rate table).
	RtsUs, CtsUs float64

	// RateControl names the per-destination rate-adaptation scheme:
	//
	//   "" or "fixed"  association-time median-SNR mode selection;
	//   "arf"          per-frame automatic rate fallback: each node
	//                  keeps one mac.ArfController (mac.DefaultArf) per
	//                  destination and feeds it every data frame
	//                  outcome, so the rate-vs-range staircase emerges
	//                  frame by frame (and collapses back as a station
	//                  walks away). With aggregation on, a Block-ACK
	//                  that acknowledges anything is a success, a burst
	//                  that draws none at all is a failure;
	//   "minstrel"     mac.MinstrelController (mac.DefaultMinstrel) per
	//                  destination — EWMA throughput sampling over the
	//                  whole Modes ladder, the scheme built for the 2-D
	//                  HT (MCS x width) tables, fed the per-A-MPDU
	//                  delivery verdict from each Block-ACK bitmap.
	RateControl string

	// ChannelWidthMHz selects the operating channel width of every BSS:
	// 0 or 20 is the legacy single-20-MHz-channel model, 40 enables
	// channel bonding — BSS.Channel becomes the primary 20 MHz slot and
	// the BSS also occupies slot Channel+1. Transmissions at a 40 MHz
	// mode span both slots; 20 MHz frames (including RTS/CTS at the
	// robust rate) ride the primary alone. Partially overlapping BSSs
	// (|channel difference| == 1) contribute fractional interference
	// power to each other instead of being independent, and a 40 MHz
	// receiver integrates twice the noise bandwidth. Any Modes entry
	// wider than 20 MHz requires 40 here.
	ChannelWidthMHz int

	// Aggregation, when non-nil, enables A-MPDU frame aggregation: a
	// winning queue bundles its same-destination head-of-line packets
	// into one burst under a single PLCP preamble, each MPDU is judged
	// individually through the linkmodel PER curves, and a Block-ACK
	// bitmap a SIFS later retransmits exactly the failed subset. This is
	// 802.11n's answer to the MAC-efficiency collapse at high PHY rates:
	// preamble/SIFS/ACK overhead is paid once per burst instead of once
	// per frame. Nil reproduces the single-frame exchange exactly.
	Aggregation *AggConfig

	// RoamIntervalUs, when positive, schedules a periodic scan on which
	// mobile nodes move and stations reassociate to the strongest AP if
	// it beats the current one by RoamHysteresisDB.
	RoamIntervalUs   float64
	RoamHysteresisDB float64

	// SampleIntervalUs, when positive, attaches a time-series sampler
	// that snapshots telemetry every tick — per-AC goodput, queue
	// depths and airtime, medium busy/collision airtime fractions, NAV
	// occupancy — into the columnar SampleSeries on Result.Samples.
	// Each shard samples its own BSSs on its own engine, and collect
	// merges the shards' windows. The tick only reads state and
	// reschedules itself, so a sampled run is bit-identical to an
	// unsampled one and keeps its shard plan. 0 disables sampling.
	SampleIntervalUs float64

	// Shards requests execution on up to this many parallel partitions
	// (shard.go): Prepare splits the BSSs into causally independent
	// interaction groups, gives each group its own engine and RNG
	// stream, and assigns whole groups to partitions; each partition's
	// goroutine runs its groups back to back, each straight to the
	// horizon with no synchronization between them. 0 and 1 mean the
	// classic single engine, bit-identical to every earlier release.
	// Requests the floor cannot honor — fewer interaction groups than
	// shards, or mobility — clamp or fall back to fewer shards (see
	// Network.Plan for what happened and why); probes and the sampler
	// never change the plan. Every value that runs more than one
	// partition gives the same result bit for bit, since a group draws
	// from its own stream wherever it runs; it matches the single
	// engine, which draws from the un-split stream, only statistically.
	Shards int

	// Channels, when positive, is the number of 20 MHz channels the
	// regulatory band provides: every BSS primary must lie in
	// [1, Channels], and a bonded (40 MHz) BSS additionally needs its
	// secondary slot Channel+1 inside the band. 0 leaves channel numbers
	// unchecked, the legacy behavior. AddAP enforces the bound at
	// construction so a top-of-band 40 MHz BSS fails loudly instead of
	// silently occupying a slot outside the configured band.
	Channels int

	// ObssPdThresholdDBm, when non-zero, enables 802.11ax-style OBSS-PD
	// spatial reuse with BSS coloring: every BSS carries a color in its
	// frame headers, and a listener may ignore — for both carrier-sense
	// deferral and NAV adoption — an inter-BSS (different-color) frame
	// heard above the legacy CSThresholdDBm but below this threshold.
	// The standard's coupling rule applies: a transmission launched
	// while such a frame is ignorable is sent with its TX power backed
	// off by (CSThresholdDBm − ObssPdThresholdDBm) dB — one dB of
	// deferral relaxed costs one dB of transmit power — so reuse trades
	// range for parallelism exactly as 802.11ax does. Must be negative
	// and strictly above CSThresholdDBm (it relaxes legacy deferral, it
	// cannot tighten it). 0 disables the mechanism entirely and is
	// bit-identical to every earlier release. Same-color (same-BSS)
	// frames are always deferred to and their NAV always honored.
	ObssPdThresholdDBm float64
}

// AggConfig parameterizes A-MPDU aggregation (Config.Aggregation).
type AggConfig struct {
	// MaxAmpduBytes caps the summed MPDU payload of one A-MPDU; a burst
	// stops growing before the packet that would exceed it. A head
	// packet larger than the cap still goes out alone.
	MaxAmpduBytes int
	// MaxAmpduFrames caps the number of MPDUs per A-MPDU. 1 degenerates
	// to single-frame exchanges (every burst is just the head packet).
	MaxAmpduFrames int
	// BlockAckUs is the on-air duration of the Block-ACK response after
	// the PLCP preamble; it replaces the per-frame ACK at the end of an
	// aggregated exchange.
	BlockAckUs float64
	// MaxAmpduAirUs caps one A-MPDU's data airtime (the PPDU duration
	// limit real HT hardware enforces): a gathered burst is trimmed
	// until it fits, though a lone head MPDU still goes out. This is
	// what keeps a rate controller's probe at the slowest ladder entry
	// from occupying the medium for tens of milliseconds. 0 = no cap
	// (the legacy byte/frame-capped behavior).
	MaxAmpduAirUs float64
}

// DefaultAggregation is an 802.11n-flavoured A-MPDU setting: 64 KiB
// bursts of up to 32 MPDUs, closed by a compressed Block-ACK of about
// one OFDM ACK's duration.
func DefaultAggregation() AggConfig {
	return AggConfig{MaxAmpduBytes: 65535, MaxAmpduFrames: 32, BlockAckUs: 44}
}

// DefaultConfig is an 802.11a/g network: OFDM 6-54 Mbps rates, 2.4 GHz
// TGn path loss, 15 dBm clients, -82 dBm carrier sense, legacy DCF
// (set Edca — e.g. to DefaultEdca(cfg.Dcf, cfg.QueueLimit) — for
// 802.11e access categories).
func DefaultConfig() Config {
	return Config{
		Dcf:              mac.Dot11agDcf(),
		Modes:            linkmodel.OfdmModes(),
		PathLoss:         channel.Model24GHz(),
		Budget:           channel.DefaultLinkBudget(20e6),
		CSThresholdDBm:   -82,
		QueueLimit:       64,
		RtsUs:            28,
		CtsUs:            28,
		RoamHysteresisDB: 3,
	}
}

// Validate panics with a clear message when the configuration cannot
// drive a simulation — an empty rate table, non-positive MAC timing, or
// a malformed EDCA table. New calls it after filling defaults, so every
// Network is validated; scenario builders may also call it early to
// surface errors before jobs fan out.
func (c Config) Validate() {
	if len(c.Modes) == 0 {
		panic("netsim: Config.Modes is empty")
	}
	checkPositive("Config.Dcf", "SlotUs", c.Dcf.SlotUs)
	checkPositive("Config.Dcf", "SIFSUs", c.Dcf.SIFSUs)
	checkPositive("Config.Dcf", "DIFSUs", c.Dcf.DIFSUs)
	if c.Dcf.CWMin < 0 || c.Dcf.CWMax < c.Dcf.CWMin {
		panic(fmt.Sprintf("netsim: Config.Dcf window [%d,%d] is not a valid CW range",
			c.Dcf.CWMin, c.Dcf.CWMax))
	}
	if c.QueueLimit <= 0 {
		panic(fmt.Sprintf("netsim: Config.QueueLimit must be positive, got %d", c.QueueLimit))
	}
	if c.RtsThresholdBytes > 0 {
		checkPositive("Config", "RtsUs", c.RtsUs)
		checkPositive("Config", "CtsUs", c.CtsUs)
	}
	if c.RoamIntervalUs < 0 || math.IsNaN(c.RoamIntervalUs) {
		panic(fmt.Sprintf("netsim: Config.RoamIntervalUs must not be negative, got %v", c.RoamIntervalUs))
	}
	if c.SampleIntervalUs < 0 || math.IsNaN(c.SampleIntervalUs) || math.IsInf(c.SampleIntervalUs, 0) {
		panic(fmt.Sprintf("netsim: Config.SampleIntervalUs must be a non-negative finite number, got %v", c.SampleIntervalUs))
	}
	if c.Shards < 0 {
		panic(fmt.Sprintf("netsim: Config.Shards must not be negative, got %d", c.Shards))
	}
	if c.Channels < 0 {
		panic(fmt.Sprintf("netsim: Config.Channels must not be negative, got %d", c.Channels))
	}
	if t := c.ObssPdThresholdDBm; t != 0 {
		if math.IsNaN(t) || math.IsInf(t, 0) || t > 0 {
			panic(fmt.Sprintf("netsim: Config.ObssPdThresholdDBm must be a negative finite dBm figure (0 disables), got %v", t))
		}
		if t <= c.CSThresholdDBm {
			panic(fmt.Sprintf("netsim: Config.ObssPdThresholdDBm (%v) must be above Config.CSThresholdDBm (%v) — OBSS-PD relaxes legacy deferral, it cannot tighten it",
				t, c.CSThresholdDBm))
		}
	}
	switch c.RateControl {
	case "", "fixed", "arf", "minstrel":
	default:
		panic(fmt.Sprintf("netsim: Config.RateControl %q is not one of \"\", \"fixed\", \"arf\", \"minstrel\"", c.RateControl))
	}
	switch c.ChannelWidthMHz {
	case 0, 20, 40:
	default:
		panic(fmt.Sprintf("netsim: Config.ChannelWidthMHz must be 0, 20, or 40, got %d", c.ChannelWidthMHz))
	}
	for _, m := range c.Modes {
		if m.BandwidthMHz > 20 && c.ChannelWidthMHz != 40 {
			panic(fmt.Sprintf("netsim: Config.Modes contains %d MHz mode %q but Config.ChannelWidthMHz is %d, not 40",
				int(m.BandwidthMHz), m.Name, c.ChannelWidthMHz))
		}
	}
	if c.Edca != nil {
		c.Edca.validate()
	}
	if a := c.Aggregation; a != nil {
		if a.MaxAmpduFrames <= 0 {
			panic(fmt.Sprintf("netsim: Config.Aggregation.MaxAmpduFrames must be positive, got %d", a.MaxAmpduFrames))
		}
		if a.MaxAmpduBytes <= 0 {
			panic(fmt.Sprintf("netsim: Config.Aggregation.MaxAmpduBytes must be positive, got %d", a.MaxAmpduBytes))
		}
		checkPositive("Config.Aggregation", "BlockAckUs", a.BlockAckUs)
		if a.MaxAmpduAirUs < 0 {
			panic(fmt.Sprintf("netsim: Config.Aggregation.MaxAmpduAirUs must not be negative, got %v", a.MaxAmpduAirUs))
		}
	}
}

// BSS is one basic service set: an AP and its associated stations on a
// fixed channel.
type BSS struct {
	AP      *Node
	Channel int

	// idx is the BSS's position in Network.bss — its index in
	// Result.BssGoodputMbps.
	idx int

	// color is the BSS color carried in every frame header when OBSS-PD
	// spatial reuse is on: (idx mod 63) + 1, modeling the standard's
	// 6-bit color space. Beyond 63 BSSs colors repeat, and a collision
	// makes two BSSs look like one — the conservative direction (they
	// defer to each other as if same-BSS) — matching real deployments
	// where color collisions disable reuse rather than corrupt it.
	color int
}

// Node is a station or AP. All MAC state (per-AC queues, backoff,
// carrier sense, NAV) lives here; medium.go and dcf.go drive it.
type Node struct {
	net  *Network
	id   int
	Name string
	X, Y float64
	ap   bool
	bss  *BSS
	med  *medium

	// gain is the node's row of its gain domain's received-power matrix
	// (gainState): gain[o.gi] is the power, in milliwatts, at node o
	// when this node transmits, for every o in the same domain. gi is
	// the node's index in its domain.
	gain []float64
	gi   int

	// sh is the execution shard that owns this node's MAC state — its
	// engine schedules every event the node fires, its rng.Source draws
	// the node's randomness, and its counters take the node's
	// accounting. Single-engine runs put every node on shard 0.
	sh *shard

	// ord is the node's membership number on its current medium (set by
	// medium.addNode), which lets indexed scans replay the exact
	// brute-force iteration order; gc is the spatial-grid cell it is
	// filed under (nil while filed in no grid), and its key is the one
	// spatialGrid.update compares a moved position's key against.
	ord int
	gc  *gridCell

	// csTracked marks the node as under live carrier-sense bookkeeping:
	// it has queued traffic (or is mid-exchange), so in-flight frames
	// maintain its busyCount. An idle station carries no MAC state that
	// busyCount could influence — every queue is empty and disarmed — so
	// it leaves the tracked set (maybeLeaveCS) and is re-baselined
	// against the live active list when traffic next arrives (joinCS).
	// Invariant: !csTracked implies no queued packets, no contending
	// queue, no armed countdown, and not transmitting.
	csTracked bool

	// vx, vy move the node (metres/second) on each roam scan tick. wp,
	// when set, replaces the straight-line walk with the random-
	// waypoint process (mobility.go) stepped on the same tick.
	vx, vy float64
	wp     *waypointState

	// acq holds one EDCA transmit queue + contention state machine per
	// access category (see dcf.go). Under legacy DCF only AC_BE is ever
	// populated.
	acq [NumACs]acQueue

	// transmitting marks the node mid-TXOP; curPkt is the queued frame
	// the current exchange is carrying (valid only while transmitting a
	// frame of its own — downlink handoff uses it to leave the
	// in-flight frame with the old AP). txop is the transmit
	// opportunity the node currently holds (nil between channel
	// accesses and while answering a peer's RTS with a CTS).
	transmitting bool
	curPkt       *packet
	txop         *Txop
	busyCount    int

	// heldTxop and ex are the node's one Txop and one exchange,
	// overwritten per channel access and per exchange (txop points at
	// heldTxop while it is held). tr is the node's own frame: on the
	// air, or an RTS whose CTS is still due (framepool.go).
	heldTxop Txop
	ex       exchange
	tr       *transmission

	// Event continuations, bound on first use so scheduling them
	// allocates nothing (framepool.go).
	navExpireFn, rtsDoneFn, ctsDueFn, ctsDoneFn func()
	sendDataFn, dataDoneFn, nextExchangeFn      func()

	// NAV (virtual carrier sense): contention defers until navUntilUs
	// even when the medium measures idle — the mechanism that protects
	// an RTS/CTS exchange from stations that cannot hear the data frame.
	navUntilUs float64
	navEvent   sim.EventRef

	// rc holds one rate-adaptation state machine per destination when a
	// rate controller is configured — ARF or Minstrel per
	// Config.RateControl (AP side needs one per station; a station gets
	// a fresh one when it roams to a new AP).
	rc map[int]rateController
}

// packet is one queued MAC frame. ac is the effective access category
// it is queued and judged under (AC_BE when EDCA is off). retries
// counts this packet's failed MPDU attempts under aggregation, where
// retry state is per packet (a Block-ACK retransmits individual MPDUs)
// rather than per queue head as in the single-frame exchange.
type packet struct {
	flow      *Flow
	bytes     int
	arrivalUs float64
	ac        AC
	retries   int
}

// dest resolves the packet's next-hop receiver for its current carrier:
// an AP carries it on the final downlink hop, a station sends it either
// to an explicitly pinned AP or to the AP it is currently associated
// with (which is also the first hop of a STA↔STA relay).
func (p *packet) dest(carrier *Node) *Node {
	f := p.flow
	if carrier.ap {
		return f.To
	}
	if f.To != nil && f.To.ap {
		return f.To
	}
	return carrier.bss.AP
}

// oracles are the brute-force stand-ins the equivalence suites hold the
// production paths against, each bit-identical to production by
// contract. They are test switches, not configuration: only the
// in-package tests set them (withOracles), before the build.
//
//   - disableSpatialIndex: carrier sense and NAV adoption scan every
//     member of the medium instead of the spatial grid's candidates
//     (spatial.go), a superset the exact power predicate re-filters.
//   - eagerCarrierSense: every node is under carrier-sense bookkeeping
//     from Prepare on and never leaves it, in place of the lazy
//     join/leave of csTracked.
//   - oneGainDomain: a static build lays its gains out as one domain
//     over every node, the mobile layout (gainState).
//   - fullGainRefresh: a roam tick recomputes every pair with a moved
//     node, readable or not, and a station that changes medium skips
//     its row recompute (gainState.refresh, refreshRow).
//   - poisonSkippedGains: the tick writes NaN into every cell the
//     readable-pair rule skips, so that any read of one shows.
type oracles struct {
	disableSpatialIndex, eagerCarrierSense, oneGainDomain bool
	fullGainRefresh, poisonSkippedGains                   bool
}

// Network is one simulated deployment. Build it with AddAP / AddStation
// / Add(FlowSpec), then call Run exactly once. A Network must be driven
// from a single goroutine; for parallelism build one Network per
// goroutine (see ScenarioRunner).
type Network struct {
	cfg   Config
	src   *rng.Source
	nodes []*Node
	bss   []*BSS
	flows []*Flow

	// media is the union of every shard's media, in creation order —
	// read-only aggregate views (collect) walk it; the MAC hot paths
	// and each shard's sampler go through the owning shard's list.
	media []*medium

	// shards are the per-group execution units build creates
	// (shard.go), in planning order; a single-engine run is the
	// one-shard degenerate case. lanes holds each partition's engines,
	// which Run drives back to back on one goroutine per lane. plan
	// records how the partition was decided. workers caps the
	// goroutines of every pass that fans out: the gain fill, the
	// roam-tick refresh and a multi-shard Run (see SetWorkers).
	shards  []*shard
	lanes   [][]*sim.Engine
	plan    ShardPlan
	workers int

	// edca is the effective per-AC parameter table: Config.Edca when
	// set, otherwise the legacy table (plain DCF in every slot) with
	// every flow coerced into AC_BE.
	edca   EdcaParams
	edcaOn bool

	// gains is the pairwise received-power state (gain.go): the gain
	// domains, their rows, and what a build with mobility keeps to
	// refresh them.
	gains gainState

	// oracle holds the test-only switches (oracles) the equivalence
	// suites run production against; a production Network leaves them
	// all off.
	oracle oracles

	noiseFloorDBm float64
	noiseFloorMw  float64
	built         bool
	prepared      bool
	ran           bool

	// csRangeM / navRangeM are the spatial-index query radii derived
	// from the propagation model at build time (see indexRanges):
	// energy-detect carrier-sense reach and robust-mode decode reach.
	csRangeM  float64
	navRangeM float64

	// robustIdx is the rate-table index with the lowest SNR requirement;
	// RTS/CTS control frames ride it.
	robustIdx int

	// rcKind is Config.RateControl resolved to a dispatch constant at
	// New time; rcRates caches the Mbps ladder Minstrel controllers index.
	rcKind  int
	rcRates []float64

	// bonded marks 40 MHz operation (Config.ChannelWidthMHz == 40);
	// chanRoot then maps each primary 20 MHz slot to the smallest
	// channel of its spectrally connected component — BSS spans
	// {c, c+1} chained while gaps stay under 2 slots — so media form
	// per (shard, component) instead of per (shard, channel) and
	// partially overlapping channels share one event timeline.
	bonded   bool
	chanRoot map[int]int

	// csMw is Config.CSThresholdDBm in milliwatts, and navMw the
	// weakest power at which the most robust mode still decodes (noise
	// floor plus its SNR requirement): the carrier-sense and NAV-decode
	// thresholds the hot path compares the gain rows against.
	csMw  float64
	navMw float64

	// obssOn mirrors Config.ObssPdThresholdDBm != 0. obssPdMw is that
	// threshold in milliwatts, or 0 when OBSS-PD is off, so the
	// carrier-sense predicate (hears) tests the window with one
	// compare. obssScaleMw is the coupled TX-power backoff a reusing
	// transmission pays, CSThresholdDBm − ObssPdThresholdDBm (negative:
	// −20 dB at the classic −82/−62 pairing), as a linear power scale.
	obssOn      bool
	obssPdMw    float64
	obssScaleMw float64

	// The run counters (attempts, delivered, airtime, …) live on each
	// shard — the hot paths increment without synchronization and
	// collect sums them into the Result.

	// probe, when attached via AttachProbe, receives one Event per
	// instrumented point in the MAC/medium hot paths (probe.go); the
	// hot emission sites guard on the owning shard's copy so a
	// probe-less run pays one nil-check, and Run drives the lanes in
	// turn while it is set. probeFactory is the concurrent alternative
	// (AttachShardProbes): one probe per partition, each seeing only the
	// streams of the groups that partition runs.
	probe        Probe
	probeFactory func(shard int) Probe

	// bssBytes is the cumulative per-BSS delivered-byte counter behind
	// Result.BssGoodputMbps (indexed by BSS, so shards write disjoint
	// entries).
	bssBytes []int

	// qoeSources are the per-user QoE reporters registered via AddQoE;
	// collect calls each once after the run and pools them into
	// Result.QoE (qoe.go). Empty on every pre-QoE scenario, so the
	// Result surface the compat goldens fingerprint is untouched.
	qoeSources []func() UserQoE
}

// New returns an empty network. All randomness (shadowing, backoff,
// traffic, PER draws) comes from a single rng.Source seeded here, so a
// fixed seed reproduces the run exactly.
func New(cfg Config, seed int64) *Network {
	if cfg.QueueLimit <= 0 {
		cfg.QueueLimit = 64
	}
	cfg.Validate()
	n := &Network{cfg: cfg, src: rng.New(seed), noiseFloorDBm: cfg.Budget.NoiseFloorDBm()}
	n.noiseFloorMw = mwFromDBm(n.noiseFloorDBm)
	n.gains.n = n
	n.edcaOn = cfg.Edca != nil
	if n.edcaOn {
		n.edca = *cfg.Edca
	} else {
		n.edca = legacyEdca(cfg)
	}
	for i, m := range cfg.Modes {
		if m.SnrReqDB < cfg.Modes[n.robustIdx].SnrReqDB {
			n.robustIdx = i
		}
	}
	switch cfg.RateControl {
	case "minstrel":
		n.rcKind = rcMinstrel
		n.rcRates = make([]float64, len(cfg.Modes))
		for i, m := range cfg.Modes {
			n.rcRates[i] = m.RateMbps
		}
	case "arf":
		n.rcKind = rcArf
	default:
		n.rcKind = rcFixed
	}
	n.bonded = cfg.ChannelWidthMHz == 40
	n.csMw = mwFromDBm(cfg.CSThresholdDBm)
	n.navMw = mwFromDBm(n.noiseFloorDBm + n.robustMode().SnrReqDB)
	if cfg.ObssPdThresholdDBm != 0 {
		n.obssOn = true
		n.obssPdMw = mwFromDBm(cfg.ObssPdThresholdDBm)
		n.obssScaleMw = mwFromDBm(cfg.CSThresholdDBm - cfg.ObssPdThresholdDBm)
	}
	return n
}

// robustMode is the most robust entry in the rate table, used for the
// RTS/CTS control frames (802.11 sends control frames at a basic rate).
func (n *Network) robustMode() linkmodel.Mode { return n.cfg.Modes[n.robustIdx] }

// modeIndex locates m in the configured rate table (ARF controllers
// work in table indices).
func (n *Network) modeIndex(m linkmodel.Mode) int {
	for i, c := range n.cfg.Modes {
		if c.Name == m.Name {
			return i
		}
	}
	return n.robustIdx
}

// Src exposes the network's random source so scenario builders can
// place nodes from the same deterministic stream.
func (n *Network) Src() *rng.Source { return n.src }

// AddAP creates a BSS with its AP at (x, y) on the given channel. With
// Config.Channels set it rejects channels outside the band — including
// the silent failure mode this guards against: a 40 MHz BSS on the top
// channel whose bonded span {ch, ch+1} would reference a secondary slot
// the band does not provide.
func (n *Network) AddAP(name string, x, y float64, ch int) *BSS {
	if n.cfg.Channels > 0 {
		if ch < 1 || ch > n.cfg.Channels {
			panic(fmt.Sprintf("netsim: AddAP %q: channel %d outside the band [1, %d] set by Config.Channels",
				name, ch, n.cfg.Channels))
		}
		if n.cfg.ChannelWidthMHz == 40 && ch+1 > n.cfg.Channels {
			panic(fmt.Sprintf("netsim: AddAP %q: 40 MHz span {%d, %d} exceeds Config.Channels = %d — the bonded secondary slot falls outside the band",
				name, ch, ch+1, n.cfg.Channels))
		}
	}
	ap := n.addNode(name, x, y, true)
	b := &BSS{AP: ap, Channel: ch, idx: len(n.bss)}
	b.color = b.idx%63 + 1
	ap.bss = b
	n.bss = append(n.bss, b)
	return b
}

// AddStation creates a station at (x, y) associated with b.
func (n *Network) AddStation(b *BSS, name string, x, y float64) *Node {
	st := n.addNode(name, x, y, false)
	st.bss = b
	return st
}

func (n *Network) addNode(name string, x, y float64, ap bool) *Node {
	if n.built {
		panic("netsim: cannot add nodes after Run")
	}
	nd := &Node{net: n, id: len(n.nodes), Name: name, X: x, Y: y, ap: ap}
	for ac := range nd.acq {
		nd.acq[ac] = acQueue{node: nd, ac: AC(ac), cw: n.edca[ac].CWMin}
	}
	n.nodes = append(n.nodes, nd)
	return nd
}

// SetVelocity gives the node a constant straight-line velocity in
// metres/second; positions update on each roam scan tick, so
// Config.RoamIntervalUs must be set. Nothing bounds the walk —
// scenarios choose durations that keep mobile nodes in coverage. Call
// before Prepare/Run.
func (n *Network) SetVelocity(nd *Node, vxMps, vyMps float64) {
	if n.cfg.RoamIntervalUs <= 0 {
		panic("netsim: SetVelocity needs Config.RoamIntervalUs > 0 (mobility advances on roam-scan ticks)")
	}
	if n.prepared {
		panic("netsim: SetVelocity must be called before Prepare")
	}
	nd.vx, nd.vy = vxMps, vyMps
}

// FlowSpec describes one traffic stream for Network.Add.
//
//   - From is the injection node (required).
//   - To is the destination. nil means "the AP the sender is currently
//     associated with", which keeps uplink flows pointed at the right
//     AP across roams. A station To with a station From is relayed
//     through the AP (two MAC hops). An AP From with a station To is a
//     downlink flow: it must start at the destination's AP, and its
//     queued packets are handed off between APs when the destination
//     roams.
//   - AC is the 802.11e access category the flow's frames contend
//     under. The zero value is AC_BK; pass an explicit category. With
//     Config.Edca nil (legacy DCF) every flow is coerced into AC_BE.
//   - Gen produces arrivals. Generators with internal state (OnOff)
//     must not be shared between flows.
type FlowSpec struct {
	From *Node
	To   *Node
	AC   AC
	Gen  TrafficGen
}

// Add attaches the traffic stream described by spec and returns its
// Flow. It panics on specs the simulator cannot route (no From/Gen, an
// out-of-range AC, AP→AP, downlink from an AP the destination is not
// associated with).
func (n *Network) Add(spec FlowSpec) *Flow {
	if n.built {
		panic("netsim: cannot add flows after Run")
	}
	if spec.From == nil {
		panic("netsim: FlowSpec.From is nil")
	}
	if spec.Gen == nil {
		panic("netsim: FlowSpec.Gen is nil")
	}
	if spec.AC < 0 || spec.AC >= NumACs {
		panic(fmt.Sprintf("netsim: FlowSpec.AC %d out of range", int(spec.AC)))
	}
	if spec.From.ap {
		if spec.To == nil {
			panic("netsim: downlink FlowSpec needs an explicit To station")
		}
		if spec.To.ap {
			panic("netsim: AP→AP flows are not supported")
		}
		if spec.To.bss == nil || spec.To.bss.AP != spec.From {
			panic(fmt.Sprintf("netsim: downlink flow to %s must start at its AP, not %s",
				spec.To.Name, spec.From.Name))
		}
	} else if spec.To == spec.From {
		panic("netsim: FlowSpec.To equals From")
	}
	f := &Flow{net: n, From: spec.From, To: spec.To, AC: spec.AC, Gen: spec.Gen,
		src: spec.From}
	n.flows = append(n.flows, f)
	return f
}

// dist returns the distance in metres between two nodes.
func dist(a, b *Node) float64 {
	return mathx.Hypot(a.X-b.X, a.Y-b.Y)
}

// build lays out the gain domains and fills their received-power rows,
// plans the shards, groups nodes into per-channel media, and selects
// per-station uplink modes.
func (n *Network) build() {
	if n.bonded {
		n.chanRoot = bondedComponents(n.bss)
	}
	n.gains.build()
	// Index query radii depend on the shadowing draws just baked into
	// the gains: media size their grids from csRangeM, and the shard
	// planner's interaction radius builds on both.
	n.csRangeM, n.navRangeM = n.indexRanges()
	n.planShards()
	// One medium per distinct (shard, channel), in global
	// first-appearance order — APs in BSS order, then stations — so the
	// node lists (and hence all event ordering) are deterministic, and
	// identical to the pre-shard simulator when one shard holds
	// everything.
	for _, b := range n.bss {
		m := b.AP.sh.mediumFor(b.Channel)
		b.AP.med = m
		m.addNode(b.AP)
	}
	for _, nd := range n.nodes {
		if !nd.ap {
			m := nd.sh.mediumFor(nd.bss.Channel)
			nd.med = m
			m.addNode(nd)
		}
	}
	n.bssBytes = make([]int, len(n.bss))
	n.built = true
}

// bondedComponents groups the deployment's primary channels into
// spectrally connected components for 40 MHz operation: a BSS on
// primary c spans slots {c, c+1}, so the spans of primaries a < b
// overlap exactly when b-a <= 1. Walking the distinct primaries in
// ascending order and chaining neighbors while the gap stays under 2
// therefore yields the connected components of the overlap graph; each
// primary maps to the smallest channel of its component, the key its
// media are filed under. Channels two or more slots apart stay in
// separate components — their spans are disjoint, so they never share
// an event timeline (a pair bridged into one component by an
// intermediate channel shares a medium but crosses zero interference;
// the per-transmission overlap fraction handles that).
func bondedComponents(bss []*BSS) map[int]int {
	chans := make([]int, 0, len(bss))
	seen := make(map[int]bool)
	for _, b := range bss {
		if !seen[b.Channel] {
			seen[b.Channel] = true
			chans = append(chans, b.Channel)
		}
	}
	sort.Ints(chans)
	root := make(map[int]int, len(chans))
	for i, c := range chans {
		if i == 0 || c-chans[i-1] > 1 {
			root[c] = c
		} else {
			root[c] = root[chans[i-1]]
		}
	}
	return root
}

// linkSNRdB is the interference-free SNR of the tx→rx link.
func (n *Network) linkSNRdB(tx, rx *Node) float64 {
	return n.rxPowerDBm(tx, rx) - n.noiseFloorDBm
}

// airtimeUs is the medium occupancy of one data+ACK exchange.
func (n *Network) airtimeUs(m linkmodel.Mode, bytes int) float64 {
	d := n.cfg.Dcf
	return d.PlcpUs + float64(8*bytes)/m.RateMbps + d.SIFSUs + d.AckUs
}

// ampduAirUs is the medium occupancy of one A-MPDU exchange: a single
// PLCP preamble over the whole burst, then the Block-ACK a SIFS later.
func (n *Network) ampduAirUs(m linkmodel.Mode, totalBytes int) float64 {
	d := n.cfg.Dcf
	return d.PlcpUs + float64(8*totalBytes)/m.RateMbps + d.SIFSUs + n.cfg.Aggregation.BlockAckUs
}

// rtsAirUs / ctsAirUs are the on-air durations of the control frames.
func (n *Network) rtsAirUs() float64 { return n.cfg.Dcf.PlcpUs + n.cfg.RtsUs }
func (n *Network) ctsAirUs() float64 { return n.cfg.Dcf.PlcpUs + n.cfg.CtsUs }

// Prepare freezes the topology (gain rows, media, spatial index) and
// seeds the traffic processes without advancing virtual time. Run calls
// it implicitly; calling it explicitly lets setup cost be separated
// from event-loop cost — the scale benchmarks time the two phases
// independently, since the O(n²) gain fill dwarfs short runs on
// 1000+ node floors. After Prepare, the only permitted call is Run.
func (n *Network) Prepare() {
	if n.prepared {
		panic("netsim: Prepare called twice (or after Run)")
	}
	if len(n.flows) == 0 {
		panic("netsim: no flows")
	}
	n.prepared = true
	n.build()
	if n.oracle.eagerCarrierSense {
		for _, nd := range n.nodes {
			nd.joinCS()
		}
	}
	for _, f := range n.flows {
		f.start()
	}
	if n.cfg.RoamIntervalUs > 0 {
		// Mobility forces a single shard (planShards), so the scan's
		// global reads and reschedules all live on shard 0's engine.
		n.shards[0].eng.Schedule(n.cfg.RoamIntervalUs, n.roamScan)
	}
	if n.cfg.SampleIntervalUs > 0 {
		for _, sh := range n.shards {
			sh.sampler = newSampler(sh)
			sh.sampler.arm()
		}
	}
}

// Run plays the network for durationUs of virtual time and returns the
// aggregated result. It may be called only once per Network, with at
// most one Prepare before it.
func (n *Network) Run(durationUs float64) Result {
	if n.ran {
		panic("netsim: Run called twice")
	}
	n.ran = true
	if !n.prepared {
		n.Prepare()
	}
	workers := n.workers
	if n.probe != nil {
		// One plain probe sees every lane, so the lanes run in turn and
		// it is never called concurrently.
		workers = 1
	}
	sim.RunAll(n.lanes, durationUs, workers)
	return n.collect(durationUs)
}

// roamScan moves mobile nodes and reassociates stations to the
// strongest AP. It reschedules itself every RoamIntervalUs.
func (n *Network) roamScan() {
	// Before anything moves, record every untracked node's verdict on
	// the frames on the air: a tracked node keeps the verdict it took at
	// a frame's start for the frame's whole airtime, and a node that
	// joins carrier sense mid-frame must take the same one (joinCS).
	for _, m := range n.media {
		for _, a := range m.active {
			if a.shifted {
				continue
			}
			a.shifted = true
			for _, c := range m.entries {
				nd := m.members[c.gi]
				if nd.csTracked || nd == a.tx {
					continue
				}
				if v, _ := n.hears(a, nd); v == csBusy {
					a.latent = append(a.latent, nd)
				}
			}
		}
	}
	// Move every node, then refresh the gains of those that moved.
	dtS := n.cfg.RoamIntervalUs / 1e6
	for _, nd := range n.nodes {
		moved := false
		if nd.wp != nil {
			moved = nd.wp.step(nd, dtS)
		} else if nd.vx != 0 || nd.vy != 0 {
			nd.X += nd.vx * dtS
			nd.Y += nd.vy * dtS
			moved = true
		}
		if moved {
			n.gains.moved(nd)
			if nd.med.grid != nil {
				nd.med.grid.update(nd)
			}
		}
	}
	n.gains.refreshMoved()
	for _, nd := range n.nodes {
		if nd.ap || nd.transmitting {
			// Never tear down an in-flight exchange; the station will
			// reconsider on the next scan.
			continue
		}
		// Pick the strongest AP, but only leave the current one when the
		// winner clears it by the hysteresis margin.
		best := nd.bss
		curP := n.rxPowerDBm(best.AP, nd)
		bestP := curP
		for _, b := range n.bss {
			if p := n.rxPowerDBm(b.AP, nd); p > curP+n.cfg.RoamHysteresisDB && p > bestP {
				best, bestP = b, p
			}
		}
		if best != nd.bss {
			nd.reassociate(best)
			n.shards[0].roams++
		}
	}
	n.shards[0].eng.Schedule(n.cfg.RoamIntervalUs, n.roamScan)
}

// joinCS puts the node under live carrier-sense bookkeeping, deriving
// its busyCount from the frames on its medium's air by the same
// predicate as medium.start's scan (hears), and filing it in each
// deferring frame's release list at its membership position. A node
// that starts tracking mid-frame thus ends up exactly as if it had been
// tracked all along: the same busyCount and the same finish-time resume
// order — and with it the same event stream. The eager-tracking oracle
// in equiv_test.go pins this.
func (nd *Node) joinCS() {
	if nd.csTracked {
		return
	}
	nd.csTracked = true
	if nd.med.grid != nil {
		nd.med.grid.setTracked(nd, true)
	}
	for _, a := range nd.med.active {
		if a.tx == nd {
			continue
		}
		// A frame that was on the air while nodes moved holds the verdict
		// from before the move; any other is judged at the gains it
		// started at.
		var defers bool
		if a.shifted {
			defers = dropNode(&a.latent, nd)
		} else {
			v, _ := nd.net.hears(a, nd)
			defers = v == csBusy
		}
		if defers {
			a.insertSensed(nd)
			nd.busyCount++
		}
	}
}

// maybeLeaveCS retires the node from carrier-sense bookkeeping once it
// has nothing in flight and nothing queued: it drops out of the release
// lists of frames still on the air and zeroes busyCount, which joinCS
// will recompute on the next arrival. A frame that was on the air while
// nodes moved keeps the node's verdict in its latent list.
func (nd *Node) maybeLeaveCS() {
	if !nd.csTracked || nd.transmitting || nd.net.oracle.eagerCarrierSense {
		return
	}
	for ac := range nd.acq {
		q := &nd.acq[ac]
		if len(q.queue) > 0 || q.contending {
			return
		}
	}
	nd.csTracked = false
	if nd.med.grid != nil {
		nd.med.grid.setTracked(nd, false)
	}
	for _, a := range nd.med.active {
		if dropNode(&a.sensed, nd) && a.shifted {
			a.latent = append(a.latent, nd)
		}
	}
	nd.busyCount = 0
}

// reassociate moves the station to the new BSS, switching media when
// the channel differs, recomputing its carrier-sense state, and handing
// queued downlink packets from the old AP to the new one.
func (nd *Node) reassociate(b *BSS) {
	oldAp := nd.bss.AP
	nd.freezeBackoff()
	old := nd.med
	next := nd.sh.mediumFor(b.Channel)
	nd.bss = b
	// Drop out of the release lists of in-flight frames on the old
	// medium, then re-baseline against the new medium's frames; each
	// frame's finish decrements exactly the nodes in its sensed list,
	// so the count stays paired even though gains just changed.
	for _, tr := range old.active {
		dropNode(&tr.sensed, nd)
		dropNode(&tr.latent, nd)
	}
	if old != next {
		old.remove(nd)
		next.addNode(nd)
		nd.med = next
		// The tick refreshed only the pairs readable on the old media:
		// bring the row to the new one up to date before it is read.
		nd.net.gains.refreshRow(nd)
	}
	// Judge the new medium's frames at the moved gains. A tracked roamer
	// defers now; an untracked one leaves its verdict in latent for
	// joinCS (roamScan has marked every frame on the air shifted).
	nd.busyCount = 0
	for _, a := range nd.med.active {
		if a.tx == nd {
			continue
		}
		if v, _ := nd.net.hears(a, nd); v != csBusy {
			continue
		}
		if nd.csTracked {
			a.insertSensed(nd)
			nd.busyCount++
		} else {
			a.latent = append(a.latent, nd)
		}
	}
	nd.tryResume()
	nd.sh.emit(Event{Kind: EvRoam, Node: nd.id, Peer: b.AP.id,
		Value: float64(oldAp.id)})
	nd.net.handoffDownlink(nd, oldAp, b.AP)
}

// handoffDownlink moves every packet addressed to the roamed station st
// that is still queued at its old AP — downlink flows and the AP leg of
// STA↔STA relays — into the new AP's queues, and repoints downlink
// flows so future arrivals enqueue at the station's current AP. The one
// frame the old AP may have on the air right now is left to finish its
// exchange from there; everything else leaves, so no packet strands in
// a queue the station no longer listens to.
func (n *Network) handoffDownlink(st, oldAp, newAp *Node) {
	if oldAp == newAp {
		return
	}
	for ac := range oldAp.acq {
		q := &oldAp.acq[ac]
		var oldHead *packet
		if len(q.queue) > 0 {
			oldHead = q.queue[0]
		}
		var moved []*packet
		kept := q.queue[:0]
		for i, p := range q.queue {
			inFlight := i == 0 && oldAp.transmitting && p == oldAp.curPkt
			if !inFlight && p.flow.To == st {
				moved = append(moved, p)
			} else {
				kept = append(kept, p)
			}
		}
		q.queue = kept
		if oldHead != nil && (len(q.queue) == 0 || q.queue[0] != oldHead) {
			// The head-of-line frame left with the station: its retry
			// count and doubled window must not be charged to whatever
			// frame is next.
			q.retries = 0
			q.cw = q.params().CWMin
		}
		if q.contending && len(q.queue) == 0 {
			// Nothing left to send: stand down rather than letting the
			// countdown fire on an empty queue.
			q.boEvent.Cancel()
			q.boEvent = sim.EventRef{}
			q.contending = false
		}
		for _, p := range moved {
			newAp.enqueue(p)
		}
	}
	for _, f := range n.flows {
		if f.From.ap && f.To == st {
			f.src = newAp
		}
	}
	// The old AP may just have handed away its whole backlog.
	oldAp.maybeLeaveCS()
}

// ACStats is one access category's slice of a Result: MAC-level frame
// accounting for frames queued under the category, plus the end-to-end
// delay distribution pooled over the category's flows.
type ACStats struct {
	Flows       int
	Attempts    int // exchange attempts started (RTS or data)
	Delivered   int // MPDUs that passed the SINR draw (per MAC hop)
	Collisions  int // losses with interference present
	NoiseLosses int // losses on a clean channel
	RetryDrops  int // frames abandoned past the retry limit
	QueueDrops  int // arrivals lost to full queues
	MeanDelayUs float64
	P95DelayUs  float64

	// TxopAirtimeFrac is the summed span of the category's exchanges
	// (RTS/CTS/data/ACK including their SIFS gaps; contention time
	// excluded) divided by the run duration. Overlapping exchanges —
	// collisions on one channel, parallel channels in a reuse layout —
	// each count in full, so the figure can exceed 1; it compares
	// airtime appetite ACROSS categories rather than measuring union
	// medium occupancy (Result.AirtimeFrac does that).
	TxopAirtimeFrac float64
}

// Result is the outcome of one Network.Run.
type Result struct {
	DurationUs float64
	Flows      []FlowStats

	Attempts    int // exchange attempts started (RTS or data)
	Delivered   int // frames that passed the SINR draw
	Collisions  int // failures with interference present
	NoiseLosses int // failures on a clean channel
	RetryDrops  int // frames abandoned past the retry limit
	QueueDrops  int // arrivals lost to full queues
	RtsAttempts int // exchanges opened with an RTS
	RtsFailures int // RTSs that drew no CTS (collision or noise)
	// VirtualCollisions counts internal EDCA arbitrations lost: a
	// node's lower category expiring in the same slot as a higher one.
	VirtualCollisions int
	Roams             int

	// PerAC breaks the MAC counters and the end-to-end delay
	// distribution down by access category. Under legacy DCF every flow
	// lands in AC_BE.
	PerAC [NumACs]ACStats

	// ModeAttempts counts data-frame attempts per rate-table mode name
	// — the per-mode histogram that shows ARF walking the staircase.
	ModeAttempts map[string]int

	// Txops counts transmit opportunities won. With every TxopLimitUs
	// zero each TXOP is one exchange, so Txops tracks Attempts; with
	// limits set, Attempts/Txops is the mean burst length.
	Txops int

	// AmpduHist is the histogram of transmitted A-MPDU sizes (MPDUs per
	// data burst, retransmissions included). Nil when aggregation is
	// off; size 1 counts bursts that found only one eligible packet.
	AmpduHist map[int]int

	// BlockAckRetries counts MPDUs retransmitted because a Block-ACK
	// bitmap reported them missing while acknowledging the rest of the
	// burst — the partial-loss path unique to aggregation.
	BlockAckRetries int

	AggGoodputMbps float64
	// AirtimeFrac is the union busy fraction of the busiest channel.
	AirtimeFrac float64

	// BssGoodputMbps is each BSS's delivered goodput (final-hop bytes
	// carried by the BSS's members), indexed like Network.bss — the
	// per-cell view the spatial-reuse fairness analysis (Jain index in
	// E31) is computed from. Always populated.
	BssGoodputMbps []float64

	// ObssIgnores counts carrier-sense deferrals suppressed by OBSS-PD
	// spatial reuse: a listener heard an inter-BSS (different-color)
	// frame above the legacy CS threshold but below
	// Config.ObssPdThresholdDBm and did not go busy. ObssReuseTx counts
	// transmissions launched while such a frame was on the air — each
	// sent with the coupled TX-power backoff. Both zero when the
	// mechanism is off.
	ObssIgnores int
	ObssReuseTx int

	// Samples is the time-series telemetry recorded when
	// Config.SampleIntervalUs was set; nil otherwise. See SampleSeries.
	Samples *SampleSeries

	// QoE pools the application-level experience of every user
	// registered via AddQoE (qoe.go); nil when the scenario carries no
	// app users.
	QoE *QoEStats

	// EngineStats is the discrete-event engine's introspection snapshot:
	// events scheduled/fired/cancelled, heap high-water mark, and the
	// event-record pool hit rate. For a sharded run it is the
	// sim.MergeStats aggregate: counters summed (so PoolHitRate stays
	// event-weighted), heap high-water the max across engines.
	EngineStats sim.Stats

	// Shards is how many partitions actually ran (1 = single-engine,
	// see Network.Plan for how a larger request was clamped);
	// ShardStats holds each partition's sim.MergeStats over the engines
	// of the groups it ran, indexed by partition. Plan records the full
	// planning outcome, including the fallback reason when a
	// multi-shard request collapsed to one engine.
	Shards     int
	ShardStats []sim.Stats
	Plan       ShardPlan

	// GainBytes is the heap held by the pairwise gain state after
	// build: for each gain domain of k nodes, k² float64 received
	// powers plus k 24-byte row headers (k²·8 + k·24 bytes), plus
	// n²·8 + n·24 for the shadowing matrix when mobility keeps it.
	GainBytes int64

	// GainRefreshPairs counts the node pairs whose received power the
	// run recomputed after moves, summed over the run: each roam tick
	// recomputes once every pair with at least one moved node that the
	// run can read (two nodes on one medium, a pair with an AP, or a
	// receiver that roamed off the medium of a frame still on the air
	// to it, with that medium's nodes), and each station that then
	// changes medium recomputes its row to the new medium's nodes and
	// those receivers off it. Zero without mobility.
	GainRefreshPairs int

	// FrameStarts counts the frames put on the air (data, RTS and CTS
	// alike). Crossings counts, over those starts, the frames already
	// on the same medium's air, each of which the start's crossing loop
	// visits: Crossings/FrameStarts is the mean active-list length a
	// start walks. Both are counted per shard and summed.
	FrameStarts int
	Crossings   int

	// CsCandidates counts, over the frame starts, the carrier-sense
	// candidates the scan walked: the tracked 3x3 hood of the sender's
	// grid cell, or the whole membership on a brute-force medium.
	// CsJudged counts those past the scan's row test (power at or above
	// the carrier-sense threshold in the sender's gain row), tracked and
	// not the sender: the ones whose Node the scan loaded and hears
	// judged. The index only ever adds candidates the row test rejects,
	// so CsJudged is the same with it on or off. Counted per shard and
	// summed.
	CsCandidates int
	CsJudged     int

	// FramePools holds each partition's frame-record pool counters,
	// summed over its groups and indexed by partition (framepool.go):
	// transmission and packet records recycled vs newly allocated. The
	// misses are the per-frame objects the run allocated; they stop
	// growing once the pools reach the live set.
	FramePools []FramePoolStats
}

func (n *Network) collect(durationUs float64) Result {
	res := Result{DurationUs: durationUs, Shards: len(n.lanes),
		ModeAttempts: n.shards[0].modeAttempts, GainBytes: n.gains.bytes(),
		GainRefreshPairs: n.gains.refreshPairs}
	if n.cfg.Aggregation != nil {
		res.AmpduHist = n.shards[0].ampduHist
	}
	// The histograms are shard 0's maps, with every other shard's
	// merged in: Run collects once, so nothing reads shard 0's own
	// counts after this.
	for _, sh := range n.shards[1:] {
		for k, v := range sh.modeAttempts {
			res.ModeAttempts[k] += v
		}
		for k, v := range sh.ampduHist {
			res.AmpduHist[k] += v
		}
	}
	var attempts, delivered, collisions, noiseLoss [NumACs]int
	var retryDrops, queueDrop [NumACs]int
	var acAirtimeUs [NumACs]float64
	for _, sh := range n.shards {
		res.RtsAttempts += sh.rtsSent
		res.RtsFailures += sh.rtsFailed
		res.VirtualCollisions += sh.virtualColl
		res.Roams += sh.roams
		res.Txops += sh.txops
		res.BlockAckRetries += sh.blockAckRetries
		res.ObssIgnores += sh.obssIgnores
		res.ObssReuseTx += sh.obssReuseTx
		res.FrameStarts += sh.frameStarts
		res.Crossings += sh.crossings
		res.CsCandidates += sh.csCandidates
		res.CsJudged += sh.csJudged
		for ac := 0; ac < int(NumACs); ac++ {
			attempts[ac] += sh.attempts[ac]
			delivered[ac] += sh.delivered[ac]
			collisions[ac] += sh.collisions[ac]
			noiseLoss[ac] += sh.noiseLoss[ac]
			retryDrops[ac] += sh.retryDrops[ac]
			queueDrop[ac] += sh.queueDrop[ac]
			acAirtimeUs[ac] += sh.acAirtimeUs[ac]
		}
	}
	for ac := 0; ac < int(NumACs); ac++ {
		res.PerAC[ac] = ACStats{
			Attempts: attempts[ac], Delivered: delivered[ac],
			Collisions: collisions[ac], NoiseLosses: noiseLoss[ac],
			RetryDrops: retryDrops[ac], QueueDrops: queueDrop[ac],
			TxopAirtimeFrac: acAirtimeUs[ac] / durationUs,
		}
		res.Attempts += attempts[ac]
		res.Delivered += delivered[ac]
		res.Collisions += collisions[ac]
		res.NoiseLosses += noiseLoss[ac]
		res.RetryDrops += retryDrops[ac]
		res.QueueDrops += queueDrop[ac]
	}
	// One scratch buffer, sized once for the largest access category's
	// delay samples, serves every flow's P95 selection and then each
	// AC's concatenation in turn; the flows' own delay lists are never
	// reordered.
	var acSamples [NumACs]int
	for _, f := range n.flows {
		acSamples[f.ac] += len(f.delaysUs)
	}
	scratch := make([]float64, 0, slices.Max(acSamples[:]))
	if len(n.flows) > 0 {
		res.Flows = make([]FlowStats, 0, len(n.flows))
	}
	for _, f := range n.flows {
		fs := f.stats(durationUs, &scratch)
		res.Flows = append(res.Flows, fs)
		res.AggGoodputMbps += fs.GoodputMbps
		res.PerAC[f.ac].Flows++
	}
	for ac := range res.PerAC {
		if acSamples[ac] == 0 {
			continue
		}
		d := scratch[:0]
		for _, f := range n.flows {
			if int(f.ac) == ac {
				d = append(d, f.delaysUs...)
			}
		}
		res.PerAC[ac].MeanDelayUs = mathx.Mean(d)
		res.PerAC[ac].P95DelayUs = mathx.PercentileInPlace(d, 95)
	}
	res.BssGoodputMbps = make([]float64, len(n.bss))
	for i, b := range n.bssBytes {
		res.BssGoodputMbps[i] = float64(8*b) / durationUs
	}
	for _, m := range n.media {
		if frac := m.busyUsAt(durationUs) / durationUs; frac > res.AirtimeFrac {
			res.AirtimeFrac = frac
		}
	}
	if n.cfg.SampleIntervalUs > 0 {
		res.Samples = n.samples(durationUs)
	}
	if len(n.qoeSources) > 0 {
		res.QoE = &QoEStats{}
		for _, fn := range n.qoeSources {
			res.QoE.add(fn())
		}
		res.QoE.finalize()
	}
	res.ShardStats = make([]sim.Stats, len(n.lanes))
	res.FramePools = make([]FramePoolStats, len(n.lanes))
	for _, sh := range n.shards {
		l := sh.lane
		res.ShardStats[l] = sim.MergeStats(res.ShardStats[l], sh.eng.Stats())
		res.FramePools[l].add(sh.frames.stats)
	}
	res.EngineStats = sim.MergeStats(res.ShardStats...)
	res.Plan = n.plan
	return res
}

// String gives a one-line summary, handy in logs and the CLI.
func (r Result) String() string {
	return fmt.Sprintf("%.0f us: %d/%d delivered, %d collisions, %.2f Mbps, airtime %.2f",
		r.DurationUs, r.Delivered, r.Attempts, r.Collisions, r.AggGoodputMbps, r.AirtimeFrac)
}

// mwFromDBm converts dBm to milliwatts.
func mwFromDBm(dbm float64) float64 { return mathx.DBToLinear(dbm) }
