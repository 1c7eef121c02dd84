package netsim

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/mac"
)

// edcaConfig is DefaultConfig with the 802.11e default parameter sets
// enabled.
func edcaConfig() Config {
	cfg := DefaultConfig()
	e := DefaultEdca(cfg.Dcf, cfg.QueueLimit)
	cfg.Edca = &e
	return cfg
}

func TestDot11eEdcaTxopDefaults(t *testing.T) {
	// The standard's default TXOP limits: voice and video burst, best
	// effort and background hold one exchange per access; the DSSS/CCK
	// column doubles the OFDM values.
	ag := DefaultEdca(mac.Dot11agDcf(), 64).WithDot11eTxop(mac.Dot11agDcf())
	if ag[AC_VO].TxopLimitUs != 1504 || ag[AC_VI].TxopLimitUs != 3008 {
		t.Errorf("a/g TXOP limits VO %v VI %v, want 1504/3008",
			ag[AC_VO].TxopLimitUs, ag[AC_VI].TxopLimitUs)
	}
	if ag[AC_BE].TxopLimitUs != 0 || ag[AC_BK].TxopLimitUs != 0 {
		t.Errorf("BE/BK TXOP limits %v/%v, want single-exchange 0",
			ag[AC_BE].TxopLimitUs, ag[AC_BK].TxopLimitUs)
	}
	b := DefaultEdca(mac.Dot11bDcf(), 64).WithDot11eTxop(mac.Dot11bDcf())
	if b[AC_VO].TxopLimitUs != 3264 || b[AC_VI].TxopLimitUs != 6016 {
		t.Errorf("11b TXOP limits VO %v VI %v, want 3264/6016",
			b[AC_VO].TxopLimitUs, b[AC_VI].TxopLimitUs)
	}
}

func TestDefaultEdcaOrdering(t *testing.T) {
	e := DefaultEdca(mac.Dot11agDcf(), 64)
	// Priority must be reflected in both the AIFS and the window:
	// AC_VO <= AC_VI < AC_BE < AC_BK in AIFS, strictly shrinking CWmin
	// from best effort down to voice.
	if !(e[AC_VO].AifsUs <= e[AC_VI].AifsUs && e[AC_VI].AifsUs < e[AC_BE].AifsUs && e[AC_BE].AifsUs < e[AC_BK].AifsUs) {
		t.Errorf("AIFS ordering wrong: %+v", e)
	}
	if !(e[AC_VO].CWMin < e[AC_VI].CWMin && e[AC_VI].CWMin < e[AC_BE].CWMin) {
		t.Errorf("CWmin ordering wrong: %+v", e)
	}
	// AC_VO's AIFS equals legacy DIFS (AIFSN 2), so voice is never
	// worse off than plain DCF.
	if d := mac.Dot11agDcf(); e[AC_VO].AifsUs != d.DIFSUs {
		t.Errorf("AC_VO AIFS %v != legacy DIFS %v", e[AC_VO].AifsUs, d.DIFSUs)
	}
}

// With EDCA off, every flow must be coerced into AC_BE regardless of
// its declared category, and the per-AC breakdown must show all
// activity under best effort — that is the legacy single-queue model.
func TestLegacyCoercesEveryFlowToBestEffort(t *testing.T) {
	n := New(DefaultConfig(), 3)
	b := n.AddAP("AP", 0, 0, 1)
	st := n.AddStation(b, "sta", 10, 0)
	n.Add(FlowSpec{From: st, AC: AC_VO, Gen: CBR{PayloadBytes: 400, IntervalUs: 5000}})
	res := n.Run(200000)
	if res.Flows[0].AC != AC_BE {
		t.Errorf("legacy run kept AC %s, want AC_BE", res.Flows[0].AC)
	}
	for _, ac := range []AC{AC_BK, AC_VI, AC_VO} {
		if s := res.PerAC[ac]; s.Attempts != 0 || s.Delivered != 0 {
			t.Errorf("legacy run has activity under %s: %+v", ac, s)
		}
	}
	if s := res.PerAC[AC_BE]; s.Delivered == 0 || s.Delivered != res.Delivered {
		t.Errorf("AC_BE breakdown %+v does not carry the whole run (%d delivered)", s, res.Delivered)
	}
}

// EDCA's reason to exist: voice in AC_VO keeps low delay under a data
// load that saturates the cell, where the legacy single class lets
// contention queueing swallow it.
func TestEdcaProtectsVoiceUnderDataLoad(t *testing.T) {
	const dur = 1e6
	run := func(cfg Config) Result {
		return TrafficMix(cfg, 4, 4, 0, 8)(5).Run(dur)
	}
	voiceP95 := func(r Result) float64 {
		var worst float64
		for _, f := range r.Flows {
			if f.Class == "cbr" && f.P95DelayUs > worst {
				worst = f.P95DelayUs
			}
		}
		return worst
	}
	legacy, edca := run(DefaultConfig()), run(edcaConfig())
	lp, ep := voiceP95(legacy), voiceP95(edca)
	if ep <= 0 || lp <= 0 {
		t.Fatalf("no voice delay samples: legacy %v, edca %v", lp, ep)
	}
	if ep > lp/3 {
		t.Errorf("EDCA voice p95 %.0f us vs legacy %.0f us; want at least 3x protection", ep, lp)
	}
	// The EDCA run must actually be classifying: voice under AC_VO,
	// data under AC_BE, both active.
	if edca.PerAC[AC_VO].Delivered == 0 || edca.PerAC[AC_BE].Delivered == 0 {
		t.Errorf("EDCA per-AC breakdown inactive: %+v", edca.PerAC)
	}
}

// An AP carrying saturated voice and data downlink holds both in its
// own per-AC queues: internal ties must resolve by virtual collision
// with AC_VO winning the lion's share, while AC_BE still trickles.
func TestVirtualCollisionFavorsVoice(t *testing.T) {
	n := New(edcaConfig(), 7)
	b := n.AddAP("AP", 0, 0, 1)
	s1 := n.AddStation(b, "s1", 8, 0)
	s2 := n.AddStation(b, "s2", -8, 0)
	n.Add(FlowSpec{From: b.AP, To: s1, AC: AC_VO, Gen: Saturated{PayloadBytes: 1000}})
	n.Add(FlowSpec{From: b.AP, To: s2, AC: AC_BE, Gen: Saturated{PayloadBytes: 1000}})
	res := n.Run(1e6)
	if res.VirtualCollisions == 0 {
		t.Error("two saturated ACs on one node never collided internally")
	}
	vo, be := res.Flows[0].GoodputMbps, res.Flows[1].GoodputMbps
	if be <= 0 {
		t.Errorf("AC_BE starved completely: vo %.2f be %.2f", vo, be)
	}
	if vo < 2*be {
		t.Errorf("AC_VO %.2f Mbps not clearly ahead of AC_BE %.2f", vo, be)
	}
}

// A downlink flow must mirror its uplink twin on a clean single-station
// link: same offered load, roughly the same delivery and delay.
func TestDownlinkMirrorsUplink(t *testing.T) {
	run := func(downlink bool) FlowStats {
		n := New(DefaultConfig(), 21)
		b := n.AddAP("AP", 0, 0, 1)
		st := n.AddStation(b, "sta", 9, 0)
		gen := Poisson{PayloadBytes: 900, PktPerSec: 400}
		if downlink {
			n.Add(FlowSpec{From: b.AP, To: st, AC: AC_BE, Gen: gen})
		} else {
			n.Add(FlowSpec{From: st, AC: AC_BE, Gen: gen})
		}
		return n.Run(1e6).Flows[0]
	}
	up, down := run(false), run(true)
	if down.Delivered == 0 {
		t.Fatalf("downlink delivered nothing: %+v", down)
	}
	if ratio := down.GoodputMbps / up.GoodputMbps; ratio < 0.85 || ratio > 1.15 {
		t.Errorf("downlink goodput %.3f Mbps vs uplink %.3f (ratio %.2f), want within 15%%",
			down.GoodputMbps, up.GoodputMbps, ratio)
	}
	if ratio := down.MeanDelayUs / up.MeanDelayUs; ratio < 0.7 || ratio > 1.3 {
		t.Errorf("downlink mean delay %.0f us vs uplink %.0f (ratio %.2f), want within 30%%",
			down.MeanDelayUs, up.MeanDelayUs, ratio)
	}
}

// STA↔STA traffic relays through the AP: two MAC hops per packet, so
// the MAC-level delivered count runs at about twice the flow's, and the
// end-to-end delay clearly exceeds the one-hop mirror.
func TestStaToStaRelaysThroughAp(t *testing.T) {
	run := func(viaAp bool) (FlowStats, Result) {
		n := New(DefaultConfig(), 23)
		b := n.AddAP("AP", 0, 0, 1)
		a := n.AddStation(b, "a", 10, 0)
		c := n.AddStation(b, "c", -10, 0)
		to := (*Node)(nil)
		if viaAp {
			to = c
		}
		n.Add(FlowSpec{From: a, To: to, AC: AC_BE, Gen: CBR{PayloadBytes: 600, IntervalUs: 4000}})
		res := n.Run(1e6)
		return res.Flows[0], res
	}
	relay, relayRes := run(true)
	uplink, _ := run(false)
	if relay.Delivered == 0 {
		t.Fatalf("relay flow delivered nothing: %+v", relay)
	}
	if relay.DropRate() > 0.05 {
		t.Errorf("relay drop rate %.3f on a clean link", relay.DropRate())
	}
	hops := float64(relayRes.Delivered) / float64(relay.Delivered)
	if hops < 1.8 || hops > 2.2 {
		t.Errorf("MAC hops per delivered packet %.2f, want ~2", hops)
	}
	if relay.MeanDelayUs <= uplink.MeanDelayUs*1.5 {
		t.Errorf("relay delay %.0f us not clearly above one-hop %.0f us",
			relay.MeanDelayUs, uplink.MeanDelayUs)
	}
}

// A STA↔STA flow whose endpoints sit in different BSSs (different
// channels) must still deliver: the sender's AP hands the packet over
// the distribution system to the destination's CURRENT AP, so the
// downlink leg rides the medium the destination is actually tuned to.
func TestRelayCrossesBssBoundary(t *testing.T) {
	n := New(DefaultConfig(), 31)
	b1 := n.AddAP("AP1", 0, 0, 1)
	b2 := n.AddAP("AP2", 60, 0, 6)
	a := n.AddStation(b1, "a", 5, 0)
	c := n.AddStation(b2, "c", 55, 0)
	n.Add(FlowSpec{From: a, To: c, AC: AC_BE, Gen: CBR{PayloadBytes: 500, IntervalUs: 10000}})
	res := n.Run(1e6)
	fs := res.Flows[0]
	if fs.Delivered == 0 {
		t.Fatalf("cross-BSS relay delivered nothing: %+v", fs)
	}
	if fs.DropRate() > 0.05 {
		t.Errorf("cross-BSS relay drop rate %.3f on clean links", fs.DropRate())
	}
}

// When the destination of a downlink flow roams, queued packets follow
// it to the new AP: nothing may strand in the old AP's queues, and the
// stream keeps delivering.
func TestRoamingHandoffStrandsNoPackets(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RoamIntervalUs = 100000
	n := RoamingWalkDownlink(cfg, 120, 20)(3)
	res := n.Run(5e6)
	if res.Roams == 0 {
		t.Fatal("walker never reassociated")
	}
	fs := res.Flows[0]
	if fs.Delivered == 0 || fs.DropRate() > 0.2 {
		t.Errorf("downlink flow suffered through the roam: %+v", fs)
	}
	// White box: the old AP (every AP the walker is no longer
	// associated with) must hold nothing addressed to it.
	walker := n.nodes[2]
	for _, nd := range n.nodes {
		if !nd.ap || nd == walker.bss.AP {
			continue
		}
		for ac := range nd.acq {
			for _, p := range nd.acq[ac].queue {
				if p.flow.To == walker {
					t.Errorf("packet for %s stranded at %s after reassociation", walker.Name, nd.Name)
				}
			}
		}
	}
	// Conservation: every arrival is delivered, dropped, or still
	// queued at the current AP / in flight at the horizon.
	queued := 0
	for _, nd := range n.nodes {
		for ac := range nd.acq {
			queued += len(nd.acq[ac].queue)
		}
	}
	acct := fs.Delivered + fs.QueueDrops + fs.RetryDrops + queued
	if acct != fs.Arrivals {
		t.Errorf("packet conservation off: %d accounted vs %d arrivals (queued %d)",
			acct, fs.Arrivals, queued)
	}
}

// Downlink handoff and EDCA compose: a voice-class downlink stream
// follows the walker between APs with the same serial-vs-parallel
// reproducibility as everything else.
func TestRoamingDownlinkDeterministic(t *testing.T) {
	cfg := edcaConfig()
	cfg.RoamIntervalUs = 100000
	build := RoamingWalkDownlink(cfg, 120, 20)
	a := build(9).Run(3e6)
	b := build(9).Run(3e6)
	if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
		t.Fatalf("same seed diverged with EDCA downlink roam:\n%+v\n%+v", a, b)
	}
}

func TestScenarioAndConfigGuards(t *testing.T) {
	cases := []struct {
		name string
		want string
		call func()
	}{
		{"dense empty channels", "len(channels)",
			func() { DenseGrid(DefaultConfig(), 3, 4, nil, 25, 1000) }},
		{"dense zero bss", "nBSS",
			func() { DenseGrid(DefaultConfig(), 0, 4, []int{1}, 25, 1000) }},
		{"dense negative stations", "staPerBSS",
			func() { DenseGrid(DefaultConfig(), 1, -2, []int{1}, 25, 1000) }},
		{"mix negative voice", "nVoice",
			func() { TrafficMix(DefaultConfig(), -1, 4, 2, 2) }},
		{"mix no flows at all", "nVoice+nData+nBurst",
			func() { TrafficMix(DefaultConfig(), 0, 0, 0, 2) }},
		{"mix zero data rate", "dataMbpsEach",
			func() { TrafficMix(DefaultConfig(), 2, 2, 0, 0) }},
		{"roam zero distance", "apDistM",
			func() { RoamingWalk(DefaultConfig(), 0, 10) }},
		{"hidden zero separation", "separationM",
			func() { HiddenPair(DefaultConfig(), 0, 1000) }},
		{"config no modes", "Modes",
			func() {
				cfg := DefaultConfig()
				cfg.Modes = nil
				New(cfg, 1)
			}},
		{"config bad edca window", "CW range",
			func() {
				cfg := edcaConfig()
				cfg.Edca[AC_VI].CWMax = cfg.Edca[AC_VI].CWMin - 1
				New(cfg, 1)
			}},
		{"config roam tick below a microsecond", "Config.RoamIntervalUs",
			func() {
				cfg := DefaultConfig()
				cfg.RoamIntervalUs = 1e-300
				New(cfg, 1)
			}},
		{"config sample tick below a microsecond", "Config.SampleIntervalUs",
			func() {
				cfg := DefaultConfig()
				cfg.SampleIntervalUs = 1e-300
				New(cfg, 1)
			}},
		{"config zero edca queue", "QueueLimit",
			func() {
				cfg := edcaConfig()
				cfg.Edca[AC_VO].QueueLimit = 0
				New(cfg, 1)
			}},
		{"flowspec nil from", "From",
			func() {
				n := New(DefaultConfig(), 1)
				n.Add(FlowSpec{Gen: Saturated{PayloadBytes: 100}})
			}},
		{"flowspec ac out of range", "AC",
			func() {
				n := New(DefaultConfig(), 1)
				b := n.AddAP("AP", 0, 0, 1)
				st := n.AddStation(b, "sta", 5, 0)
				n.Add(FlowSpec{From: st, AC: NumACs, Gen: Saturated{PayloadBytes: 100}})
			}},
		{"downlink from foreign ap", "must start at its AP",
			func() {
				n := New(DefaultConfig(), 1)
				b1 := n.AddAP("AP1", 0, 0, 1)
				b2 := n.AddAP("AP2", 50, 0, 1)
				st := n.AddStation(b1, "sta", 5, 0)
				n.Add(FlowSpec{From: b2.AP, To: st, AC: AC_VO, Gen: Saturated{PayloadBytes: 100}})
			}},
		{"ap to ap", "AP→AP",
			func() {
				n := New(DefaultConfig(), 1)
				b1 := n.AddAP("AP1", 0, 0, 1)
				b2 := n.AddAP("AP2", 50, 0, 1)
				n.Add(FlowSpec{From: b1.AP, To: b2.AP, AC: AC_BE, Gen: Saturated{PayloadBytes: 100}})
			}},
		{"velocity without roam tick", "SetVelocity needs Config.RoamIntervalUs",
			func() {
				n := New(DefaultConfig(), 1)
				b := n.AddAP("AP", 0, 0, 1)
				n.SetVelocity(n.AddStation(b, "sta", 5, 0), 10, 0)
			}},
		{"velocity after prepare", "SetVelocity must be called before Prepare",
			func() {
				cfg := DefaultConfig()
				cfg.RoamIntervalUs = 100000
				n := New(cfg, 1)
				b := n.AddAP("AP", 0, 0, 1)
				st := n.AddStation(b, "sta", 5, 0)
				n.Add(FlowSpec{From: st, AC: AC_BE, Gen: Saturated{PayloadBytes: 100}})
				n.Prepare()
				n.SetVelocity(st, 10, 0)
			}},
		{"gain refresh on a static build", "a gain refresh needs Config.RoamIntervalUs",
			func() {
				n := New(DefaultConfig(), 1)
				b := n.AddAP("AP", 0, 0, 1)
				st := n.AddStation(b, "sta", 5, 0)
				n.build()
				n.gains.refresh([]*Node{st})
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("%s did not panic", tc.name)
				}
				if msg := fmt.Sprint(r); !strings.Contains(msg, tc.want) {
					t.Fatalf("panic %q does not name the offender %q", msg, tc.want)
				}
			}()
			tc.call()
		})
	}
}
