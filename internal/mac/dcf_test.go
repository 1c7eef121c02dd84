package mac_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/linkmodel"
	"repro/internal/mac"
	"repro/internal/netsim"
)

// These tests hold the DCF parameters in this package to the claims
// the paper's MAC story makes of them. The DCF itself runs packet by
// packet in netsim, which imports mac, so they live in the external
// test package.

// pinnedMode returns the named mode run at rateMbps; a one-entry rate
// table pins every station to it.
func pinnedMode(t *testing.T, modes []linkmodel.Mode, name string, rateMbps float64) linkmodel.Mode {
	t.Helper()
	for _, m := range modes {
		if m.Name == name {
			m.RateMbps = rateMbps
			return m
		}
	}
	t.Fatalf("no mode %q", name)
	return linkmodel.Mode{}
}

// dcfConfig is a netsim configuration running the given DCF era with
// every station pinned to one mode.
func dcfConfig(d mac.DcfConfig, mode linkmodel.Mode) netsim.Config {
	cfg := netsim.DefaultConfig()
	cfg.Dcf = d
	cfg.Modes = []linkmodel.Mode{mode}
	return cfg
}

// ofdm54At is the OFDM 54 Mbps mode run at rateMbps under 802.11a/g
// timing.
func ofdm54At(t *testing.T, rateMbps float64) netsim.Config {
	return dcfConfig(mac.Dot11agDcf(), pinnedMode(t, linkmodel.OfdmModes(), "OFDM 54 Mbps", rateMbps))
}

// saturatedBSS runs n saturated uplink stations on a 5 m ring around
// one AP: equal received power, every station hears every other, no
// noise loss.
func saturatedBSS(cfg netsim.Config, n, payloadBytes int, durUs float64, seed int64) netsim.Result {
	const radiusM = 5
	nw := netsim.New(cfg, seed)
	b := nw.AddAP("AP", 0, 0, 1)
	for s := range n {
		ang := 2 * math.Pi * float64(s) / float64(n)
		st := nw.AddStation(b, fmt.Sprintf("sta%d", s), radiusM*math.Cos(ang), radiusM*math.Sin(ang))
		nw.Add(netsim.FlowSpec{From: st, AC: netsim.AC_BE, Gen: netsim.Saturated{PayloadBytes: payloadBytes}})
	}
	return nw.Run(durUs)
}

func TestDcfSingleStationEfficiency(t *testing.T) {
	// One station, no contention: goodput should approach but not reach
	// the PHY rate because of PLCP/DIFS/SIFS/ACK overhead.
	res := saturatedBSS(ofdm54At(t, 54), 1, 1500, 1e6, 1)
	g := res.AggGoodputMbps
	if g <= 20 || g >= 54 {
		t.Errorf("single-station goodput %v Mbps, want between 20 and 54", g)
	}
	if res.Collisions != 0 {
		t.Errorf("collisions with one station: %d", res.Collisions)
	}
}

func TestDcfOverheadCollapsesAtHighRate(t *testing.T) {
	// The famous MAC-efficiency problem motivating aggregation: at 600
	// Mbps PHY the per-frame overhead dominates and efficiency collapses.
	g54 := saturatedBSS(ofdm54At(t, 54), 1, 1500, 1e6, 2).AggGoodputMbps
	g600 := saturatedBSS(ofdm54At(t, 600), 1, 1500, 1e6, 3).AggGoodputMbps
	eff54 := g54 / 54
	eff600 := g600 / 600
	if eff600 > eff54/2 {
		t.Errorf("MAC efficiency at 600 Mbps (%v) should be far below 54 Mbps (%v)", eff600, eff54)
	}
}

func TestAggregationRestoresEfficiency(t *testing.T) {
	plain := ofdm54At(t, 600)
	agg := netsim.DefaultAggregation()
	if agg.MaxAmpduFrames != 32 {
		t.Fatalf("default aggregation holds %d frames, want 32", agg.MaxAmpduFrames)
	}
	aggregated := plain
	aggregated.Aggregation = &agg
	gPlain := saturatedBSS(plain, 1, 1500, 1e6, 4).AggGoodputMbps
	gAgg := saturatedBSS(aggregated, 1, 1500, 1e6, 5).AggGoodputMbps
	if gAgg < 3*gPlain {
		t.Errorf("32-frame aggregation goodput %v not >> unaggregated %v", gAgg, gPlain)
	}
}

func TestDcfCollisionsGrowWithStations(t *testing.T) {
	cfg := ofdm54At(t, 54)
	r2 := saturatedBSS(cfg, 2, 1500, 1e6, 6)
	r20 := saturatedBSS(cfg, 20, 1500, 1e6, 7)
	c2 := float64(r2.Collisions) / float64(r2.Attempts)
	c20 := float64(r20.Collisions) / float64(r20.Attempts)
	if c20 <= c2 {
		t.Errorf("collision rate with 20 stations (%v) not above 2 stations (%v)", c20, c2)
	}
	if r20.AggGoodputMbps >= r2.AggGoodputMbps {
		t.Errorf("aggregate goodput should degrade with contention: %v vs %v",
			r20.AggGoodputMbps, r2.AggGoodputMbps)
	}
}

func TestDcfFairness(t *testing.T) {
	// Identical stations should share goodput roughly evenly.
	res := saturatedBSS(ofdm54At(t, 54), 5, 1000, 2e6, 8)
	var minG, maxG float64 = math.Inf(1), 0
	for _, f := range res.Flows {
		minG = math.Min(minG, f.GoodputMbps)
		maxG = math.Max(maxG, f.GoodputMbps)
	}
	if maxG > 1.5*minG {
		t.Errorf("unfair shares: min %v, max %v", minG, maxG)
	}
}

func TestDcfFairnessByJain(t *testing.T) {
	res := saturatedBSS(ofdm54At(t, 54), 8, 1000, 3e6, 9)
	var shares []float64
	for _, f := range res.Flows {
		shares = append(shares, f.GoodputMbps)
	}
	if idx := netsim.JainIndex(shares); idx < 0.95 {
		t.Errorf("saturated DCF Jain index %v, want near 1", idx)
	}
}

func TestDcf11bSlowerThan11g(t *testing.T) {
	cfg11b := dcfConfig(mac.Dot11bDcf(), pinnedMode(t, linkmodel.CckModes(), "CCK 11 Mbps", 11))
	b := saturatedBSS(cfg11b, 1, 1500, 1e6, 10).AggGoodputMbps
	g := saturatedBSS(ofdm54At(t, 54), 1, 1500, 1e6, 11).AggGoodputMbps
	if b >= g {
		t.Errorf("11b goodput %v not below 11g %v", b, g)
	}
}
