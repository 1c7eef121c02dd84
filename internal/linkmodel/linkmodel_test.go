package linkmodel

import (
	"math"
	"testing"

	"repro/internal/channel"
)

func TestPERAwgnShape(t *testing.T) {
	m := OfdmModes()[0]
	if per := m.PERAwgn(m.SnrReqDB); math.Abs(per-0.1) > 0.01 {
		t.Errorf("PER at threshold = %v, want 0.10", per)
	}
	if per := m.PERAwgn(m.SnrReqDB + 6); per > 1e-4 {
		t.Errorf("PER 6 dB above threshold = %v, want ~0", per)
	}
	if per := m.PERAwgn(m.SnrReqDB - 6); per < 0.99 {
		t.Errorf("PER 6 dB below threshold = %v, want ~1", per)
	}
	// Monotone decreasing.
	prev := 1.1
	for snr := -10.0; snr < 40; snr += 0.5 {
		per := m.PERAwgn(snr)
		if per > prev+1e-12 {
			t.Fatalf("PER not monotone at %v dB", snr)
		}
		prev = per
	}
}

func TestThresholdOrdering(t *testing.T) {
	// Within every family, faster modes need more SNR.
	families := [][]Mode{DsssModes(), CckModes(), OfdmModes(),
		HtFamily(HtOptions{Streams: 1, RxChains: 1})}
	for _, modes := range families {
		for i := 1; i < len(modes); i++ {
			if modes[i].SnrReqDB <= modes[i-1].SnrReqDB {
				t.Errorf("%s threshold %.1f not above %s %.1f",
					modes[i].Name, modes[i].SnrReqDB, modes[i-1].Name, modes[i-1].SnrReqDB)
			}
			if modes[i].RateMbps <= modes[i-1].RateMbps {
				t.Errorf("%s rate not above %s", modes[i].Name, modes[i-1].Name)
			}
		}
	}
}

func TestGenerationalEfficiency(t *testing.T) {
	// The paper's fivefold ladder: top-mode spectral efficiency per family.
	dsss := DsssModes()[1]
	cck := CckModes()[1]
	ofdm := OfdmModes()[7]
	ht := HtFamily(HtOptions{Streams: 4, RxChains: 4, Width40: true, ShortGI: true})[7]
	se := func(m Mode) float64 { return m.RateMbps / m.BandwidthMHz }
	if se(dsss) != 0.1 {
		t.Errorf("DSSS efficiency %v", se(dsss))
	}
	if r := se(cck) / se(dsss); r < 4 || r > 7 {
		t.Errorf("CCK/DSSS ratio %v, want ~5", r)
	}
	if r := se(ofdm) / se(cck); r < 4 || r > 6 {
		t.Errorf("OFDM/CCK ratio %v, want ~5", r)
	}
	if r := se(ht) / se(ofdm); r < 4 || r > 7 {
		t.Errorf("HT/OFDM ratio %v, want ~5", r)
	}
	if math.Abs(se(ht)-15) > 0.1 {
		t.Errorf("peak HT efficiency %v, want 15", se(ht))
	}
}

func TestLDPCNeedsLessSNR(t *testing.T) {
	bcc := HtFamily(HtOptions{Streams: 1, RxChains: 1})
	ldpc := HtFamily(HtOptions{Streams: 1, RxChains: 1, LDPC: true})
	for i := range bcc {
		if ldpc[i].SnrReqDB >= bcc[i].SnrReqDB {
			t.Errorf("MCS%d: LDPC threshold %.1f not below BCC %.1f", i, ldpc[i].SnrReqDB, bcc[i].SnrReqDB)
		}
	}
}

func TestFadingDiversity(t *testing.T) {
	// At equal mean SNR above threshold, more diversity means lower PER.
	base := Mode{Name: "x", RateMbps: 10, BandwidthMHz: 20, SnrReqDB: 10, DiversityOrder: 1}
	div2 := base
	div2.DiversityOrder = 2
	div4 := base
	div4.DiversityOrder = 4
	const snr = 20.0
	p1 := base.PERFading(snr)
	p2 := div2.PERFading(snr)
	p4 := div4.PERFading(snr)
	if !(p1 > p2 && p2 > p4) {
		t.Errorf("diversity ordering violated: %v, %v, %v", p1, p2, p4)
	}
	// Diversity slope: per decade of SNR, order-2 should fall ~2x faster
	// (in log terms) than order-1.
	s1 := math.Log10(base.PERFading(15)) - math.Log10(base.PERFading(25))
	s2 := math.Log10(div2.PERFading(15)) - math.Log10(div2.PERFading(25))
	if s2 < 1.5*s1 {
		t.Errorf("order-2 slope %v not ~2x order-1 slope %v", s2, s1)
	}
}

func TestFadingWorseThanAWGN(t *testing.T) {
	m := OfdmModes()[3]
	snr := m.SnrReqDB + 5
	if m.PERFading(snr) <= m.PERAwgn(snr) {
		t.Error("fading PER should exceed AWGN PER above threshold")
	}
}

func TestBestModeAdapts(t *testing.T) {
	modes := OfdmModes()
	low, _ := BestMode(modes, 8, false, 0.1)
	high, _ := BestMode(modes, 30, false, 0.1)
	if low.RateMbps >= high.RateMbps {
		t.Errorf("adaptation chose %v at 8 dB and %v at 30 dB", low.RateMbps, high.RateMbps)
	}
	if high.RateMbps != 54 {
		t.Errorf("at 30 dB expected 54 Mbps, got %v", high.RateMbps)
	}
	// Below all thresholds: returns the most robust mode.
	worst, _ := BestMode(modes, -20, false, 0.1)
	if worst.RateMbps != 6 {
		t.Errorf("fallback mode %v, want 6 Mbps", worst.RateMbps)
	}
}

func TestGoodputPeaksThenFalls(t *testing.T) {
	m := OfdmModes()[7]
	if m.Goodput(m.SnrReqDB+10, false) < m.Goodput(m.SnrReqDB-5, false) {
		t.Error("goodput should grow with SNR")
	}
}

func defaultLink(modes []Mode, fading bool) Link {
	return Link{
		Modes:    modes,
		Budget:   channel.DefaultLinkBudget(20e6),
		PathLoss: channel.Model24GHz(),
		Fading:   fading,
	}
}

func TestLinkGoodputFallsWithDistance(t *testing.T) {
	l := defaultLink(OfdmModes(), false)
	prev := math.Inf(1)
	for _, d := range []float64{2, 5, 10, 20, 40, 80, 160} {
		g := l.GoodputAt(d)
		if g > prev+1e-9 {
			t.Fatalf("goodput grew with distance at %v m", d)
		}
		prev = g
	}
}

func TestRangeForRateInverts(t *testing.T) {
	l := defaultLink(OfdmModes(), false)
	r := l.RangeForRate(20)
	if r <= 0 {
		t.Fatal("range is zero")
	}
	if g := l.GoodputAt(r * 0.95); g < 20 {
		t.Errorf("goodput just inside range = %v, want >= 20", g)
	}
	if g := l.GoodputAt(r * 1.3); g >= 20 {
		t.Errorf("goodput well outside range = %v, want < 20", g)
	}
}

func TestRangeForRateUnreachable(t *testing.T) {
	l := defaultLink(DsssModes(), false)
	if r := l.RangeForRate(100); r != 0 {
		t.Errorf("impossible rate has range %v, want 0", r)
	}
}

func TestMimoRangeExtension(t *testing.T) {
	// The paper's E5 claim in miniature: a 4x4 MIMO link reaches several
	// times farther than SISO at the same minimum rate, in fading.
	siso := defaultLink(HtFamily(HtOptions{Streams: 1, RxChains: 1}), true)
	mimo := defaultLink(HtFamily(HtOptions{Streams: 1, RxChains: 4}), true)
	rSiso := siso.RangeForRate(6)
	rMimo := mimo.RangeForRate(6)
	if ratio := rMimo / rSiso; ratio < 1.5 {
		t.Errorf("4-chain range extension ratio %v, want well above 1", ratio)
	}
}

func TestHtModesValidation(t *testing.T) {
	for _, bad := range []HtOptions{{Streams: 0, RxChains: 1}, {Streams: 5, RxChains: 5}, {Streams: 2, RxChains: 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("HtFamily(%+v) should panic", bad)
				}
			}()
			HtFamily(bad)
		}()
	}
}

func TestHtModesLadder(t *testing.T) {
	cases := []struct {
		nss, width, want int
	}{
		{1, 20, 8}, {2, 20, 16}, {1, 40, 16}, {2, 40, 32}, {4, 40, 64},
	}
	for _, tc := range cases {
		modes := HtModes(tc.nss, tc.width)
		if len(modes) != tc.want {
			t.Fatalf("HtModes(%d, %d) has %d entries, want %d",
				tc.nss, tc.width, len(modes), tc.want)
		}
		for i, m := range modes {
			if m.Streams < 1 || m.Streams > tc.nss {
				t.Errorf("entry %q has %d streams, ladder is %dss", m.Name, m.Streams, tc.nss)
			}
			if tc.width == 20 && m.BandwidthMHz != 20 {
				t.Errorf("entry %q is %v MHz in a 20 MHz ladder", m.Name, m.BandwidthMHz)
			}
			// Direct-mapped chains: no diversity or array-gain margin —
			// SnrReqDB must be the bare calibratable AWGN threshold.
			if m.DiversityOrder != 1 || m.ArrayGainDB != 0 {
				t.Errorf("entry %q carries margin (div %d, gain %v dB)",
					m.Name, m.DiversityOrder, m.ArrayGainDB)
			}
			if i == 0 {
				continue
			}
			prev := modes[i-1]
			if m.RateMbps < prev.RateMbps ||
				(m.RateMbps == prev.RateMbps && m.SnrReqDB < prev.SnrReqDB) {
				t.Errorf("ladder not sorted slowest-first at %d: %q after %q", i, m.Name, prev.Name)
			}
		}
		// Index 0 must be the globally most robust entry.
		for _, m := range modes {
			if m.SnrReqDB < modes[0].SnrReqDB {
				t.Errorf("entry %q is more robust than ladder head %q", m.Name, modes[0].Name)
			}
		}
	}
	if modes := HtModes(2, 40); modes[0].Name != "HT MCS0 1ss BCC 20MHz" {
		t.Errorf("40 MHz ladder head is %q, want the 20 MHz 1ss MCS0 fallback", modes[0].Name)
	}
	for _, bad := range [][2]int{{0, 20}, {5, 20}, {2, 30}, {2, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("HtModes(%d, %d) should panic", bad[0], bad[1])
				}
			}()
			HtModes(bad[0], bad[1])
		}()
	}
}

func TestBeamformGain(t *testing.T) {
	open := HtFamily(HtOptions{Streams: 1, RxChains: 2})
	bf := HtFamily(HtOptions{Streams: 1, RxChains: 2, Beamform: true, TxChains: 2})
	if bf[0].ArrayGainDB <= open[0].ArrayGainDB {
		t.Error("beamforming should add transmit array gain")
	}
	if bf[0].DiversityOrder <= open[0].DiversityOrder {
		t.Error("beamforming should add transmit diversity")
	}
}
