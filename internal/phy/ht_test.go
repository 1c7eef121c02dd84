package phy

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/channel"
	"repro/internal/rng"
)

func mustHt(t *testing.T, cfg HtConfig) *Ht {
	t.Helper()
	p, err := NewHt(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func htRoundTrip(t *testing.T, p *Ht, payloadLen int, noiseVar float64, seed int64) {
	t.Helper()
	src := rng.New(seed)
	payload := src.Bytes(payloadLen)
	ch := channel.NewMIMOTDL(p.NumRx(), p.NumTx(), 3, 0.5, src)
	if p.cfg.Beamform {
		p.SetCSI(ch.FrequencyResponse(p.grid.NFFT))
	}
	tx := p.TxFrame(payload)
	rx := ch.Apply(tx)
	if noiseVar > 0 {
		for j := range rx {
			rx[j] = channel.AWGN(rx[j], noiseVar, src)
		}
	}
	got, ok := p.RxFrame(rx, math.Max(noiseVar, 1e-9))
	if !ok {
		t.Fatalf("%s: frame rejected", p.Name())
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("%s: payload mismatch", p.Name())
	}
}

func TestHtRateTable(t *testing.T) {
	cases := []struct {
		cfg  HtConfig
		want float64
	}{
		{HtConfig{MCS: 0}, 6.5},
		{HtConfig{MCS: 7}, 65},
		{HtConfig{MCS: 15, NRx: 2}, 130},
		{HtConfig{MCS: 7, ShortGI: true}, 72.2},
		{HtConfig{MCS: 7, Width40: true}, 135},
		{HtConfig{MCS: 31, Width40: true, ShortGI: true, NRx: 4}, 600},
	}
	for _, c := range cases {
		p := mustHt(t, c.cfg)
		if got := p.RateMbps(); math.Abs(got-c.want) > 0.3 {
			t.Errorf("MCS%d: rate %v, want %v", c.cfg.MCS, got, c.want)
		}
	}
}

func TestHt600MbpsIs15bpsHz(t *testing.T) {
	// The paper: "rates potentially as high as 600 Mbps in a 40 MHz
	// channel" and "efficiencies up to 15 bps/Hz".
	p := mustHt(t, HtConfig{MCS: 31, Width40: true, ShortGI: true, NRx: 4})
	se := p.RateMbps() / p.BandwidthMHz()
	if math.Abs(se-15) > 0.1 {
		t.Errorf("peak HT efficiency %v bps/Hz, want 15", se)
	}
}

func TestHtConfigValidation(t *testing.T) {
	bad := []HtConfig{
		{MCS: -1},
		{MCS: 32},
		{MCS: 8, NRx: 1},             // 2 streams, 1 rx antenna
		{MCS: 8, STBC: true, NRx: 2}, // STBC needs 1 stream
		{MCS: 0, STBC: true, NTx: 3}, // STBC needs 2 TX
		{MCS: 0, STBC: true, Beamform: true, NTx: 2},
		{MCS: 0, NTx: 2}, // direct mapping needs NTx == streams
	}
	for i, cfg := range bad {
		if _, err := NewHt(cfg); err == nil {
			t.Errorf("case %d: config %+v should be rejected", i, cfg)
		}
	}
}

func TestHtSisoNoiseless(t *testing.T) {
	htRoundTrip(t, mustHt(t, HtConfig{MCS: 0}), 100, 0, 1)
	htRoundTrip(t, mustHt(t, HtConfig{MCS: 7}), 100, 0, 2)
}

func TestHtSpatialStreams(t *testing.T) {
	for _, mcs := range []int{8, 15, 16, 24, 31} {
		nss := mcs/8 + 1
		p := mustHt(t, HtConfig{MCS: mcs, NRx: nss})
		htRoundTrip(t, p, 100, 0, int64(mcs))
		if p.nss != nss {
			t.Errorf("MCS%d: streams %d, want %d", mcs, p.nss, nss)
		}
	}
}

func TestHtExtraRxAntennas(t *testing.T) {
	// 2 streams, 4 rx antennas: extra diversity must not break decode.
	htRoundTrip(t, mustHt(t, HtConfig{MCS: 12, NRx: 4}), 100, 0.001, 3)
}

func TestHt40MHz(t *testing.T) {
	htRoundTrip(t, mustHt(t, HtConfig{MCS: 15, Width40: true, NRx: 2}), 200, 0, 4)
}

func TestHtShortGI(t *testing.T) {
	htRoundTrip(t, mustHt(t, HtConfig{MCS: 7, ShortGI: true}), 100, 0, 5)
}

func TestHtLdpc(t *testing.T) {
	for _, mcs := range []int{0, 7, 15} {
		nss := mcs/8 + 1
		p := mustHt(t, HtConfig{MCS: mcs, LDPC: true, NRx: nss})
		htRoundTrip(t, p, 150, 0, int64(100+mcs))
	}
}

func TestHtStbc(t *testing.T) {
	p := mustHt(t, HtConfig{MCS: 2, STBC: true, NRx: 1})
	htRoundTrip(t, p, 100, 0, 6)
	htRoundTrip(t, p, 100, 0.01, 7)
}

func TestHtBeamforming(t *testing.T) {
	p := mustHt(t, HtConfig{MCS: 0, Beamform: true, NTx: 2, NRx: 2})
	htRoundTrip(t, p, 100, 0, 8)
	htRoundTrip(t, p, 100, 0.01, 9)
}

func TestHtBeamformingTwoStreams(t *testing.T) {
	p := mustHt(t, HtConfig{MCS: 9, Beamform: true, NTx: 2, NRx: 2})
	htRoundTrip(t, p, 100, 0, 10)
}

func TestHtBeamformingRequiresCSI(t *testing.T) {
	p := mustHt(t, HtConfig{MCS: 0, Beamform: true, NTx: 2, NRx: 2})
	defer func() {
		if recover() == nil {
			t.Error("TxFrame without CSI should panic")
		}
	}()
	p.TxFrame([]byte{1, 2, 3})
}

func TestHtStbcBeatsSiso(t *testing.T) {
	// Transmit diversity pays off in fading: at equal total power, STBC
	// has fewer frame losses than 1x1 at the same SNR.
	src := rng.New(13)
	const snr = 11.0
	const frames = 60
	siso := mustHt(t, HtConfig{MCS: 2})
	stbc := mustHt(t, HtConfig{MCS: 2, STBC: true, NRx: 1})
	perSiso := MeasurePERMimo(siso, FlatMimoChannel, snr, 80, frames, src.Split()).PER()
	perStbc := MeasurePERMimo(stbc, FlatMimoChannel, snr, 80, frames, src.Split()).PER()
	if perStbc > perSiso {
		t.Errorf("STBC PER %v worse than SISO %v", perStbc, perSiso)
	}
}

func TestHtMimoPERHarness(t *testing.T) {
	src := rng.New(14)
	p := mustHt(t, HtConfig{MCS: 8, NRx: 2})
	res := MeasurePERMimo(p, MultipathMimoChannel(3, 0.5), 30, 80, 15, src)
	if res.PER() > 0.2 {
		t.Errorf("2-stream PER %v at 30 dB", res.PER())
	}
}

func TestHtBeamformingBeatsOpenLoopAtLowSNR(t *testing.T) {
	// The closed-loop gain the paper forecasts: SVD precoding with one
	// stream on 2x2 beats open-loop 1x1 by the array+diversity gain.
	src := rng.New(15)
	const snr = 9.0
	const frames = 50
	open := mustHt(t, HtConfig{MCS: 2})
	bf := mustHt(t, HtConfig{MCS: 2, Beamform: true, NTx: 2, NRx: 2})
	perOpen := MeasurePERMimo(open, FlatMimoChannel, snr, 80, frames, src.Split()).PER()
	perBf := MeasurePERMimo(bf, FlatMimoChannel, snr, 80, frames, src.Split()).PER()
	if perBf > perOpen {
		t.Errorf("beamformed PER %v worse than open-loop SISO %v", perBf, perOpen)
	}
}
