package phy

import (
	"bytes"
	"testing"

	"repro/internal/channel"
	"repro/internal/dsp"
	"repro/internal/rng"
)

func roundTrip(t *testing.T, p LinkPHY, payloadLen int, noiseVar float64, seed int64) {
	t.Helper()
	src := rng.New(seed)
	payload := src.Bytes(payloadLen)
	tx := p.TxFrame(payload)
	rx := tx
	if noiseVar > 0 {
		rx = channel.AWGN(tx, noiseVar, src)
	}
	got, ok := p.RxFrame(rx, noiseVar)
	if !ok {
		t.Fatalf("%s: frame rejected", p.Name())
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("%s: payload mismatch", p.Name())
	}
}

func TestDsssModes(t *testing.T) {
	for _, rate := range []float64{1, 2} {
		p, err := NewDsss(rate)
		if err != nil {
			t.Fatal(err)
		}
		roundTrip(t, p, 100, 0, 1)
		roundTrip(t, p, 100, 0.05, 2)
		if p.RateMbps() != rate || p.BandwidthMHz() != 20 {
			t.Errorf("rate/bw wrong for %v", p.Name())
		}
	}
	if _, err := NewDsss(3); err == nil {
		t.Error("NewDsss(3) should fail")
	}
}

func TestDsssUnitPower(t *testing.T) {
	p, _ := NewDsss(2)
	src := rng.New(3)
	tx := p.TxFrame(src.Bytes(200))
	if got := dsp.MeanPower(tx); got < 0.9 || got > 1.1 {
		t.Errorf("DSSS waveform power = %v, want ~1", got)
	}
}

func TestFhssModes(t *testing.T) {
	for _, rate := range []float64{1, 2} {
		p, err := NewFhss(rate)
		if err != nil {
			t.Fatal(err)
		}
		roundTrip(t, p, 80, 0, 4)
		if p.BandwidthMHz() != 1 {
			t.Errorf("FHSS bandwidth = %v, want 1 MHz per hop", p.BandwidthMHz())
		}
	}
	if _, err := NewFhss(5); err == nil {
		t.Error("NewFhss(5) should fail")
	}
}

func TestCckModes(t *testing.T) {
	for _, rate := range []float64{5.5, 11} {
		p, err := NewCck(rate)
		if err != nil {
			t.Fatal(err)
		}
		roundTrip(t, p, 120, 0, 5)
		roundTrip(t, p, 120, 0.03, 6)
	}
	if _, err := NewCck(22); err == nil {
		t.Error("NewCck(22) should fail")
	}
}

func TestOfdmAllModesNoiseless(t *testing.T) {
	for _, m := range OfdmModes {
		p, err := NewOfdm(m.Mbps)
		if err != nil {
			t.Fatal(err)
		}
		roundTrip(t, p, 150, 0, 7)
	}
	if _, err := NewOfdm(13); err == nil {
		t.Error("NewOfdm(13) should fail")
	}
}

func TestOfdmThroughMultipath(t *testing.T) {
	src := rng.New(8)
	p, _ := NewOfdm(24)
	payload := src.Bytes(200)
	tdl := channel.NewTDL(8, 0.6, src)
	rx := channel.AWGN(tdl.Apply(p.TxFrame(payload)), 0.001, src)
	got, ok := p.RxFrame(rx, 0.001)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatal("24 Mbps OFDM failed through multipath at high SNR")
	}
}

func TestOfdm54NeedsMoreSNRThan6(t *testing.T) {
	src := rng.New(9)
	p6, _ := NewOfdm(6)
	p54, _ := NewOfdm(54)
	const snr = 8.0 // dB: comfortable for BPSK 1/2, hopeless for 64-QAM 3/4
	per6 := MeasurePER(p6, AWGNChannel, snr, 100, 30, src.Split()).PER()
	per54 := MeasurePER(p54, AWGNChannel, snr, 100, 30, src.Split()).PER()
	if per6 > 0.2 {
		t.Errorf("6 Mbps PER %v at %v dB too high", per6, snr)
	}
	if per54 < 0.8 {
		t.Errorf("54 Mbps PER %v at %v dB suspiciously low", per54, snr)
	}
}

func TestMeasurePERHighSNRClean(t *testing.T) {
	src := rng.New(10)
	p, _ := NewCck(11)
	res := MeasurePER(p, AWGNChannel, 25, 100, 20, src)
	if res.PER() != 0 {
		t.Errorf("PER %v at 25 dB AWGN", res.PER())
	}
	if res.Frames != 20 || res.BitsSent != 20*800 {
		t.Errorf("bookkeeping wrong: %+v", res)
	}
}

func TestMeasurePERRayleighWorseThanAWGN(t *testing.T) {
	src := rng.New(11)
	p, _ := NewOfdm(12)
	const snr = 12.0
	awgn := MeasurePER(p, AWGNChannel, snr, 100, 40, src.Split()).PER()
	fading := MeasurePER(p, RayleighChannel, snr, 100, 40, src.Split()).PER()
	if fading < awgn {
		t.Errorf("Rayleigh PER %v better than AWGN %v", fading, awgn)
	}
	if fading == 0 {
		t.Error("Rayleigh fading should cause outages at moderate SNR")
	}
}

func TestSNRForPERMonotoneInRate(t *testing.T) {
	// Higher rates need higher SNR to hit the same PER: the basis of every
	// rate-vs-range curve.
	src := rng.New(12)
	snr6 := SNRForPER(mustOfdm(t, 6), AWGNChannel, 0.1, 100, 15, src.Split())
	snr54 := SNRForPER(mustOfdm(t, 54), AWGNChannel, 0.1, 100, 15, src.Split())
	if snr54 <= snr6+5 {
		t.Errorf("SNR(54) %v should far exceed SNR(6) %v", snr54, snr6)
	}
}

func mustOfdm(t *testing.T, rate float64) *Ofdm {
	t.Helper()
	p, err := NewOfdm(rate)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSpectralEfficiencyTable(t *testing.T) {
	// The paper's generational narrative in one assertion chain:
	// 0.1 -> 0.55 -> 2.7 bps/Hz for DSSS -> CCK -> OFDM.
	se := func(p LinkPHY) float64 { return p.RateMbps() / p.BandwidthMHz() }
	d, _ := NewDsss(2)
	if got := se(d); got != 0.1 {
		t.Errorf("DSSS efficiency %v, want 0.1", got)
	}
	c, _ := NewCck(11)
	if got := se(c); got != 0.55 {
		t.Errorf("CCK efficiency %v, want 0.55", got)
	}
	o, _ := NewOfdm(54)
	if got := se(o); got != 2.7 {
		t.Errorf("OFDM efficiency %v, want 2.7", got)
	}
}

func TestCckDegradesInMultipath(t *testing.T) {
	// The 802.11b receiver here is a pure correlation bank with no
	// equalizer, so dispersive channels should cost real SNR — the
	// weakness that pushed the industry to OFDM. Verify the degradation
	// exists but short delay spreads remain workable at high SNR.
	src := rng.New(30)
	p, _ := NewCck(11)
	flat := MeasurePER(p, AWGNChannel, 18, 200, 40, src.Split()).PER()
	disp := MeasurePER(p, MultipathChannel(3, 0.4), 18, 200, 40, src.Split()).PER()
	if disp < flat {
		t.Errorf("multipath PER %v below flat %v", disp, flat)
	}
	if flat > 0.1 {
		t.Errorf("flat-channel CCK PER %v at 18 dB too high", flat)
	}
}

func TestOfdmSurvivesWhereCckDrowns(t *testing.T) {
	// Same dispersive channel, comparable rates: OFDM's cyclic prefix and
	// per-carrier equalization shrug off what cripples single-carrier CCK.
	src := rng.New(31)
	cck, _ := NewCck(11)
	ofdm, _ := NewOfdm(12)
	factory := MultipathChannel(8, 0.7)
	const snr = 22.0
	perCck := MeasurePER(cck, factory, snr, 200, 40, src.Split()).PER()
	perOfdm := MeasurePER(ofdm, factory, snr, 200, 40, src.Split()).PER()
	if perOfdm >= perCck {
		t.Errorf("OFDM PER %v not below CCK %v on a dispersive channel", perOfdm, perCck)
	}
}

func TestFrameWrapRejectsCorruption(t *testing.T) {
	f := wrapFrame([]byte{1, 2, 3})
	if _, ok := unwrapFrame(f); !ok {
		t.Fatal("intact frame rejected")
	}
	f[1] ^= 0x10
	if _, ok := unwrapFrame(f); ok {
		t.Fatal("corrupted frame accepted")
	}
}

func TestBitsToFrameBadLengthField(t *testing.T) {
	// A length field pointing past the buffer must be rejected, not panic.
	bits := make([]byte, 64)
	for i := range bits {
		bits[i] = 1
	}
	if _, ok := bitsToFrame(bits); ok {
		t.Error("absurd length field accepted")
	}
	if _, ok := bitsToFrame(bits[:8]); ok {
		t.Error("too-short bit stream accepted")
	}
}
