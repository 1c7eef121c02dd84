package power

import (
	"math"
	"testing"
)

func TestPAEfficiencyFallsWithBackoff(t *testing.T) {
	pa := DefaultPA()
	if got := pa.EfficiencyAt(0); got != pa.PeakEfficiency {
		t.Errorf("efficiency at 0 dB = %v", got)
	}
	// 6 dB back-off halves the amplitude ratio: efficiency halves.
	if got := pa.EfficiencyAt(6.02); math.Abs(got-pa.PeakEfficiency/2) > 0.002 {
		t.Errorf("efficiency at 6 dB = %v, want %v", got, pa.PeakEfficiency/2)
	}
	if pa.EfficiencyAt(-3) != pa.PeakEfficiency {
		t.Error("negative back-off must clamp")
	}
}

func TestPAConsumptionGrowsWithPAPR(t *testing.T) {
	pa := DefaultPA()
	const out = 0.05
	constant := pa.ConsumptionW(out, RequiredBackoffDB(0)) // constant envelope
	ofdm := pa.ConsumptionW(out, RequiredBackoffDB(10))    // OFDM-like
	if ofdm <= constant {
		t.Errorf("OFDM PA draw %v not above constant-envelope %v", ofdm, constant)
	}
	// 10 dB PAPR - 2 dB clip margin = 8 dB backoff: 10^(8/20) ~ 2.5x.
	if ratio := ofdm / constant; math.Abs(ratio-2.51) > 0.1 {
		t.Errorf("PA draw ratio %v, want ~2.5", ratio)
	}
}

func TestRequiredBackoffClamps(t *testing.T) {
	if RequiredBackoffDB(1) != 0 {
		t.Error("small PAPR should need no back-off")
	}
	if RequiredBackoffDB(10) != 8 {
		t.Errorf("10 dB PAPR -> %v back-off, want 8", RequiredBackoffDB(10))
	}
}

func TestMimoMultipliesPower(t *testing.T) {
	// The paper's C13: multiple chains multiply power draw.
	d := DefaultDevice()
	siso := RadioConfig{TxChains: 1, RxChains: 1, Streams: 1, OutputW: 0.05, PaprDB: 10}
	mimo4 := RadioConfig{TxChains: 4, RxChains: 4, Streams: 4, OutputW: 0.05, PaprDB: 10}
	if r := d.RxPowerW(mimo4) / d.RxPowerW(siso); r < 2 {
		t.Errorf("4x4 rx power only %vx of 1x1", r)
	}
	if r := d.TxPowerW(mimo4) / d.TxPowerW(siso); r < 1.5 {
		t.Errorf("4x4 tx power only %vx of 1x1", r)
	}
}

func TestLdpcCostsDecodePower(t *testing.T) {
	d := DefaultDevice()
	bcc := RadioConfig{TxChains: 1, RxChains: 1, Streams: 1, OutputW: 0.05, PaprDB: 10}
	ldpc := bcc
	ldpc.LDPC = true
	if d.RxPowerW(ldpc) <= d.RxPowerW(bcc) {
		t.Error("LDPC should add baseband power")
	}
}

func TestEnergyPerBitFallsWithRate(t *testing.T) {
	// MIMO's saving grace: 4x the power for 4x+ the rate can still win
	// on energy per bit.
	d := DefaultDevice()
	cfg := RadioConfig{TxChains: 1, RxChains: 1, Streams: 1, OutputW: 0.05, PaprDB: 10}
	slow := d.EnergyPerBit(cfg, 54)
	cfg4 := RadioConfig{TxChains: 4, RxChains: 4, Streams: 4, OutputW: 0.05, PaprDB: 10}
	fast := d.EnergyPerBit(cfg4, 600)
	if fast >= slow {
		t.Errorf("600 Mbps energy/bit %v not below 54 Mbps %v", fast, slow)
	}
	if !math.IsInf(d.EnergyPerBit(cfg, 0), 1) {
		t.Error("zero rate must be infinite energy per bit")
	}
}

func TestListenDozeOrdering(t *testing.T) {
	d := DefaultDevice()
	if !(d.DozePowerW() < d.ListenPowerW(1) && d.ListenPowerW(1) < d.ListenPowerW(4)) {
		t.Error("doze < listen(1) < listen(4) violated")
	}
}

func TestSniffThenWakeSavesAtLowDuty(t *testing.T) {
	// C14: at low traffic duty cycle, sleeping 3 of 4 chains while idle
	// saves most of the listen power.
	d := DefaultDevice()
	cfg := RadioConfig{TxChains: 4, RxChains: 4, Streams: 4, OutputW: 0.05, PaprDB: 10}
	tr := TrafficPattern{DurationS: 10, RxBusyS: 0.1, RxEventsN: 100}
	on := d.RxEnergyJ(cfg, tr, AlwaysOn)
	sniff := d.RxEnergyJ(cfg, tr, SniffThenWake)
	if sniff >= on {
		t.Errorf("sniff-then-wake energy %v not below always-on %v", sniff, on)
	}
	if ratio := on / sniff; ratio < 2 {
		t.Errorf("saving ratio %v, expected >2x at 1%% duty", ratio)
	}
}

func TestSniffThenWakeConvergesAtHighDuty(t *testing.T) {
	// When the radio is busy all the time there is nothing to save.
	d := DefaultDevice()
	cfg := RadioConfig{TxChains: 2, RxChains: 2, Streams: 2, OutputW: 0.05, PaprDB: 10}
	tr := TrafficPattern{DurationS: 10, RxBusyS: 9.9, RxEventsN: 1000}
	on := d.RxEnergyJ(cfg, tr, AlwaysOn)
	sniff := d.RxEnergyJ(cfg, tr, SniffThenWake)
	if math.Abs(on-sniff)/on > 0.1 {
		t.Errorf("policies should converge at saturation: %v vs %v", on, sniff)
	}
}

func TestRxEnergyNegativeIdleClamps(t *testing.T) {
	d := DefaultDevice()
	cfg := RadioConfig{TxChains: 1, RxChains: 1, Streams: 1}
	tr := TrafficPattern{DurationS: 1, RxBusyS: 2, RxEventsN: 1}
	if e := d.RxEnergyJ(cfg, tr, AlwaysOn); math.IsNaN(e) || e < 0 {
		t.Errorf("energy %v", e)
	}
}
