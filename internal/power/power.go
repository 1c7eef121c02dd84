// Package power models the power consumption of wireless LAN devices at
// the component level, following the paper's low-power discussion: a
// class-AB power amplifier whose efficiency collapses under the back-off
// that high-PAPR waveforms demand, per-RF-chain receive and transmit
// electronics that multiply with MIMO order, baseband processing that
// grows with stream count and decoder choice, and the listen/doze states
// that power-save protocols trade against latency.
//
// Absolute numbers are representative of published 802.11 chipset
// budgets; every experiment built on them reports ratios, which are
// robust to the exact constants.
package power

import "math"

// PAModel is a class-AB power amplifier: peak efficiency at full drive,
// efficiency falling as 10^(-backoff/20) (linear in output amplitude)
// when backed off to preserve linearity.
type PAModel struct {
	PeakEfficiency float64 // drain efficiency at maximum output (~0.4)
	MaxOutputW     float64 // saturated output power
}

// DefaultPA is a typical WLAN front-end: 40% peak efficiency, 24 dBm
// saturated output.
func DefaultPA() PAModel {
	return PAModel{PeakEfficiency: 0.40, MaxOutputW: 0.25}
}

// EfficiencyAt returns the drain efficiency when the PA is backed off by
// the given amount (dB) from saturation.
func (p PAModel) EfficiencyAt(backoffDB float64) float64 {
	if backoffDB < 0 {
		backoffDB = 0
	}
	return p.PeakEfficiency * math.Pow(10, -backoffDB/20)
}

// ConsumptionW returns the DC power drawn to produce outputW average
// output with the required back-off (set by the waveform's PAPR).
func (p PAModel) ConsumptionW(outputW, backoffDB float64) float64 {
	eff := p.EfficiencyAt(backoffDB)
	if eff <= 0 {
		return math.Inf(1)
	}
	return outputW / eff
}

// RequiredBackoffDB maps a waveform PAPR (dB) to PA back-off: the PA must
// leave headroom for the waveform's peaks minus an allowed clipping
// margin (soft clipping of the rarest peaks costs little EVM).
func RequiredBackoffDB(paprDB float64) float64 {
	const clipMarginDB = 2.0
	b := paprDB - clipMarginDB
	if b < 0 {
		return 0
	}
	return b
}

// DeviceProfile aggregates the non-PA electronics of a WLAN device.
type DeviceProfile struct {
	PA              PAModel
	TxChainW        float64 // per-chain transmit electronics excluding PA
	RxChainW        float64 // per-chain LNA/mixer/ADC
	BasebandPerSSW  float64 // per-spatial-stream demod/decode
	BasebandFixedW  float64 // always-on digital
	LdpcExtraW      float64 // added decode power when LDPC is active
	ListenPerChainW float64 // carrier-sense idle, per active chain
	DozeW           float64 // power-save doze
}

// DefaultDevice mirrors a laptop WLAN card power budget.
func DefaultDevice() DeviceProfile {
	return DeviceProfile{
		PA:              DefaultPA(),
		TxChainW:        0.20,
		RxChainW:        0.25,
		BasebandPerSSW:  0.18,
		BasebandFixedW:  0.12,
		LdpcExtraW:      0.08,
		ListenPerChainW: 0.12,
		DozeW:           0.005,
	}
}

// RadioConfig describes the active configuration whose power is wanted.
type RadioConfig struct {
	TxChains int
	RxChains int
	Streams  int
	OutputW  float64 // total average RF output power
	PaprDB   float64 // waveform PAPR driving PA back-off
	LDPC     bool
}

// TxPowerW returns the device power while transmitting.
func (d DeviceProfile) TxPowerW(c RadioConfig) float64 {
	perPA := c.OutputW / float64(max(1, c.TxChains))
	pa := float64(c.TxChains) * d.PA.ConsumptionW(perPA, RequiredBackoffDB(c.PaprDB))
	return pa + float64(c.TxChains)*d.TxChainW + d.basebandW(c)
}

// RxPowerW returns the device power while receiving.
func (d DeviceProfile) RxPowerW(c RadioConfig) float64 {
	return float64(c.RxChains)*d.RxChainW + d.basebandW(c)
}

// ListenPowerW returns the idle carrier-sense power with n chains awake.
func (d DeviceProfile) ListenPowerW(nChains int) float64 {
	return float64(nChains)*d.ListenPerChainW + d.BasebandFixedW
}

// DozePowerW returns the power-save doze power.
func (d DeviceProfile) DozePowerW() float64 { return d.DozeW }

func (d DeviceProfile) basebandW(c RadioConfig) float64 {
	b := d.BasebandFixedW + float64(max(1, c.Streams))*d.BasebandPerSSW
	if c.LDPC {
		b += d.LdpcExtraW
	}
	return b
}

// EnergyPerBit returns joules per delivered bit for a link running at
// rateMbps with the given radio configuration (transmit side).
func (d DeviceProfile) EnergyPerBit(c RadioConfig, rateMbps float64) float64 {
	if rateMbps <= 0 {
		return math.Inf(1)
	}
	return d.TxPowerW(c) / (rateMbps * 1e6)
}
