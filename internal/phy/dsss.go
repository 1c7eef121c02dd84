package phy

import (
	"fmt"
	"math"

	"repro/internal/dsp"
	"repro/internal/fec"
	"repro/internal/modem"
	"repro/internal/spread"
)

// Dsss is the original 802.11 direct-sequence PHY: DBPSK at 1 Mbps or
// DQPSK at 2 Mbps, spread by the 11-chip Barker sequence to satisfy the
// FCC's 10 dB processing-gain rule. Samples are at the 11 Mchip/s rate.
type Dsss struct {
	rate float64 // 1 or 2
}

// NewDsss builds the PHY at 1 or 2 Mbps.
func NewDsss(rateMbps float64) (*Dsss, error) {
	if rateMbps != 1 && rateMbps != 2 {
		return nil, &ModeError{PHY: "802.11 DSSS", Want: "1 or 2 Mbps"}
	}
	return &Dsss{rate: rateMbps}, nil
}

// Name implements LinkPHY.
func (d *Dsss) Name() string { return fmt.Sprintf("802.11 DSSS %g Mbps", d.rate) }

// RateMbps implements LinkPHY.
func (d *Dsss) RateMbps() float64 { return d.rate }

// BandwidthMHz implements LinkPHY. The DSSS mask occupies a 20 MHz
// channel allocation (the paper's 0.1 bps/Hz figure is 2 Mbps / 20 MHz).
func (d *Dsss) BandwidthMHz() float64 { return 20 }

func (d *Dsss) scheme() modem.Scheme {
	if d.rate == 1 {
		return modem.BPSK
	}
	return modem.QPSK
}

// TxFrame implements LinkPHY: scramble, differentially modulate, spread.
func (d *Dsss) TxFrame(payload []byte) []complex128 {
	bits := fec.Scramble(frameBits(payload), scramblerSeed)
	mod := modem.NewDifferential(d.scheme())
	// Pad the final symbol for DQPSK.
	if d.scheme() == modem.QPSK && len(bits)%2 != 0 {
		bits = append(bits, 0)
	}
	syms := mod.Modulate(bits)
	chips := spread.Spread(syms)
	// Spread preserves per-symbol energy, leaving chip power 1/11;
	// renormalize so the emitted waveform has unit mean power.
	return dsp.Scale(chips, math.Sqrt(11))
}

// RxFrame implements LinkPHY: despread, differentially demodulate,
// descramble, check FCS.
func (d *Dsss) RxFrame(samples []complex128, _ float64) ([]byte, bool) {
	chips := dsp.Scale(append([]complex128(nil), samples...), 1/math.Sqrt(11))
	syms := spread.Despread(chips)
	dem := modem.NewDifferential(d.scheme())
	bits := dem.Demodulate(syms, 1)
	bits = fec.Descramble(bits, scramblerSeed)
	return bitsToFrame(bits)
}

// Fhss is the 802.11 frequency-hopping PHY. The waveform model is the
// same differential modulation as DSSS but without spreading (each hop is
// a narrowband 1 MHz channel); the hop schedule lives in package spread.
// The paper treats FHSS only as the 1997 alternative to DSSS, so the
// GFSK waveform itself is not reproduced.
type Fhss struct {
	rate float64
}

// NewFhss builds the PHY at 1 or 2 Mbps.
func NewFhss(rateMbps float64) (*Fhss, error) {
	if rateMbps != 1 && rateMbps != 2 {
		return nil, &ModeError{PHY: "802.11 FHSS", Want: "1 or 2 Mbps"}
	}
	return &Fhss{rate: rateMbps}, nil
}

// Name implements LinkPHY.
func (f *Fhss) Name() string { return fmt.Sprintf("802.11 FHSS %g Mbps", f.rate) }

// RateMbps implements LinkPHY.
func (f *Fhss) RateMbps() float64 { return f.rate }

// BandwidthMHz implements LinkPHY: each hop dwells in a 1 MHz channel.
func (f *Fhss) BandwidthMHz() float64 { return 1 }

func (f *Fhss) scheme() modem.Scheme {
	if f.rate == 1 {
		return modem.BPSK
	}
	return modem.QPSK
}

// TxFrame implements LinkPHY.
func (f *Fhss) TxFrame(payload []byte) []complex128 {
	bits := fec.Scramble(frameBits(payload), scramblerSeed)
	if f.scheme() == modem.QPSK && len(bits)%2 != 0 {
		bits = append(bits, 0)
	}
	return modem.NewDifferential(f.scheme()).Modulate(bits)
}

// RxFrame implements LinkPHY.
func (f *Fhss) RxFrame(samples []complex128, _ float64) ([]byte, bool) {
	bits := modem.NewDifferential(f.scheme()).Demodulate(samples, 1)
	bits = fec.Descramble(bits, scramblerSeed)
	return bitsToFrame(bits)
}

// Cck is the 802.11b PHY: complementary code keying at 5.5 or 11 Mbps,
// 11 Mchip/s, keeping a DSSS-like spectral signature while quintupling
// the spectral efficiency of the original standard.
type Cck struct {
	rate float64
	mode spread.CCKMode
}

// NewCck builds the PHY at 5.5 or 11 Mbps.
func NewCck(rateMbps float64) (*Cck, error) {
	switch rateMbps {
	case 5.5:
		return &Cck{rate: 5.5, mode: spread.CCK55}, nil
	case 11:
		return &Cck{rate: 11, mode: spread.CCK11}, nil
	}
	return nil, &ModeError{PHY: "802.11b CCK", Want: "5.5 or 11 Mbps"}
}

// Name implements LinkPHY.
func (c *Cck) Name() string { return fmt.Sprintf("802.11b CCK %g Mbps", c.rate) }

// RateMbps implements LinkPHY.
func (c *Cck) RateMbps() float64 { return c.rate }

// BandwidthMHz implements LinkPHY.
func (c *Cck) BandwidthMHz() float64 { return 20 }

// TxFrame implements LinkPHY.
func (c *Cck) TxFrame(payload []byte) []complex128 {
	bits := fec.Scramble(frameBits(payload), scramblerSeed)
	bpc := int(c.mode)
	for len(bits)%bpc != 0 {
		bits = append(bits, 0)
	}
	return spread.NewCCKModulator(c.mode).Modulate(bits)
}

// RxFrame implements LinkPHY.
func (c *Cck) RxFrame(samples []complex128, _ float64) ([]byte, bool) {
	bits := spread.NewCCKDemodulator(c.mode).Demodulate(samples)
	bits = fec.Descramble(bits, scramblerSeed)
	return bitsToFrame(bits)
}
