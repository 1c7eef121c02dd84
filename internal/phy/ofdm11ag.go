package phy

import (
	"fmt"

	"repro/internal/fec"
	"repro/internal/modem"
	"repro/internal/ofdm"
)

// OfdmMode describes one 802.11a/g rate.
type OfdmMode struct {
	Mbps   float64
	Scheme modem.Scheme
	Rate   fec.CodeRate
}

// OfdmModes lists the eight 802.11a/g rates in ascending order.
var OfdmModes = []OfdmMode{
	{6, modem.BPSK, fec.Rate1_2},
	{9, modem.BPSK, fec.Rate3_4},
	{12, modem.QPSK, fec.Rate1_2},
	{18, modem.QPSK, fec.Rate3_4},
	{24, modem.QAM16, fec.Rate1_2},
	{36, modem.QAM16, fec.Rate3_4},
	{48, modem.QAM64, fec.Rate2_3},
	{54, modem.QAM64, fec.Rate3_4},
}

// Ofdm is the 802.11a/g PHY: convolutionally coded, interleaved OFDM over
// 48 data carriers in 20 MHz, with LTF-based channel estimation and
// soft-decision Viterbi decoding.
type Ofdm struct {
	mode OfdmMode
	grid *ofdm.Grid
}

// NewOfdm builds the PHY at one of the eight standard rates.
func NewOfdm(rateMbps float64) (*Ofdm, error) {
	for _, m := range OfdmModes {
		if m.Mbps == rateMbps {
			return &Ofdm{mode: m, grid: ofdm.Standard20()}, nil
		}
	}
	return nil, &ModeError{PHY: "802.11a/g OFDM", Want: "6, 9, 12, 18, 24, 36, 48 or 54 Mbps"}
}

// Name implements LinkPHY.
func (o *Ofdm) Name() string { return fmt.Sprintf("802.11a/g OFDM %g Mbps", o.mode.Mbps) }

// RateMbps implements LinkPHY.
func (o *Ofdm) RateMbps() float64 { return o.mode.Mbps }

// BandwidthMHz implements LinkPHY.
func (o *Ofdm) BandwidthMHz() float64 { return 20 }

// ncbps returns the coded bits per OFDM symbol.
func (o *Ofdm) ncbps() int { return o.grid.NumData() * o.mode.Scheme.BitsPerSymbol() }

// padToSymbol finds the pre-coding pad length that makes the punctured
// coded stream fill OFDM symbols exactly, as the standard's PAD field does.
func (o *Ofdm) padToSymbol(nInfo int) int {
	ncbps := o.ncbps()
	for pad := 0; ; pad++ {
		if fec.PuncturedLength(nInfo+pad, o.mode.Rate)%ncbps == 0 {
			return pad
		}
	}
}

// infoBitsFromCoded inverts PuncturedLength by bisection: given a coded
// stream capacity, how many info bits (including pad) were encoded.
func (o *Ofdm) infoBitsFromCoded(coded int) int {
	lo, hi := 0, coded
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if fec.PuncturedLength(mid, o.mode.Rate) <= coded {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// TxFrame implements LinkPHY: scramble, convolutionally encode,
// interleave per symbol, map to the constellation, OFDM-modulate, and
// prepend the long training field.
func (o *Ofdm) TxFrame(payload []byte) []complex128 {
	bits := fec.Scramble(frameBits(payload), scramblerSeed)
	bits = append(bits, make([]byte, o.padToSymbol(len(bits)))...)
	coded := fec.ConvEncode(bits, o.mode.Rate)

	ncbps := o.ncbps()
	interleaved := make([]byte, 0, len(coded))
	for s := 0; s < len(coded)/ncbps; s++ {
		interleaved = append(interleaved, fec.Interleave(coded[s*ncbps:(s+1)*ncbps], ncbps, o.mode.Scheme.BitsPerSymbol())...)
	}
	syms := o.mode.Scheme.Modulate(interleaved)
	return append(o.grid.BuildLTF(), o.grid.Modulate(syms)...)
}

// RxFrame implements LinkPHY: estimate the channel from the LTF, equalize
// each symbol, produce per-carrier-scaled LLRs, deinterleave, Viterbi
// decode, descramble, and verify the FCS.
func (o *Ofdm) RxFrame(samples []complex128, noiseVar float64) ([]byte, bool) {
	ltfLen := o.grid.LTFLen()
	if len(samples) < ltfLen+o.grid.SymbolLen() {
		return nil, false
	}
	h := o.grid.EstimateChannel(samples[:ltfLen])
	eqs := o.grid.Demodulate(samples[ltfLen:], h)

	ncbps := o.ncbps()
	bps := o.mode.Scheme.BitsPerSymbol()
	llrs := make([]float64, 0, len(eqs)*ncbps)
	for _, eq := range eqs {
		symLLRs := make([]float64, 0, ncbps)
		for i, y := range eq.Data {
			gain := eq.ChanGain[i]
			nv := noiseVar
			if gain > 1e-18 {
				nv = noiseVar / gain
			} else {
				nv = 1e9 // erased carrier
			}
			symLLRs = append(symLLRs, o.mode.Scheme.DemodulateSoft([]complex128{y}, nv)...)
		}
		llrs = append(llrs, fec.DeinterleaveLLRs(symLLRs, ncbps, bps)...)
	}

	nInfo := o.infoBitsFromCoded(len(llrs))
	if nInfo <= 0 {
		return nil, false
	}
	bits := fec.ViterbiDecode(llrs, o.mode.Rate, nInfo)
	bits = fec.Descramble(bits, scramblerSeed)
	return bitsToFrame(bits)
}
