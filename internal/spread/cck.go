package spread

import (
	"math"
	"math/cmplx"
)

// CCK (complementary code keying) carries 4 bits (5.5 Mbps) or 8 bits
// (11 Mbps) per 8-chip codeword at the 11 Mchip/s rate of 802.11b. The
// codeword is
//
//	c = (e^{j(p1+p2+p3+p4)}, e^{j(p1+p3+p4)}, e^{j(p1+p2+p4)}, -e^{j(p1+p4)},
//	     e^{j(p1+p2+p3)},    e^{j(p1+p3)},    -e^{j(p1+p2)},   e^{j(p1)})
//
// where p1 carries 2 bits differentially (as in DQPSK) and p2..p4 carry
// the remaining bits. The receiver correlates against all candidate
// codewords, recovering p2..p4 from the best match and p1 from its phase.

// CCKMode selects the number of data bits per codeword.
type CCKMode int

const (
	CCK55 CCKMode = 4 // 5.5 Mbps: 4 bits per codeword
	CCK11 CCKMode = 8 // 11 Mbps: 8 bits per codeword
)

// qpskPhase maps a dibit (d0 + 2*d1) to the 802.11b phase table
// (00 -> 0, 01 -> pi/2, 10 -> pi, 11 -> 3pi/2), with d0 the first bit.
func qpskPhase(d0, d1 byte) float64 {
	switch d0&1 | (d1&1)<<1 {
	case 0:
		return 0
	case 1:
		return math.Pi / 2
	case 2:
		return math.Pi
	default:
		return 3 * math.Pi / 2
	}
}

// cckCodeword builds the 8-chip codeword for phases p1..p4.
func cckCodeword(p1, p2, p3, p4 float64) [8]complex128 {
	e := func(p float64) complex128 { return cmplx.Exp(complex(0, p)) }
	return [8]complex128{
		e(p1 + p2 + p3 + p4),
		e(p1 + p3 + p4),
		e(p1 + p2 + p4),
		-e(p1 + p4),
		e(p1 + p2 + p3),
		e(p1 + p3),
		-e(p1 + p2),
		e(p1),
	}
}

// phases234 decodes the data bits beyond the first dibit into p2..p4.
func phases234(mode CCKMode, bits []byte) (p2, p3, p4 float64) {
	if mode == CCK11 {
		p2 = qpskPhase(bits[2], bits[3])
		p3 = qpskPhase(bits[4], bits[5])
		p4 = qpskPhase(bits[6], bits[7])
		return
	}
	// 5.5 Mbps per 802.11b: p2 = d2*pi + pi/2, p3 = 0, p4 = d3*pi.
	p2 = float64(bits[2])*math.Pi + math.Pi/2
	p3 = 0
	p4 = float64(bits[3]) * math.Pi
	return
}

// CCKModulator encodes bit groups into CCK codewords, tracking the
// differential phase p1 across codewords.
type CCKModulator struct {
	Mode  CCKMode
	phase float64
}

// NewCCKModulator returns a modulator in the reference phase state.
func NewCCKModulator(mode CCKMode) *CCKModulator {
	if mode != CCK55 && mode != CCK11 {
		panic("spread: unsupported CCK mode")
	}
	return &CCKModulator{Mode: mode}
}

// Modulate maps bits (a multiple of the mode's bits-per-codeword) to
// chips with unit average power.
func (m *CCKModulator) Modulate(bits []byte) []complex128 {
	bpc := int(m.Mode)
	if len(bits)%bpc != 0 {
		panic("spread: CCK bit count not a multiple of bits-per-codeword")
	}
	out := make([]complex128, 0, len(bits)/bpc*8)
	for i := 0; i < len(bits); i += bpc {
		grp := bits[i : i+bpc]
		m.phase += qpskPhase(grp[0], grp[1]) // differential first dibit
		p2, p3, p4 := phases234(m.Mode, grp)
		cw := cckCodeword(m.phase, p2, p3, p4)
		out = append(out, cw[:]...)
	}
	return out
}

// CCKDemodulator decodes chips back to bits with a bank-correlation
// receiver.
type CCKDemodulator struct {
	Mode      CCKMode
	prevPhase float64
	bank      [][8]complex128 // codewords with p1 = 0 for each data pattern
	patterns  [][]byte        // bits beyond the first dibit per bank entry
}

// NewCCKDemodulator precomputes the correlation bank (4 entries for 5.5
// Mbps, 64 for 11 Mbps).
func NewCCKDemodulator(mode CCKMode) *CCKDemodulator {
	d := &CCKDemodulator{Mode: mode}
	extra := int(mode) - 2
	n := 1 << uint(extra)
	for v := 0; v < n; v++ {
		bits := make([]byte, int(mode))
		for b := 0; b < extra; b++ {
			bits[2+b] = byte(v>>uint(b)) & 1
		}
		p2, p3, p4 := phases234(mode, bits)
		d.bank = append(d.bank, cckCodeword(0, p2, p3, p4))
		d.patterns = append(d.patterns, bits[2:])
	}
	return d
}

// Demodulate decodes successive 8-chip blocks. It picks the bank codeword
// with the largest correlation magnitude; the correlation's phase,
// compared differentially with the previous codeword's, yields the first
// dibit.
func (d *CCKDemodulator) Demodulate(chips []complex128) []byte {
	nCw := len(chips) / 8
	out := make([]byte, 0, nCw*int(d.Mode))
	for i := 0; i < nCw; i++ {
		block := chips[i*8 : (i+1)*8]
		bestIdx, bestMag := 0, -1.0
		var bestCorr complex128
		for idx, cw := range d.bank {
			var corr complex128
			for j := 0; j < 8; j++ {
				corr += block[j] * cmplx.Conj(cw[j])
			}
			if m := cmplx.Abs(corr); m > bestMag {
				bestMag, bestIdx, bestCorr = m, idx, corr
			}
		}
		// Differential phase of p1.
		phase := cmplx.Phase(bestCorr)
		dPhase := math.Mod(phase-d.prevPhase+4*math.Pi, 2*math.Pi)
		d.prevPhase = phase
		// Quantize to the nearest of 0, pi/2, pi, 3pi/2.
		quadrant := int(math.Round(dPhase/(math.Pi/2))) % 4
		var d0, d1 byte
		switch quadrant {
		case 0:
			d0, d1 = 0, 0
		case 1:
			d0, d1 = 1, 0
		case 2:
			d0, d1 = 0, 1
		default:
			d0, d1 = 1, 1
		}
		out = append(out, d0, d1)
		out = append(out, d.patterns[bestIdx]...)
	}
	return out
}
