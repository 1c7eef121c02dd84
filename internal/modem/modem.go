// Package modem implements the linear modulations used across the 802.11
// family: BPSK, QPSK, 16-QAM and 64-QAM with the standard's Gray mapping
// and power normalization, plus the differential BPSK/QPSK used by the
// original DSSS PHY.
//
// Soft demodulation produces max-log LLRs with the convention that a
// positive LLR favours bit value 0.
package modem

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Scheme identifies a modulation.
type Scheme int

const (
	BPSK Scheme = iota
	QPSK
	QAM16
	QAM64
)

// String names the scheme.
func (s Scheme) String() string {
	switch s {
	case BPSK:
		return "BPSK"
	case QPSK:
		return "QPSK"
	case QAM16:
		return "16-QAM"
	case QAM64:
		return "64-QAM"
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// BitsPerSymbol returns the number of bits carried by one symbol.
func (s Scheme) BitsPerSymbol() int {
	switch s {
	case BPSK:
		return 1
	case QPSK:
		return 2
	case QAM16:
		return 4
	case QAM64:
		return 6
	}
	panic("modem: unknown scheme")
}

// pamLevels returns the Gray-mapped amplitude ladder for one axis: index by
// the bit group value (first bit is LSB of the index) to get the level.
// These are the 802.11a constellation mappings (Std 802.11-2020, Table
// 17-x): for 16-QAM, bits 00->-3, 01->-1, 11->+1, 10->+3.
func pamLevels(bitsPerAxis int) []float64 {
	switch bitsPerAxis {
	case 1:
		return []float64{-1, 1}
	case 2:
		return []float64{-3, -1, 3, 1} // index b0 + 2*b1
	case 3:
		return []float64{-7, -5, -1, -3, 7, 5, 1, 3} // index b0 + 2*b1 + 4*b2
	}
	panic("modem: unsupported PAM size")
}

// norm returns the scaling that makes the average constellation energy 1.
func (s Scheme) norm() float64 {
	switch s {
	case BPSK:
		return 1
	case QPSK:
		return 1 / math.Sqrt2
	case QAM16:
		return 1 / math.Sqrt(10)
	case QAM64:
		return 1 / math.Sqrt(42)
	}
	panic("modem: unknown scheme")
}

// Constellation returns the unit-average-energy constellation points of s,
// indexed by the bit-group value with the first transmitted bit in the
// least-significant position.
func (s Scheme) Constellation() []complex128 {
	bps := s.BitsPerSymbol()
	points := make([]complex128, 1<<uint(bps))
	k := s.norm()
	switch s {
	case BPSK:
		lv := pamLevels(1)
		for i := range points {
			points[i] = complex(lv[i]*k, 0)
		}
	default:
		half := bps / 2
		lv := pamLevels(half)
		mask := (1 << uint(half)) - 1
		for i := range points {
			iBits := i & mask
			qBits := i >> uint(half)
			points[i] = complex(lv[iBits]*k, lv[qBits]*k)
		}
	}
	return points
}

// Modulate maps a bit stream (values 0/1) to symbols. The bit count must
// be a multiple of BitsPerSymbol.
func (s Scheme) Modulate(bits []byte) []complex128 {
	bps := s.BitsPerSymbol()
	if len(bits)%bps != 0 {
		panic(fmt.Sprintf("modem: %d bits not a multiple of %d", len(bits), bps))
	}
	table := s.Constellation()
	out := make([]complex128, len(bits)/bps)
	for i := range out {
		idx := 0
		for b := 0; b < bps; b++ {
			idx |= int(bits[i*bps+b]&1) << uint(b)
		}
		out[i] = table[idx]
	}
	return out
}

// DemodulateHard maps received symbols to the nearest constellation point
// and returns the corresponding bits.
func (s Scheme) DemodulateHard(symbols []complex128) []byte {
	table := s.Constellation()
	bps := s.BitsPerSymbol()
	bits := make([]byte, 0, len(symbols)*bps)
	for _, y := range symbols {
		bestIdx, best := 0, math.Inf(1)
		for idx, p := range table {
			if d := sqAbs(y - p); d < best {
				best, bestIdx = d, idx
			}
		}
		for b := 0; b < bps; b++ {
			bits = append(bits, byte(bestIdx>>uint(b))&1)
		}
	}
	return bits
}

// DemodulateSoft computes max-log LLRs for each bit of each symbol given
// the complex noise variance noiseVar (total, both dimensions). Positive
// LLR means bit 0 is more likely. A CSI gain may be folded in by scaling
// symbols to unit channel gain and passing the post-equalization noise
// variance.
func (s Scheme) DemodulateSoft(symbols []complex128, noiseVar float64) []float64 {
	if noiseVar <= 0 {
		noiseVar = 1e-12
	}
	table := s.Constellation()
	bps := s.BitsPerSymbol()
	llrs := make([]float64, 0, len(symbols)*bps)
	for _, y := range symbols {
		for b := 0; b < bps; b++ {
			min0, min1 := math.Inf(1), math.Inf(1)
			for idx, p := range table {
				d := sqAbs(y - p)
				if (idx>>uint(b))&1 == 0 {
					if d < min0 {
						min0 = d
					}
				} else if d < min1 {
					min1 = d
				}
			}
			llrs = append(llrs, (min1-min0)/noiseVar)
		}
	}
	return llrs
}

// HardBitsFromLLRs thresholds LLRs into bits (positive -> 0).
func HardBitsFromLLRs(llrs []float64) []byte {
	bits := make([]byte, len(llrs))
	for i, l := range llrs {
		if l < 0 {
			bits[i] = 1
		}
	}
	return bits
}

func sqAbs(z complex128) float64 {
	return real(z)*real(z) + imag(z)*imag(z)
}

// Differential implements DBPSK and DQPSK as used by the 802.11 DSSS PHY:
// information is carried in the phase change between successive symbols,
// which removes the need for carrier phase recovery.
type Differential struct {
	scheme Scheme // BPSK or QPSK underlying alphabet
	phase  complex128
}

// NewDifferential creates a differential modulator/demodulator over BPSK
// or QPSK phase alphabets. It panics for other schemes.
func NewDifferential(s Scheme) *Differential {
	if s != BPSK && s != QPSK {
		panic("modem: differential modulation requires BPSK or QPSK")
	}
	return &Differential{scheme: s, phase: 1}
}

// dqpskPhases maps dibit index (first bit in the LSB) to Gray-coded phase
// increments, so that adjacent phases differ in exactly one bit as in
// 802.11 Clause 15 DQPSK.
var dqpskPhases = []complex128{
	1,              // index 0: phase 0
	complex(0, 1),  // index 1: pi/2
	complex(0, -1), // index 2: 3*pi/2
	-1,             // index 3: pi
}

// Modulate differentially encodes bits into unit-energy symbols, carrying
// state across calls so a preamble and payload can be encoded in pieces.
func (d *Differential) Modulate(bits []byte) []complex128 {
	bps := d.scheme.BitsPerSymbol()
	if len(bits)%bps != 0 {
		panic("modem: differential bit count not a multiple of symbol size")
	}
	out := make([]complex128, len(bits)/bps)
	for i := range out {
		var inc complex128
		if d.scheme == BPSK {
			if bits[i] == 0 {
				inc = 1
			} else {
				inc = -1
			}
		} else {
			idx := int(bits[2*i]&1) | int(bits[2*i+1]&1)<<1
			inc = dqpskPhases[idx]
		}
		d.phase *= inc
		out[i] = d.phase
	}
	return out
}

// Demodulate recovers bits from received symbols by comparing successive
// phases. prev is the last symbol of any previously demodulated block (use
// the reference symbol 1+0i at stream start).
func (d *Differential) Demodulate(symbols []complex128, prev complex128) []byte {
	bps := d.scheme.BitsPerSymbol()
	bits := make([]byte, 0, len(symbols)*bps)
	if prev == 0 {
		prev = 1
	}
	for _, y := range symbols {
		diff := y * cmplx.Conj(prev)
		prev = y
		if d.scheme == BPSK {
			if real(diff) >= 0 {
				bits = append(bits, 0)
			} else {
				bits = append(bits, 1)
			}
			continue
		}
		// Nearest of the four phase increments.
		mag := cmplx.Abs(diff)
		if mag == 0 {
			bits = append(bits, 0, 0)
			continue
		}
		unit := diff / complex(mag, 0)
		bestIdx, best := 0, math.Inf(1)
		for idx, p := range dqpskPhases {
			if dist := sqAbs(unit - p); dist < best {
				best, bestIdx = dist, idx
			}
		}
		bits = append(bits, byte(bestIdx&1), byte(bestIdx>>1)&1)
	}
	return bits
}
