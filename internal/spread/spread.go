// Package spread implements the spread-spectrum PHYs of the first 802.11
// generations: Barker-sequence direct-sequence spreading (1 and 2 Mbps),
// the CCK combined modulation/coding of 802.11b (5.5 and 11 Mbps), and a
// frequency-hopping schedule model for the FHSS option.
package spread

import "math"

// Barker is the length-11 Barker sequence used by the 802.11 DSSS PHY.
// Its off-peak autocorrelation magnitude is at most 1, which is what
// yields the mandated ~10.4 dB processing gain (10*log10(11)).
var Barker = []complex128{1, -1, 1, 1, -1, 1, 1, 1, -1, -1, -1}

// ProcessingGainDB returns the theoretical DSSS processing gain,
// 10*log10(chips per symbol).
func ProcessingGainDB() float64 {
	return 10 * math.Log10(float64(len(Barker)))
}

// Spread expands each unit-energy symbol into 11 chips scaled so the
// per-chip power is 1/11 of the symbol power (energy preserved per
// symbol).
func Spread(symbols []complex128) []complex128 {
	scale := complex(1/math.Sqrt(float64(len(Barker))), 0)
	out := make([]complex128, 0, len(symbols)*len(Barker))
	for _, s := range symbols {
		for _, c := range Barker {
			out = append(out, s*c*scale)
		}
	}
	return out
}

// Despread correlates successive 11-chip blocks against the Barker
// sequence, returning one symbol estimate per block. Incomplete trailing
// blocks are dropped.
func Despread(chips []complex128) []complex128 {
	n := len(chips) / len(Barker)
	scale := complex(1/math.Sqrt(float64(len(Barker))), 0)
	out := make([]complex128, n)
	for i := 0; i < n; i++ {
		var s complex128
		for j, c := range Barker {
			s += chips[i*len(Barker)+j] * c // Barker chips are real ±1
		}
		out[i] = s * scale
	}
	return out
}
