// Package acquire implements packet acquisition for the OFDM PHYs: the
// short-training-field waveform, Schmidl-Cox style autocorrelation
// detection, fine timing by cross-correlation against the long training
// symbol, and carrier-frequency-offset estimation from both training
// fields. The core PHYs assume genie synchronization; this package
// supplies the front-end that removes that assumption (exercised by the
// E16 extension experiment).
package acquire

import (
	"math"
	"math/cmplx"

	"repro/internal/dsp"
	"repro/internal/ofdm"
)

// stfPeriod is the repetition period of the short training symbol in
// samples: only every fourth subcarrier is populated, so the 64-sample
// IFFT output repeats with period 16.
const stfPeriod = 16

// stfRepeats is the number of short-symbol periods transmitted (802.11a
// sends 10 over 8 us).
const stfRepeats = 10

// BuildSTF returns the short training field for the grid: a 64-sample
// symbol with energy on every fourth subcarrier, cycled to stfRepeats
// periods, at unit mean power. The +/-(1+j) sign pattern is fixed and
// representative (detection statistics depend only on the period
// structure, not the published sign sequence).
func BuildSTF(g *ofdm.Grid) []complex128 {
	freq := make([]complex128, g.NFFT)
	amp := complex(1, 1)
	sign := 1.0
	for k := 4; k <= g.NFFT/2-8; k += 4 {
		freq[k] = amp * complex(sign, 0)
		freq[g.NFFT-k] = amp * complex(-sign, 0)
		sign = -sign
	}
	base := dsp.IFFT(freq)
	out := make([]complex128, 0, stfRepeats*stfPeriod)
	for len(out) < stfRepeats*stfPeriod {
		out = append(out, base[:stfPeriod]...)
	}
	return dsp.NormalizePower(out, 1)
}

// STFLen returns the short training field length in samples.
func STFLen() int { return stfRepeats * stfPeriod }

// Detection is the acquisition front-end result.
type Detection struct {
	Found    bool
	Start    int     // sample index where the STF begins
	Metric   float64 // peak autocorrelation metric in [0,1]
	CoarseFo float64 // coarse CFO estimate, cycles per sample
}

// Detect scans the capture with the classic delay-16 autocorrelation:
// M(d) = |P(d)| / R(d) where P sums r[d+m]*conj(r[d+m+16]) over one
// short-symbol span and R is the corresponding energy. The periodic STF
// drives M toward 1; noise keeps it low. threshold is typically 0.6.
func Detect(capture []complex128, threshold float64) Detection {
	window := STFLen() - stfPeriod
	if len(capture) < window+stfPeriod {
		return Detection{}
	}
	best := Detection{}
	var p complex128
	var r float64
	// Initialize the sums for d = 0.
	for m := 0; m < window; m++ {
		p += capture[m] * cmplx.Conj(capture[m+stfPeriod])
		r += sq(capture[m+stfPeriod])
	}
	for d := 0; d+window+stfPeriod <= len(capture); d++ {
		if r > 1e-12 {
			if m := cmplx.Abs(p) / r; m > best.Metric {
				best.Metric = m
				best.Start = d
				best.CoarseFo = -cmplx.Phase(p) / (2 * math.Pi * stfPeriod)
			}
		}
		// Slide the window.
		if d+window+stfPeriod < len(capture) {
			p -= capture[d] * cmplx.Conj(capture[d+stfPeriod])
			p += capture[d+window] * cmplx.Conj(capture[d+window+stfPeriod])
			r -= sq(capture[d+stfPeriod])
			r += sq(capture[d+window+stfPeriod])
		}
	}
	best.Found = best.Metric >= threshold
	return best
}

// FineTiming refines the frame start by cross-correlating the capture
// around coarseStart against the full known long training field (both
// repeated symbols — a single symbol would be ambiguous between the two
// repetitions), returning the sample index where the LTF begins. The
// detection metric's plateau makes coarseStart fuzzy by tens of samples,
// so the search spans a generous window around it.
func FineTiming(capture []complex128, g *ofdm.Grid, coarseStart int) int {
	ref := g.BuildLTF()
	lo := coarseStart - stfPeriod
	hi := coarseStart + 2*STFLen()
	if hi+len(ref) > len(capture) {
		hi = len(capture) - len(ref)
	}
	if lo < 0 {
		lo = 0
	}
	bestIdx, best := lo, -1.0
	for d := lo; d <= hi; d++ {
		var corr complex128
		var energy float64
		for m := 0; m < len(ref); m++ {
			corr += capture[d+m] * cmplx.Conj(ref[m])
			energy += sq(capture[d+m])
		}
		if energy < 1e-12 {
			continue
		}
		if m := cmplx.Abs(corr) / math.Sqrt(energy); m > best {
			best, bestIdx = m, d
		}
	}
	return bestIdx
}

// FineCFO estimates the residual carrier frequency offset (cycles per
// sample) from the two repeated LTF symbols starting at ltfStart.
func FineCFO(capture []complex128, g *ofdm.Grid, ltfStart int) float64 {
	symLen := g.SymbolLen()
	if ltfStart+2*symLen > len(capture) {
		return 0
	}
	var acc complex128
	for m := 0; m < symLen; m++ {
		acc += capture[ltfStart+m] * cmplx.Conj(capture[ltfStart+symLen+m])
	}
	return -cmplx.Phase(acc) / (2 * math.Pi * float64(symLen))
}

// CorrectCFO rotates the capture by -fo cycles per sample, undoing a
// frequency offset, and returns a new slice.
func CorrectCFO(capture []complex128, fo float64) []complex128 {
	out := make([]complex128, len(capture))
	for n := range capture {
		out[n] = capture[n] * cmplx.Exp(complex(0, -2*math.Pi*fo*float64(n)))
	}
	return out
}

// ApplyCFO imposes a carrier frequency offset of fo cycles per sample, a
// transmit/receive oscillator mismatch, returning a new slice.
func ApplyCFO(x []complex128, fo float64) []complex128 {
	out := make([]complex128, len(x))
	for n := range x {
		out[n] = x[n] * cmplx.Exp(complex(0, 2*math.Pi*fo*float64(n)))
	}
	return out
}

func sq(z complex128) float64 { return real(z)*real(z) + imag(z)*imag(z) }
