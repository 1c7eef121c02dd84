// Package channel models the propagation environments of the paper's
// story: additive white Gaussian noise, flat Rayleigh block fading,
// exponential-power-delay-profile multipath (the "fading multipath
// environment" in which MIMO extends range), i.i.d. MIMO matrix channels,
// the TGn-style breakpoint path-loss law (median loss, no shadowing),
// and a narrowband jammer for the processing-gain experiment.
package channel

import (
	"math"
	"math/cmplx"

	"repro/internal/matrix"
	"repro/internal/rng"
)

// AWGN adds circularly-symmetric complex Gaussian noise of total variance
// noiseVar to a copy of x and returns it.
func AWGN(x []complex128, noiseVar float64, src *rng.Source) []complex128 {
	out := make([]complex128, len(x))
	for i, v := range x {
		out[i] = v + src.ComplexGaussian(noiseVar)
	}
	return out
}

// NoiseVarFromSNRdB converts an SNR in dB (relative to unit signal power)
// to a complex noise variance.
func NoiseVarFromSNRdB(snrDB float64) float64 {
	return math.Pow(10, -snrDB/10)
}

// RayleighCoeff draws one flat block-fading coefficient h ~ CN(0,1), so
// that |h|^2 is exponential with unit mean.
func RayleighCoeff(src *rng.Source) complex128 {
	return src.ComplexGaussian(1)
}

// TDL is a tapped-delay-line multipath channel with an exponential power
// delay profile, the standard simplification of the TGn cluster models.
type TDL struct {
	Taps []complex128 // complex gains, tap 0 first, unit total average power
}

// NewTDL draws a random TDL realization with nTaps taps whose average
// powers decay with the given ratio per tap (e.g. 0.5 halves each tap) and
// are normalized so the expected total power is 1. nTaps must be >= 1.
func NewTDL(nTaps int, decay float64, src *rng.Source) *TDL {
	if nTaps < 1 {
		panic("channel: TDL needs at least one tap")
	}
	powers := make([]float64, nTaps)
	total := 0.0
	p := 1.0
	for i := range powers {
		powers[i] = p
		total += p
		p *= decay
	}
	taps := make([]complex128, nTaps)
	for i := range taps {
		taps[i] = src.ComplexGaussian(powers[i] / total)
	}
	return &TDL{Taps: taps}
}

// Flat returns a single-tap channel with the given gain.
func Flat(gain complex128) *TDL {
	return &TDL{Taps: []complex128{gain}}
}

// Apply convolves the signal with the channel impulse response. The output
// has the same length as the input (the delay-spread tail is truncated,
// matching a receiver that processes a fixed-length burst).
func (c *TDL) Apply(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	for i := range x {
		var s complex128
		for t, g := range c.Taps {
			if i-t < 0 {
				break
			}
			s += g * x[i-t]
		}
		out[i] = s
	}
	return out
}

// FrequencyResponse evaluates the channel's DFT over nBins bins.
func (c *TDL) FrequencyResponse(nBins int) []complex128 {
	out := make([]complex128, nBins)
	for k := 0; k < nBins; k++ {
		var s complex128
		for t, g := range c.Taps {
			ang := -2 * math.Pi * float64(k) * float64(t) / float64(nBins)
			s += g * cmplx.Exp(complex(0, ang))
		}
		out[k] = s
	}
	return out
}

// MIMOFlat draws an Nr x Nt matrix of i.i.d. CN(0,1) entries: the
// rich-scattering flat MIMO channel of the 802.11n story.
func MIMOFlat(nr, nt int, src *rng.Source) *matrix.Matrix {
	h := matrix.New(nr, nt)
	for i := range h.Data {
		h.Data[i] = src.ComplexGaussian(1)
	}
	return h
}

// CorrelatedMIMOFlat draws a flat MIMO channel with exponential antenna
// correlation rho at both ends via the Kronecker model
// H = Rr^{1/2} G Rt^{1/2}, where G is i.i.d. CN(0,1). rho = 0 recovers
// the rich-scattering channel; rho near 1 collapses the spatial degrees
// of freedom (the regime where MIMO's multiplexing gain evaporates).
func CorrelatedMIMOFlat(nr, nt int, rho float64, src *rng.Source) *matrix.Matrix {
	g := MIMOFlat(nr, nt, src)
	if rho == 0 {
		return g
	}
	rr := sqrtCorrelation(nr, rho)
	rt := sqrtCorrelation(nt, rho)
	return rr.Mul(g).Mul(rt)
}

// sqrtCorrelation returns R^{1/2} for the exponential correlation matrix
// R[i][j] = rho^|i-j| using its SVD (R is Hermitian positive definite).
func sqrtCorrelation(n int, rho float64) *matrix.Matrix {
	r := matrix.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			r.Set(i, j, complex(math.Pow(rho, math.Abs(float64(i-j))), 0))
		}
	}
	svd := r.SVD()
	s := matrix.New(n, n)
	for i := 0; i < n; i++ {
		s.Set(i, i, complex(math.Sqrt(svd.S[i]), 0))
	}
	return svd.U.Mul(s).Mul(svd.U.Hermitian())
}

// MIMOTDL is a MIMO frequency-selective channel: one TDL per (rx, tx)
// antenna pair.
type MIMOTDL struct {
	Nr, Nt int
	Links  [][]*TDL // [rx][tx]
}

// NewMIMOTDL draws independent TDLs for each antenna pair.
func NewMIMOTDL(nr, nt, nTaps int, decay float64, src *rng.Source) *MIMOTDL {
	m := &MIMOTDL{Nr: nr, Nt: nt, Links: make([][]*TDL, nr)}
	for r := 0; r < nr; r++ {
		m.Links[r] = make([]*TDL, nt)
		for t := 0; t < nt; t++ {
			m.Links[r][t] = NewTDL(nTaps, decay, src)
		}
	}
	return m
}

// Apply runs Nt transmit streams through the channel and returns Nr
// received streams (no noise).
func (m *MIMOTDL) Apply(tx [][]complex128) [][]complex128 {
	if len(tx) != m.Nt {
		panic("channel: MIMOTDL.Apply stream count mismatch")
	}
	n := 0
	for _, s := range tx {
		if len(s) > n {
			n = len(s)
		}
	}
	out := make([][]complex128, m.Nr)
	for r := 0; r < m.Nr; r++ {
		acc := make([]complex128, n)
		for t := 0; t < m.Nt; t++ {
			conv := m.Links[r][t].Apply(tx[t])
			for i, v := range conv {
				acc[i] += v
			}
		}
		out[r] = acc
	}
	return out
}

// FrequencyResponse returns per-bin channel matrices H[k] (Nr x Nt).
func (m *MIMOTDL) FrequencyResponse(nBins int) []*matrix.Matrix {
	per := make([][][]complex128, m.Nr)
	for r := 0; r < m.Nr; r++ {
		per[r] = make([][]complex128, m.Nt)
		for t := 0; t < m.Nt; t++ {
			per[r][t] = m.Links[r][t].FrequencyResponse(nBins)
		}
	}
	out := make([]*matrix.Matrix, nBins)
	for k := 0; k < nBins; k++ {
		h := matrix.New(m.Nr, m.Nt)
		for r := 0; r < m.Nr; r++ {
			for t := 0; t < m.Nt; t++ {
				h.Set(r, t, per[r][t][k])
			}
		}
		out[k] = h
	}
	return out
}

// Jammer synthesizes a constant-envelope narrowband interferer: a complex
// tone of the given power at normalized frequency f (cycles per sample).
func Jammer(n int, power, f float64, src *rng.Source) []complex128 {
	amp := math.Sqrt(power)
	phase := 2 * math.Pi * src.Float64()
	out := make([]complex128, n)
	for i := range out {
		ang := 2*math.Pi*f*float64(i) + phase
		out[i] = complex(amp*math.Cos(ang), amp*math.Sin(ang))
	}
	return out
}
