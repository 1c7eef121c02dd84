// Package dsp provides the signal-processing primitives the PHY layers are
// built from: radix-2 FFT/IFFT, convolution, and waveform power measures
// including the peak-to-average power ratio that drives the paper's
// power-amplifier efficiency discussion.
package dsp

import (
	"math"
	"math/cmplx"
)

// IsPowerOfTwo reports whether n is a positive power of two.
func IsPowerOfTwo(n int) bool {
	return n > 0 && n&(n-1) == 0
}

// FFT returns the discrete Fourier transform of x. The length of x must be
// a power of two. The input is not modified.
func FFT(x []complex128) []complex128 {
	out := append([]complex128(nil), x...)
	fftInPlace(out, false)
	return out
}

// IFFT returns the inverse DFT of x with 1/N normalization, so that
// IFFT(FFT(x)) == x. The length must be a power of two.
func IFFT(x []complex128) []complex128 {
	out := append([]complex128(nil), x...)
	fftInPlace(out, true)
	n := complex(float64(len(out)), 0)
	for i := range out {
		out[i] /= n
	}
	return out
}

// fftInPlace is an iterative radix-2 decimation-in-time transform.
func fftInPlace(a []complex128, inverse bool) {
	n := len(a)
	if !IsPowerOfTwo(n) {
		panic("dsp: FFT length must be a power of two")
	}
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			a[i], a[j] = a[j], a[i]
		}
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for length := 2; length <= n; length <<= 1 {
		ang := sign * 2 * math.Pi / float64(length)
		wl := cmplx.Exp(complex(0, ang))
		for start := 0; start < n; start += length {
			w := complex(1, 0)
			half := length / 2
			for k := 0; k < half; k++ {
				u := a[start+k]
				v := a[start+k+half] * w
				a[start+k] = u + v
				a[start+k+half] = u - v
				w *= wl
			}
		}
	}
}

// Convolve returns the full linear convolution of a and b
// (length len(a)+len(b)-1).
func Convolve(a, b []complex128) []complex128 {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	out := make([]complex128, len(a)+len(b)-1)
	for i, av := range a {
		if av == 0 {
			continue
		}
		for j, bv := range b {
			out[i+j] += av * bv
		}
	}
	return out
}

// Energy returns the total energy sum |x|^2.
func Energy(x []complex128) float64 {
	var e float64
	for _, v := range x {
		e += real(v)*real(v) + imag(v)*imag(v)
	}
	return e
}

// MeanPower returns the average power of x, or 0 for an empty slice.
func MeanPower(x []complex128) float64 {
	if len(x) == 0 {
		return 0
	}
	return Energy(x) / float64(len(x))
}

// PeakPower returns max |x|^2.
func PeakPower(x []complex128) float64 {
	var p float64
	for _, v := range x {
		if m := real(v)*real(v) + imag(v)*imag(v); m > p {
			p = m
		}
	}
	return p
}

// PAPR returns the peak-to-average power ratio of x as a linear ratio.
// It returns 1 for empty or zero signals.
func PAPR(x []complex128) float64 {
	mean := MeanPower(x)
	if mean == 0 {
		return 1
	}
	return PeakPower(x) / mean
}

// PAPRdB returns PAPR in decibels.
func PAPRdB(x []complex128) float64 {
	return 10 * math.Log10(PAPR(x))
}

// Scale multiplies the signal by a real gain in place and returns it.
func Scale(x []complex128, g float64) []complex128 {
	c := complex(g, 0)
	for i := range x {
		x[i] *= c
	}
	return x
}

// NormalizePower scales x so its mean power becomes target, returning the
// same slice. Zero signals are returned unchanged.
func NormalizePower(x []complex128, target float64) []complex128 {
	p := MeanPower(x)
	if p == 0 {
		return x
	}
	return Scale(x, math.Sqrt(target/p))
}
