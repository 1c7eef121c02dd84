// Package mimo implements the multi-antenna processing that the paper
// identifies as the breakthrough behind 802.11n: zero-forcing and MMSE
// spatial multiplexing detection, and Shannon capacity formulas for
// MIMO links. The HT PHY (phy.Ht) carries its own Alamouti space-time
// block code and SVD precoding, and linkmodel.Link the MRC and
// beamforming gains.
package mimo

import (
	"fmt"
	"math"

	"repro/internal/matrix"
	"repro/internal/rng"
)

// Detector inverts a flat MIMO channel for spatial multiplexing.
type Detector struct {
	w *matrix.Matrix // detection matrix, nt x nr
	// PostSNRScale[i] is the factor by which stream i's post-detection SNR
	// relates to the per-antenna SNR (1/noise enhancement for ZF).
	PostSNRScale []float64
}

// NewZF builds a zero-forcing detector W = (H^H H)^-1 H^H. It returns an
// error if the channel is rank deficient (fewer rx than tx antennas, or a
// singular Gram matrix).
func NewZF(h *matrix.Matrix) (*Detector, error) {
	gram := h.Hermitian().Mul(h)
	inv, err := gram.Inverse()
	if err != nil {
		return nil, fmt.Errorf("mimo: ZF needs full column rank: %w", err)
	}
	w := inv.Mul(h.Hermitian())
	return &Detector{w: w, PostSNRScale: noiseEnhancement(w)}, nil
}

// NewMMSE builds the MMSE detector W = (H^H H + noiseVar/symbolPower I)^-1 H^H,
// which trades a little interference leakage for much less noise
// enhancement at low SNR.
func NewMMSE(h *matrix.Matrix, noiseVar, symbolPower float64) (*Detector, error) {
	nt := h.Cols
	gram := h.Hermitian().Mul(h)
	loaded := gram.Add(matrix.Identity(nt).Scale(complex(noiseVar/symbolPower, 0)))
	inv, err := loaded.Inverse()
	if err != nil {
		return nil, fmt.Errorf("mimo: MMSE inversion failed: %w", err)
	}
	w := inv.Mul(h.Hermitian())
	return &Detector{w: w, PostSNRScale: noiseEnhancement(w)}, nil
}

// noiseEnhancement returns 1/rowNorm^2 per detector row: the effective
// post-detection SNR scale for unit-power white noise.
func noiseEnhancement(w *matrix.Matrix) []float64 {
	out := make([]float64, w.Rows)
	for i := 0; i < w.Rows; i++ {
		var norm float64
		for j := 0; j < w.Cols; j++ {
			norm += sqAbs(w.At(i, j))
		}
		if norm > 0 {
			out[i] = 1 / norm
		}
	}
	return out
}

// Matrix exposes the detection matrix W (streams x rx antennas) so PHYs
// can fold bias correction and noise scaling into their LLR computation.
func (d *Detector) Matrix() *matrix.Matrix { return d.w }

// DetectBlock applies the detector across a burst: rx[antenna][time].
func (d *Detector) DetectBlock(rx [][]complex128) [][]complex128 {
	n := len(rx[0])
	streams := make([][]complex128, d.w.Rows)
	for i := range streams {
		streams[i] = make([]complex128, n)
	}
	y := make([]complex128, len(rx))
	for t := 0; t < n; t++ {
		for j := range rx {
			y[j] = rx[j][t]
		}
		x := d.w.MulVec(y)
		for i := range streams {
			streams[i][t] = x[i]
		}
	}
	return streams
}

func sqAbs(z complex128) float64 {
	return real(z)*real(z) + imag(z)*imag(z)
}

// OpenLoopCapacity returns the MIMO capacity with equal power per
// transmit antenna and no channel knowledge at the transmitter:
// sum log2(1 + snr/nt * sigma_i^2).
func OpenLoopCapacity(h *matrix.Matrix, snr float64) float64 {
	var c float64
	nt := float64(h.Cols)
	for _, s := range h.SingularValues() {
		c += math.Log2(1 + snr/nt*s*s)
	}
	return c
}

// ErgodicCapacity averages OpenLoopCapacity over random i.i.d. Rayleigh
// channels.
func ErgodicCapacity(nr, nt int, snr float64, trials int, src *rng.Source) float64 {
	var sum float64
	for i := 0; i < trials; i++ {
		h := matrix.New(nr, nt)
		for j := range h.Data {
			h.Data[j] = src.ComplexGaussian(1)
		}
		sum += OpenLoopCapacity(h, snr)
	}
	return sum / float64(trials)
}
