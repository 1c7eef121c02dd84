package mimo

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/channel"
	"repro/internal/matrix"
	"repro/internal/modem"
	"repro/internal/rng"
)

// applyFlat sends tx streams through a flat channel H and adds noise.
func applyFlat(h *matrix.Matrix, tx [][]complex128, noiseVar float64, src *rng.Source) [][]complex128 {
	n := len(tx[0])
	rx := make([][]complex128, h.Rows)
	for j := range rx {
		rx[j] = make([]complex128, n)
	}
	x := make([]complex128, h.Cols)
	for t := 0; t < n; t++ {
		for i := range x {
			x[i] = tx[i][t]
		}
		y := h.MulVec(x)
		for j := range rx {
			rx[j][t] = y[j]
			if noiseVar > 0 {
				rx[j][t] += src.ComplexGaussian(noiseVar)
			}
		}
	}
	return rx
}

func TestZFSeparatesStreams(t *testing.T) {
	src := rng.New(5)
	for _, shape := range [][2]int{{2, 2}, {3, 2}, {4, 4}} {
		nr, nt := shape[0], shape[1]
		h := channel.MIMOFlat(nr, nt, src)
		det, err := NewZF(h)
		if err != nil {
			t.Fatalf("%dx%d: %v", nr, nt, err)
		}
		tx := make([][]complex128, nt)
		var ref [][]complex128
		for i := range tx {
			syms := modem.QPSK.Modulate(src.Bits(2 * 16))
			tx[i] = syms
			ref = append(ref, syms)
		}
		rx := applyFlat(h, tx, 0, src)
		got := det.DetectBlock(rx)
		for i := range got {
			for t0 := range got[i] {
				if cmplx.Abs(got[i][t0]-ref[i][t0]) > 1e-9 {
					t.Fatalf("%dx%d: stream %d sample %d mismatch", nr, nt, i, t0)
				}
			}
		}
	}
}

func TestZFFailsRankDeficient(t *testing.T) {
	// 1 rx antenna cannot separate 2 streams.
	h := matrix.FromRows([][]complex128{{1, 2}})
	if _, err := NewZF(h); err == nil {
		t.Error("ZF of 1x2 channel should fail")
	}
}

func TestMMSEBeatsZFAtLowSNR(t *testing.T) {
	// The design reason MMSE exists: at low SNR, ZF's noise enhancement on
	// ill-conditioned channels costs symbol errors that MMSE avoids.
	src := rng.New(6)
	const trials = 300
	const noiseVar = 0.5
	zfErrs, mmseErrs := 0, 0
	for trial := 0; trial < trials; trial++ {
		h := channel.MIMOFlat(2, 2, src)
		zf, err := NewZF(h)
		if err != nil {
			continue
		}
		mmse, err := NewMMSE(h, noiseVar, 1)
		if err != nil {
			continue
		}
		bits := src.Bits(2 * 2 * 8)
		syms := modem.QPSK.Modulate(bits)
		tx := [][]complex128{syms[:8], syms[8:]}
		rx := applyFlat(h, tx, noiseVar, src)
		for _, pair := range []struct {
			det  *Detector
			errs *int
		}{{zf, &zfErrs}, {mmse, &mmseErrs}} {
			streams := pair.det.DetectBlock(rx)
			got := append(modem.QPSK.DemodulateHard(streams[0]), modem.QPSK.DemodulateHard(streams[1])...)
			for i := range bits {
				if got[i] != bits[i] {
					*pair.errs++
				}
			}
		}
	}
	if mmseErrs > zfErrs {
		t.Errorf("MMSE errors %d exceed ZF %d at low SNR", mmseErrs, zfErrs)
	}
}

func TestMIMOCapacityScalesWithAntennas(t *testing.T) {
	// The "heretofore unreachable" spectral efficiencies: ergodic capacity
	// grows roughly linearly with min(nr, nt).
	src := rng.New(10)
	const snr = 100.0 // 20 dB
	c1 := ErgodicCapacity(1, 1, snr, 500, src)
	c2 := ErgodicCapacity(2, 2, snr, 500, src)
	c4 := ErgodicCapacity(4, 4, snr, 500, src)
	if c2 < 1.7*c1 {
		t.Errorf("2x2 capacity %v not ~2x of 1x1 %v", c2, c1)
	}
	if c4 < 1.7*c2 {
		t.Errorf("4x4 capacity %v not ~2x of 2x2 %v", c4, c2)
	}
}

func TestAntennaCorrelationErodesCapacity(t *testing.T) {
	// Ablation on the rich-scattering assumption behind E4: the paper's
	// MIMO efficiency claim needs uncorrelated antennas; a correlated
	// array loses most of the multiplexing gain.
	src := rng.New(13)
	const snr = 100.0
	const trials = 600
	avg := func(rho float64) float64 {
		var sum float64
		for i := 0; i < trials; i++ {
			sum += OpenLoopCapacity(channel.CorrelatedMIMOFlat(4, 4, rho, src), snr)
		}
		return sum / trials
	}
	iid := avg(0)
	mid := avg(0.7)
	tight := avg(0.98)
	if !(iid > mid && mid > tight) {
		t.Errorf("capacity should fall with correlation: %v, %v, %v", iid, mid, tight)
	}
	if tight > 0.7*iid {
		t.Errorf("rho=0.98 capacity %v kept too much of iid %v", tight, iid)
	}
}

func TestOpenLoopCapacityIdentityChannel(t *testing.T) {
	// H = I with snr split across 2 antennas: 2*log2(1 + snr/2).
	h := matrix.Identity(2)
	const snr = 10.0
	want := 2 * math.Log2(1+snr/2)
	if got := OpenLoopCapacity(h, snr); math.Abs(got-want) > 1e-9 {
		t.Errorf("capacity = %v, want %v", got, want)
	}
}
