package modem

import (
	"bytes"
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

var allSchemes = []Scheme{BPSK, QPSK, QAM16, QAM64}

func TestBitsPerSymbol(t *testing.T) {
	want := map[Scheme]int{BPSK: 1, QPSK: 2, QAM16: 4, QAM64: 6}
	for s, n := range want {
		if got := s.BitsPerSymbol(); got != n {
			t.Errorf("%v BitsPerSymbol = %d, want %d", s, got, n)
		}
	}
}

func TestConstellationUnitEnergy(t *testing.T) {
	for _, s := range allSchemes {
		pts := s.Constellation()
		if len(pts) != 1<<uint(s.BitsPerSymbol()) {
			t.Fatalf("%v: %d points", s, len(pts))
		}
		var e float64
		for _, p := range pts {
			e += real(p)*real(p) + imag(p)*imag(p)
		}
		if avg := e / float64(len(pts)); math.Abs(avg-1) > 1e-12 {
			t.Errorf("%v: average energy %v, want 1", s, avg)
		}
	}
}

func TestConstellationDistinct(t *testing.T) {
	for _, s := range allSchemes {
		pts := s.Constellation()
		for i := range pts {
			for j := i + 1; j < len(pts); j++ {
				if cmplx.Abs(pts[i]-pts[j]) < 1e-9 {
					t.Errorf("%v: points %d and %d coincide", s, i, j)
				}
			}
		}
	}
}

func TestGrayNeighbors(t *testing.T) {
	// In a Gray-mapped square constellation, nearest neighbours differ in
	// exactly one bit — the property that minimizes BER.
	for _, s := range []Scheme{QPSK, QAM16, QAM64} {
		pts := s.Constellation()
		// Find minimum distance.
		minD := math.Inf(1)
		for i := range pts {
			for j := i + 1; j < len(pts); j++ {
				if d := cmplx.Abs(pts[i] - pts[j]); d < minD {
					minD = d
				}
			}
		}
		for i := range pts {
			for j := i + 1; j < len(pts); j++ {
				if cmplx.Abs(pts[i]-pts[j]) < minD*1.001 {
					x := i ^ j
					if x&(x-1) != 0 {
						t.Errorf("%v: nearest neighbours %06b and %06b differ in >1 bit", s, i, j)
					}
				}
			}
		}
	}
}

func TestModulateRoundTrip(t *testing.T) {
	src := rng.New(1)
	for _, s := range allSchemes {
		bits := src.Bits(s.BitsPerSymbol() * 100)
		syms := s.Modulate(bits)
		if len(syms) != 100 {
			t.Fatalf("%v: %d symbols", s, len(syms))
		}
		back := s.DemodulateHard(syms)
		if !bytes.Equal(back, bits) {
			t.Errorf("%v: noiseless round trip failed", s)
		}
	}
}

func TestModulatePanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-multiple bit count")
		}
	}()
	QAM16.Modulate([]byte{1, 0, 1})
}

func TestSoftDemodSignsMatchHard(t *testing.T) {
	src := rng.New(2)
	for _, s := range allSchemes {
		bits := src.Bits(s.BitsPerSymbol() * 200)
		syms := s.Modulate(bits)
		// mild noise
		for i := range syms {
			syms[i] += src.ComplexGaussian(0.001)
		}
		llrs := s.DemodulateSoft(syms, 0.001)
		hard := HardBitsFromLLRs(llrs)
		if !bytes.Equal(hard, bits) {
			t.Errorf("%v: soft-then-threshold disagrees with transmitted bits", s)
		}
	}
}

func TestSoftDemodScalesWithNoise(t *testing.T) {
	// Lower noise variance must produce larger LLR magnitudes.
	syms := BPSK.Modulate([]byte{0})
	lowNoise := BPSK.DemodulateSoft(syms, 0.01)[0]
	highNoise := BPSK.DemodulateSoft(syms, 1.0)[0]
	if lowNoise <= highNoise {
		t.Errorf("LLR at low noise (%v) not larger than at high noise (%v)", lowNoise, highNoise)
	}
	if lowNoise <= 0 {
		t.Errorf("bit 0 LLR should be positive, got %v", lowNoise)
	}
}

func TestSoftDemodZeroNoiseGuard(t *testing.T) {
	syms := QPSK.Modulate([]byte{1, 0})
	llrs := QPSK.DemodulateSoft(syms, 0)
	for _, l := range llrs {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			t.Fatalf("LLR %v not finite with zero noise variance", l)
		}
	}
}

func TestHardBitsFromLLRs(t *testing.T) {
	got := HardBitsFromLLRs([]float64{1.5, -0.2, 0, -9})
	want := []byte{0, 1, 0, 1}
	if !bytes.Equal(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestQAMBerOrdering(t *testing.T) {
	// At the same SNR, higher-order modulations must have higher BER: the
	// rate/robustness trade-off the paper's generational story rests on.
	src := rng.New(3)
	const n = 3000
	const noiseVar = 0.05
	var prev float64 = -1
	for _, s := range allSchemes {
		bits := src.Bits(s.BitsPerSymbol() * n)
		syms := s.Modulate(bits)
		for i := range syms {
			syms[i] += src.ComplexGaussian(noiseVar)
		}
		got := s.DemodulateHard(syms)
		errs := 0
		for i := range bits {
			if bits[i] != got[i] {
				errs++
			}
		}
		ber := float64(errs) / float64(len(bits))
		if ber < prev {
			t.Errorf("%v BER %v lower than previous scheme %v", s, ber, prev)
		}
		prev = ber
	}
}

func TestDifferentialRoundTrip(t *testing.T) {
	for _, s := range []Scheme{BPSK, QPSK} {
		src := rng.New(4)
		d := NewDifferential(s)
		bits := src.Bits(s.BitsPerSymbol() * 128)
		syms := d.Modulate(bits)
		rx := NewDifferential(s)
		got := rx.Demodulate(syms, 1)
		if !bytes.Equal(got, bits) {
			t.Errorf("differential %v round trip failed", s)
		}
	}
}

func TestDifferentialUnitEnergy(t *testing.T) {
	d := NewDifferential(QPSK)
	syms := d.Modulate([]byte{0, 1, 1, 1, 1, 0, 0, 0})
	for i, y := range syms {
		if math.Abs(cmplx.Abs(y)-1) > 1e-12 {
			t.Errorf("symbol %d magnitude %v", i, cmplx.Abs(y))
		}
	}
}

func TestDifferentialPhaseInvariance(t *testing.T) {
	// A constant unknown phase rotation must not corrupt differential data:
	// the whole point of DBPSK in the 1997 PHY.
	src := rng.New(5)
	bits := src.Bits(64)
	d := NewDifferential(BPSK)
	syms := d.Modulate(bits)
	rot := cmplx.Exp(complex(0, 1.1))
	for i := range syms {
		syms[i] *= rot
	}
	got := NewDifferential(BPSK).Demodulate(syms, rot) // reference also rotated
	if !bytes.Equal(got, bits) {
		t.Error("constant phase rotation corrupted DBPSK data")
	}
}

func TestDifferentialChunkedEncode(t *testing.T) {
	src := rng.New(6)
	bits := src.Bits(40)
	d := NewDifferential(QPSK)
	whole := d.Modulate(bits)
	d2 := NewDifferential(QPSK)
	part := append(d2.Modulate(bits[:20]), d2.Modulate(bits[20:])...)
	for i := range whole {
		if cmplx.Abs(whole[i]-part[i]) > 1e-12 {
			t.Fatal("chunked differential encoding diverged")
		}
	}
}

func TestDifferentialRejectsQAM(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewDifferential(QAM16) should panic")
		}
	}()
	NewDifferential(QAM16)
}

func TestModulationRoundTripProperty(t *testing.T) {
	f := func(raw []byte, schemeIdx uint8) bool {
		s := allSchemes[int(schemeIdx)%len(allSchemes)]
		bps := s.BitsPerSymbol()
		bits := make([]byte, (len(raw)/bps)*bps)
		for i := range bits {
			bits[i] = raw[i] & 1
		}
		if len(bits) == 0 {
			return true
		}
		return bytes.Equal(s.DemodulateHard(s.Modulate(bits)), bits)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
