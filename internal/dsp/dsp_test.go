package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func randSignal(r *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	return x
}

// naiveDFT is the O(n^2) reference transform.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for t := 0; t < n; t++ {
			ang := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			s += x[t] * cmplx.Exp(complex(0, ang))
		}
		out[k] = s
	}
	return out
}

func TestFFTMatchesDFT(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 16, 64} {
		x := randSignal(r, n)
		got := FFT(x)
		want := naiveDFT(x)
		for i := range got {
			if cmplx.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("n=%d bin %d: FFT=%v DFT=%v", n, i, got[i], want[i])
			}
		}
	}
}

func TestFFTRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 << (1 + r.Intn(8))
		x := randSignal(r, n)
		y := IFFT(FFT(x))
		for i := range x {
			if cmplx.Abs(x[i]-y[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestFFTParseval(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	x := randSignal(r, 64)
	X := FFT(x)
	if d := math.Abs(Energy(X)/64 - Energy(x)); d > 1e-9 {
		t.Errorf("Parseval violated by %g", d)
	}
}

func TestFFTImpulse(t *testing.T) {
	x := make([]complex128, 8)
	x[0] = 1
	X := FFT(x)
	for i, v := range X {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Errorf("impulse bin %d = %v, want 1", i, v)
		}
	}
}

func TestFFTSingleTone(t *testing.T) {
	const n = 32
	const bin = 5
	x := make([]complex128, n)
	for t := range x {
		x[t] = cmplx.Exp(complex(0, 2*math.Pi*bin*float64(t)/n))
	}
	X := FFT(x)
	for k, v := range X {
		want := 0.0
		if k == bin {
			want = n
		}
		if math.Abs(cmplx.Abs(v)-want) > 1e-9 {
			t.Errorf("bin %d magnitude = %v, want %v", k, cmplx.Abs(v), want)
		}
	}
}

func TestFFTPanicsNonPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("FFT of length 12 should panic")
		}
	}()
	FFT(make([]complex128, 12))
}

func TestConvolveKnown(t *testing.T) {
	a := []complex128{1, 2, 3}
	b := []complex128{0, 1, 0.5}
	got := Convolve(a, b)
	want := []complex128{0, 1, 2.5, 4, 1.5}
	if len(got) != len(want) {
		t.Fatalf("length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if cmplx.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("conv[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestConvolveEmpty(t *testing.T) {
	if got := Convolve(nil, []complex128{1}); got != nil {
		t.Errorf("Convolve(nil, x) = %v", got)
	}
}

func TestConvolveCommutativeProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randSignal(r, 1+r.Intn(16))
		b := randSignal(r, 1+r.Intn(16))
		ab := Convolve(a, b)
		ba := Convolve(b, a)
		for i := range ab {
			if cmplx.Abs(ab[i]-ba[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestEnergyPower(t *testing.T) {
	x := []complex128{3, 4i}
	if got := Energy(x); math.Abs(got-25) > 1e-12 {
		t.Errorf("Energy = %v", got)
	}
	if got := MeanPower(x); math.Abs(got-12.5) > 1e-12 {
		t.Errorf("MeanPower = %v", got)
	}
	if got := PeakPower(x); math.Abs(got-16) > 1e-12 {
		t.Errorf("PeakPower = %v", got)
	}
	if got := MeanPower(nil); got != 0 {
		t.Errorf("MeanPower(nil) = %v", got)
	}
}

func TestPAPRConstantEnvelope(t *testing.T) {
	// A constant-envelope signal has PAPR exactly 1 (0 dB).
	x := make([]complex128, 64)
	for i := range x {
		x[i] = cmplx.Exp(complex(0, float64(i)*0.3))
	}
	if got := PAPR(x); math.Abs(got-1) > 1e-12 {
		t.Errorf("constant envelope PAPR = %v", got)
	}
	if got := PAPRdB(x); math.Abs(got) > 1e-10 {
		t.Errorf("constant envelope PAPR dB = %v", got)
	}
}

func TestPAPRKnown(t *testing.T) {
	x := []complex128{2, 0} // peak 4, mean 2
	if got := PAPR(x); math.Abs(got-2) > 1e-12 {
		t.Errorf("PAPR = %v, want 2", got)
	}
	if got := PAPR(nil); got != 1 {
		t.Errorf("PAPR(nil) = %v, want 1", got)
	}
}

func TestNormalizePower(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	x := randSignal(r, 256)
	NormalizePower(x, 2.5)
	if got := MeanPower(x); math.Abs(got-2.5) > 1e-9 {
		t.Errorf("normalized power = %v", got)
	}
	zero := make([]complex128, 4)
	NormalizePower(zero, 1)
	if Energy(zero) != 0 {
		t.Error("zero signal must stay zero")
	}
}

func TestIsPowerOfTwo(t *testing.T) {
	for _, n := range []int{1, 2, 4, 1024} {
		if !IsPowerOfTwo(n) {
			t.Errorf("%d should be power of two", n)
		}
	}
	for _, n := range []int{0, -2, 3, 12, 1023} {
		if IsPowerOfTwo(n) {
			t.Errorf("%d should not be power of two", n)
		}
	}
}
