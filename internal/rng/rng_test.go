package rng

import (
	"math"
	"math/cmplx"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("identical seeds diverged")
		}
	}
	c := New(43)
	same := true
	a = New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != c.Float64() {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(1)
	c1 := parent.Split()
	c2 := parent.Split()
	equal := 0
	const n = 1000
	for i := 0; i < n; i++ {
		if c1.Float64() == c2.Float64() {
			equal++
		}
	}
	if equal > n/100 {
		t.Errorf("split children look correlated: %d/%d equal draws", equal, n)
	}
}

func TestGaussianMoments(t *testing.T) {
	s := New(7)
	const n = 200000
	var sum, sq float64
	for i := 0; i < n; i++ {
		x := s.Gaussian(3, 2)
		sum += x
		sq += x * x
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if math.Abs(mean-3) > 0.05 {
		t.Errorf("mean = %v, want 3", mean)
	}
	if math.Abs(variance-4) > 0.15 {
		t.Errorf("variance = %v, want 4", variance)
	}
}

func TestComplexGaussianVariance(t *testing.T) {
	s := New(9)
	const n = 200000
	const sigma2 = 2.5
	var power, re, im float64
	for i := 0; i < n; i++ {
		z := s.ComplexGaussian(sigma2)
		power += real(z)*real(z) + imag(z)*imag(z)
		re += real(z)
		im += imag(z)
	}
	if got := power / n; math.Abs(got-sigma2) > 0.08 {
		t.Errorf("E|z|^2 = %v, want %v", got, sigma2)
	}
	if math.Abs(re/n) > 0.03 || math.Abs(im/n) > 0.03 {
		t.Errorf("nonzero mean: %v, %v", re/n, im/n)
	}
}

func TestComplexGaussianVec(t *testing.T) {
	s := New(11)
	v := s.ComplexGaussianVec(5000, 1.0)
	if len(v) != 5000 {
		t.Fatalf("len = %d", len(v))
	}
	var p float64
	for _, z := range v {
		p += real(z)*real(z) + imag(z)*imag(z)
	}
	if got := p / 5000; math.Abs(got-1) > 0.1 {
		t.Errorf("vector power = %v, want 1", got)
	}
}

func TestRayleighMoments(t *testing.T) {
	s := New(13)
	const n = 200000
	const sigma = 1.5
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.Rayleigh(sigma)
	}
	want := sigma * math.Sqrt(math.Pi/2)
	if got := sum / n; math.Abs(got-want) > 0.02*want {
		t.Errorf("Rayleigh mean = %v, want %v", got, want)
	}
}

func TestRayleighMatchesComplexMagnitude(t *testing.T) {
	// |CN(0, s2)| is Rayleigh with sigma = sqrt(s2/2); compare means.
	s := New(15)
	const n = 100000
	var m1, m2 float64
	for i := 0; i < n; i++ {
		m1 += cmplx.Abs(s.ComplexGaussian(2))
		m2 += s.Rayleigh(1)
	}
	if diff := math.Abs(m1-m2) / n; diff > 0.02 {
		t.Errorf("mean magnitude mismatch: %v", diff)
	}
}

func TestExponentialMean(t *testing.T) {
	s := New(17)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.Exponential(4)
	}
	if got := sum / n; math.Abs(got-4) > 0.1 {
		t.Errorf("exponential mean = %v, want 4", got)
	}
}

func TestBitsBalance(t *testing.T) {
	s := New(19)
	bits := s.Bits(100000)
	ones := 0
	for _, b := range bits {
		if b > 1 {
			t.Fatalf("bit value %d out of range", b)
		}
		ones += int(b)
	}
	if math.Abs(float64(ones)/100000-0.5) > 0.01 {
		t.Errorf("ones fraction = %v", float64(ones)/100000)
	}
}

func TestBytesLength(t *testing.T) {
	s := New(25)
	b := s.Bytes(33)
	if len(b) != 33 {
		t.Fatalf("len = %d", len(b))
	}
}
