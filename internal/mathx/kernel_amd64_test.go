//go:build amd64

package mathx

import (
	"math"
	"math/rand/v2"
	"testing"
)

// TestExpLogPorts holds the unexported ports under Log10 and
// DBToLinear to math.Log and math.Exp directly, both of exp's paths
// included: exp must follow the path math.Exp takes on this CPU, the
// other path must still be a faithful port of its half of the
// assembly, and every probe that picks the path must tell the two
// apart.
func TestExpLogPorts(t *testing.T) {
	for _, x := range fmaProbe {
		if sameBits(expFMA(x), expPlain(x)) {
			t.Fatalf("probe %v: both exp paths give %v, so it cannot tell them apart", x, expFMA(x))
		}
	}
	check := func(x float64) {
		if got, want := exp(x), math.Exp(x); !sameBits(got, want) {
			t.Fatalf("exp(%v) = %v (%#x), math.Exp gives %v (%#x) (useFMA %v)",
				x, got, math.Float64bits(got), want, math.Float64bits(want), useFMA)
		}
		if got, want := log(x), math.Log(x); !sameBits(got, want) {
			t.Fatalf("log(%v) = %v (%#x), math.Log gives %v (%#x)",
				x, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for _, x := range kernelEdges {
		check(x)
	}
	// The bounds of exp's branches: overflow, the subnormal results,
	// the flush to zero and the early zero below −746.
	for _, x := range []float64{709.782712893384, math.Nextafter(709.782712893384, 1000), 709.78,
		-708.39, -708.4, -744.44, -745.13, -745.14, -745.2, -746, math.Nextafter(-746, 0), -746.1} {
		check(x)
	}
	for x := -760.0; x <= 720; x += 0.01 {
		check(x)
	}
	// math.Exp never takes the other path on this CPU, so it cannot be
	// held bit for bit; it must stay within 2 ulp of math.Exp.
	other := expPlain
	if !useFMA {
		other = expFMA
	}
	r := rand.New(rand.NewPCG(5, 6))
	for range 1_000_000 {
		x := -745 + 1454*r.Float64()
		check(x)
		if got, want := other(x), math.Exp(x); math.Abs(got-want) > 2*(math.Nextafter(want, math.Inf(1))-want) {
			t.Fatalf("the path math.Exp does not take gives %v at %v, math.Exp %v", got, x, want)
		}
		check(math.Float64frombits(r.Uint64()))
	}
}
