package mathx

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// kernelEdges are the inputs the gain kernel must get right beyond the
// ranges a floor reaches: signed zeros, the subnormal range and its
// bounds, the bounds of the normal range, the infinities, NaNs of both
// signs, and the points where Log's reduction and Pow's special cases
// switch branches (√2/2 in the fraction, 1/2, 1, 3000 dB).
var kernelEdges = func() []float64 {
	xs := []float64{
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000FFFFFFFFFFFFF), math.Float64frombits(0x0008000000000000),
		0x1p-1022, math.Nextafter(0x1p-1022, 0), math.Nextafter(0x1p-1022, 1),
		math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1),
		math.NaN(), math.Float64frombits(0xFFF8000000000001), math.Float64frombits(0x7FF0000000000001),
		1, -1, 0.5, 2, 5, 10, 100, 1e-300, 1e300, 3000, -3000, 2999.999999, -2999.999999,
		math.Sqrt2 / 2, math.Sqrt2, 7.07106781186547524401e-01,
	}
	for _, x := range []float64{math.Sqrt2 / 2, math.Sqrt2, 1, 0.5} {
		xs = append(xs, math.Nextafter(x, 0), math.Nextafter(x, 2))
	}
	return xs
}()

// sameBits reports whether got and want are the same float64, NaN
// payloads and the sign of zero included.
func sameBits(got, want float64) bool {
	return math.Float64bits(got) == math.Float64bits(want)
}

// kernelMismatch describes the first of Hypot(x, y), Log10(x) and
// DBToLinear(x) that differs in any bit from the math package, or
// returns "".
func kernelMismatch(x, y float64) string {
	if got, want := Hypot(x, y), math.Hypot(x, y); !sameBits(got, want) {
		return fmt.Sprintf("Hypot(%v, %v) = %v (%#x), math.Hypot gives %v (%#x)",
			x, y, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	if got, want := Log10(x), math.Log10(x); !sameBits(got, want) {
		return fmt.Sprintf("Log10(%v) = %v (%#x), math.Log10 gives %v (%#x)",
			x, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	if got, want := DBToLinear(x), math.Pow(10, x/10); !sameBits(got, want) {
		return fmt.Sprintf("DBToLinear(%v) = %v (%#x), math.Pow gives %v (%#x)",
			x, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	return ""
}

// TestGainKernelBits holds the gain kernel — Hypot, Log10 and
// DBToLinear, which netsim's gain rows store through dist,
// channel.LossCurve.LossDB and mwFromDBm — to math.Hypot, math.Log10
// and math.Pow(10, ·/10) bit for bit: every pair of edge inputs, grids
// over the ranges a floor reaches (distances to 2 km, losses and
// powers to ±2000 dB), and 10M PCG-seeded draws, in turn a distance
// pair, a path-loss ratio spread over 40 decades, a power in dB, and a
// pair of raw float64 bit patterns.
func TestGainKernelBits(t *testing.T) {
	checkKernel := func(x, y float64) {
		if d := kernelMismatch(x, y); d != "" {
			t.Fatal(d)
		}
	}
	for _, x := range kernelEdges {
		for _, y := range kernelEdges {
			checkKernel(x, y)
		}
	}
	for i := -20000; i <= 20000; i++ {
		x := float64(i) / 10
		checkKernel(x, x/3)
		checkKernel(float64(i)/64, 1)
	}
	// Log's reduction doubles a fraction at or below √2/2: the bound
	// itself at every exponent, and its neighbours.
	for e := -1074; e < 1024; e++ {
		x := math.Ldexp(math.Sqrt2/2, e)
		checkKernel(x, 1)
		checkKernel(math.Nextafter(x, 0), 1)
		checkKernel(math.Nextafter(x, math.Inf(1)), 1)
	}
	for dx := -300.0; dx <= 300; dx += 0.75 {
		for dy := -300.0; dy <= 300; dy += 7.25 {
			checkKernel(dx, dy)
		}
	}
	r := rand.New(rand.NewPCG(27, 1))
	for i := range 10_000_000 {
		switch i % 4 {
		case 0:
			checkKernel(-2000+4000*r.Float64(), -2000+4000*r.Float64())
		case 1:
			checkKernel(math.Exp(-46+92*r.Float64()), 0)
		case 2:
			checkKernel(-600+900*r.Float64(), 1)
		default:
			checkKernel(math.Float64frombits(r.Uint64()), math.Float64frombits(r.Uint64()))
		}
	}
}

// FuzzGainKernelBits is TestGainKernelBits on raw float64 bit
// patterns. Plain go test runs the seeds.
func FuzzGainKernelBits(f *testing.F) {
	for _, x := range kernelEdges {
		f.Add(math.Float64bits(x), math.Float64bits(3))
	}
	f.Add(math.Float64bits(37.5), math.Float64bits(-12.25))
	f.Add(uint64(1), uint64(0x7FEFFFFFFFFFFFFF))
	f.Fuzz(func(t *testing.T, a, b uint64) {
		x, y := math.Float64frombits(a), math.Float64frombits(b)
		for _, d := range []string{kernelMismatch(x, y), kernelMismatch(y, x)} {
			if d != "" {
				t.Fatal(d)
			}
		}
	})
}
