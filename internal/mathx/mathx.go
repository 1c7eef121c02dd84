// Package mathx provides the small numerical utilities shared by the
// wlan simulation stack: decibel conversions, clamping and linear
// interpolation, descriptive statistics, and the gain kernel netsim's
// gain rows are computed with.
//
// The gain kernel is Hypot, Log10 and DBToLinear. Each returns the bits
// of its math package counterpart (math.Hypot, math.Log10,
// math.Pow(10, ·/10)) for every input, so a gain computed through it is
// the gain the math package gives. On amd64 Hypot, Log10 and the
// exponential under DBToLinear are Go ports of math's assembly
// (kernel_amd64.go), which the compiler schedules the caller's loop
// around; elsewhere they call the math package (kernel_other.go).
//
// All routines operate on float64 and are deterministic; none of them
// allocate unless they return a slice.
package mathx

import (
	"math"
	"math/bits"
	"sort"
)

// DBToLinear converts a power ratio expressed in decibels to a linear
// ratio. It returns math.Pow(10, db/10) bit for bit, in a little over
// half the time (pow10).
func DBToLinear(db float64) float64 {
	return pow10(db / 10)
}

// ln10 is math.Log(10) as math.Pow(10, y) computes it on every call.
// It is evaluated at run time, not folded from math.Ln10, so it holds
// the same bits.
var ln10 = math.Log(10)

// pow10Squares holds math.Pow(10, y)'s squaring loop for every bit of
// an integer part below 512: a set bit b multiplies the mantissa by x
// and adds e to the exponent, where x·2^e = 10^(2^b) as the loop forms
// it from Frexp(10) = 0.625·2⁴, squaring x and renormalising it to
// [0.5, 1).
var pow10Squares = func() (t [9]struct {
	x float64
	e int
}) {
	x1, xe := 0.625, 4
	for b := range t {
		t[b].x, t[b].e = x1, xe
		x1 *= x1
		xe <<= 1
		if x1 < .5 {
			x1 += x1
			xe--
		}
	}
	return t
}()

// pow10 is math.Pow(10, y), step for step, with the work that depends
// only on the base done once: Log(10) is ln10, and the squaring loop's
// factors are pow10Squares. Every input math.Pow special-cases goes to
// math.Pow: y of 0 or 1, ±1/2 (its Sqrt path), NaN and ±Inf, and
// |y| ≥ 300, where the result leaves the normal range. Below 300 the
// integer part has at most 9 bits, so the exponent never nears the
// ±4096 that math.Pow's squaring loop guards against, and the guard is
// left out. math.Modf's split is a truncation to int64 (its fraction
// is the exact difference either way). The result lies within
// 10^±300, so it is normal, and a1, between 10^-½·2⁻⁹ and 10^½·2⁹,
// keeps 2^ae normal too: math.Ldexp's scaling is then one exact
// multiply by 2^ae.
func pow10(y float64) float64 {
	ay := math.Abs(y)
	if !(ay < 300) || y == 0 || y == 1 || y == 0.5 || y == -0.5 {
		return math.Pow(10, y)
	}
	// ans = a1·2^ae: 10^yf, then 10^yi by repeated squaring.
	yi := int64(ay)
	yf := ay - float64(yi)
	a1, ae := 1.0, 0
	if yf != 0 {
		if yf > 0.5 {
			yf--
			yi++
		}
		a1 = exp(yf * ln10)
	}
	for b := 0; yi != 0; b, yi = b+1, yi>>1 {
		if yi&1 == 1 {
			a1 *= pow10Squares[b].x
			ae += pow10Squares[b].e
		}
	}
	if y < 0 {
		a1 = 1 / a1
		ae = -ae
	}
	return a1 * math.Float64frombits(uint64(ae+1023)<<52)
}

// LinearToDB converts a linear power ratio to decibels. A non-positive
// input returns -Inf, matching the mathematical limit.
func LinearToDB(lin float64) float64 {
	if lin <= 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(lin)
}

// Clamp limits x to the closed interval [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Lerp linearly interpolates between a and b with parameter t in [0, 1].
func Lerp(a, b, t float64) float64 {
	return a + (b-a)*t
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// MinMax returns the minimum and maximum of xs. It panics on an empty
// slice.
func MinMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		panic("mathx: MinMax of empty slice")
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between order statistics. It panics on an empty slice.
// xs is left as it was; PercentileInPlace is the same figure without
// the copy.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("mathx: Percentile of empty slice")
	}
	return PercentileInPlace(append([]float64(nil), xs...), p)
}

// PercentileInPlace is Percentile computed by selection in xs itself,
// which it reorders. It reads the two order statistics a full sort
// would interpolate between — statistic i by quickselect, then i+1 as
// the least value above it — so it returns the bits the sort gives:
// equal float64 values share their bits, except ±0 and NaN payloads,
// which a sort orders arbitrarily too. NaNs order first, as in
// sort.Float64s. It panics on an empty slice.
func PercentileInPlace(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		panic("mathx: Percentile of empty slice")
	}
	if p <= 0 {
		return least(xs)
	}
	if p >= 100 {
		return greatest(xs)
	}
	pos := p / 100 * float64(n-1)
	i := int(math.Floor(pos))
	frac := pos - float64(i)
	if i+1 >= n {
		return greatest(xs)
	}
	selectNth(xs, i, 2*bits.Len(uint(n)))
	return Lerp(xs[i], least(xs[i+1:]), frac)
}

// floatLess is sort.Float64s's order: ascending, NaNs first.
func floatLess(a, b float64) bool {
	return a < b || (a != a && b == b)
}

// least and greatest return the first and last value of xs in
// floatLess order.
func least(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if floatLess(x, m) {
			m = x
		}
	}
	return m
}

func greatest(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if floatLess(m, x) {
			m = x
		}
	}
	return m
}

// selectNth reorders xs so that xs[k] holds the value a sort would put
// there, nothing before it orders above it and nothing after it below.
// Hoare partitioning around a median-of-three pivot keeps runs of equal
// values (a flow's identical delays) and already-sorted input linear.
// An input that still defeats the pivot choice is finished by a sort
// of the range left once the given number of partitioning passes has
// run, so with passes of order log n the worst case stays O(n log n).
func selectNth(xs []float64, k, passes int) {
	lo, hi := 0, len(xs)-1
	for ; hi > lo; passes-- {
		if passes == 0 {
			sort.Float64s(xs[lo : hi+1])
			return
		}
		mid := lo + (hi-lo)/2
		if floatLess(xs[mid], xs[lo]) {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if floatLess(xs[hi], xs[mid]) {
			xs[hi], xs[mid] = xs[mid], xs[hi]
			if floatLess(xs[mid], xs[lo]) {
				xs[mid], xs[lo] = xs[lo], xs[mid]
			}
		}
		pivot := xs[mid]
		i, j := lo, hi
		for i <= j {
			for floatLess(xs[i], pivot) {
				i++
			}
			for floatLess(pivot, xs[j]) {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		// xs[lo..j] order at or below the pivot, xs[i..hi] at or above
		// it, and anything between equals it.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
}
